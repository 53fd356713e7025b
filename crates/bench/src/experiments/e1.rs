//! E1 — Energy and density: the paper's 4–8x efficiency / 5–10x
//! compactness claim (§2).
//!
//! Runs the same storage operation mix on the Hyperion DPU and on the
//! CPU-centric host, both under their maximum-TDP envelope (exactly the
//! comparison the paper makes), and reports energy per operation plus the
//! physical density ratios.

use hyperion::dpu::DpuBuilder;
use hyperion::platform::{HYPERION, SERVER_1U};
use hyperion_baseline::host::HostServer;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{Component, Recorder};

use crate::table::{fmt_ratio, Table};

/// Operation mix sizes (bytes) exercised per platform.
const SIZES: [u64; 3] = [4 << 10, 64 << 10, 1 << 20];

/// Operations per configuration.
const OPS: u64 = 64;

/// Runs E1 and returns its tables, plus the recorder of the 64 KiB row:
/// every read recorded as a hop, flash-resident on the DPU side and the
/// full kernel path on the host side. The hop energy charges each
/// component's active power over its hop time, not the platform's max
/// TDP as the energy table does, so its DPU/host ratio is not the
/// table's efficiency.
pub fn run() -> (Vec<Table>, Recorder) {
    let mut rec = Recorder::new("E1: 64 KiB durable-object reads, DPU vs host");
    let mut energy = Table::new(
        "E1: energy per op under max TDP (paper: 4-8x)",
        &["op size", "hyperion J/op", "server J/op", "efficiency"],
    );

    for &size in &SIZES {
        let mut trace = (size == SIZES[1]).then_some(&mut rec);
        // Hyperion: durable-object reads straight from the single-level
        // store (one segment-table lookup + the flash work, no software
        // stack). Objects rotate so flash parallelism matches the host
        // side, which also reads distinct LBAs.
        let mut dpu = DpuBuilder::new().auth_key(1).build();
        let t0 = dpu.boot(Ns::ZERO).expect("boot");
        let blocks = size.div_ceil(4096);
        let nobjs = 8u64;
        for i in 0..nobjs {
            dpu.segments
                .create(hyperion_mem::seglevel::SegmentId(i as u128 + 1), size, t0)
                .expect("create");
        }
        let mut t = t0;
        for i in 0..OPS {
            let id = hyperion_mem::seglevel::SegmentId((i % nobjs) as u128 + 1);
            let (_, done) = dpu.segments.read(id, 0, size, t).expect("read");
            if let Some(rec) = trace.as_deref_mut() {
                rec.record_hop(Component::Nvme, "segment:read", t, done);
                rec.record_op("e1.dpu.read", done.saturating_sub(t));
            }
            t = done;
        }
        let dpu_time = t - t0;
        let dpu_energy = HYPERION.max_tdp.energy_over(dpu_time);
        let dpu_j_per_op = dpu_energy.as_joules_f64() / OPS as f64;

        // Host: the same reads through the kernel storage path, over the
        // same rotation of distinct extents.
        let mut host = HostServer::new(1 << 22);
        let mut t = Ns::ZERO;
        for i in 0..OPS {
            let lba = (i % nobjs) * blocks;
            let (_, done) = host.kernel_read(lba, blocks as u32, t).expect("read");
            if let Some(rec) = trace.as_deref_mut() {
                rec.record_hop(Component::Host, "kernel:read", t, done);
                rec.record_op("e1.host.read", done.saturating_sub(t));
            }
            t = done;
        }
        let host_time = t;
        let host_energy = SERVER_1U.max_tdp.energy_over(host_time);
        let host_j_per_op = host_energy.as_joules_f64() / OPS as f64;

        energy.row(vec![
            format!("{} KiB", size >> 10),
            format!("{dpu_j_per_op:.4}"),
            format!("{host_j_per_op:.4}"),
            fmt_ratio(host_j_per_op / dpu_j_per_op),
        ]);
    }

    let mut density = Table::new(
        "E1b: physical density (paper: 5-10x more compact)",
        &["platform", "max TDP", "volume", "vs hyperion"],
    );
    for spec in [HYPERION, SERVER_1U] {
        density.row(vec![
            spec.name.to_string(),
            format!("{}", spec.max_tdp),
            format!("{} cm3", spec.volume_cm3),
            fmt_ratio(HYPERION.volume_ratio_vs(&spec)),
        ]);
    }
    (vec![energy, density], rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::cached;
    use hyperion_sim::energy::Pj;
    use hyperion_telemetry::power::active_power;

    fn tables() -> &'static [Table] {
        cached("e1").0
    }

    #[test]
    fn telemetry_attributes_both_sides() {
        let rec = cached("e1").1;
        let rows = rec.hop_rows();
        let dpu = rows.iter().find(|r| r.name == "segment:read").unwrap();
        let host = rows.iter().find(|r| r.name == "kernel:read").unwrap();
        assert_eq!(dpu.count, OPS);
        assert_eq!(host.count, OPS);
        // The host burns more energy per read: higher active power and a
        // longer software path.
        assert!(host.energy > dpu.energy);
        assert_eq!(rec.open_spans(), 0);
        // The one energy model: each component's energy is its active
        // power over the summed time of its hops, exactly in pJ, and the
        // total is the sum over components.
        for c in Component::ALL {
            let busy: u64 = rows
                .iter()
                .filter(|r| r.component == c)
                .map(|r| r.total.0)
                .sum();
            assert_eq!(
                rec.component_energy(c),
                active_power(c).energy_over(Ns(busy)),
                "{}",
                c.name()
            );
        }
        let sum: Pj = Component::ALL
            .iter()
            .map(|&c| rec.component_energy(c))
            .sum();
        assert_eq!(rec.total_energy(), sum);
        assert!(rec.component_energy(Component::Nvme) > Pj::ZERO);
    }

    #[test]
    fn efficiency_lands_in_or_above_the_paper_band() {
        let tables = tables();
        // Parse the efficiency column of the energy table.
        for i in 0..tables[0].rows.len() {
            let eff = tables[0].cell(i, 3).ratio();
            assert!(
                eff >= 4.0,
                "efficiency {eff} below the paper's 4x lower bound (row {i})"
            );
        }
    }

    #[test]
    fn compactness_in_band() {
        let tables = tables();
        let ratio = tables[1].cell(1, 3).ratio();
        assert!((5.0..=10.0).contains(&ratio), "volume ratio {ratio}");
    }
}
