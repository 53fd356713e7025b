//! F2 — Structural reproduction of the Figure-2 schematic: boot the full
//! DPU and drive one object end-to-end, network → MUX/arbiter →
//! accelerator row → NVMe host IP → flash, with zero CPU involvement.

use hyperion::control::{ControlPlane, ControlRequest, ControlResponse};
use hyperion::dpu::DpuBuilder;
use hyperion_mem::seglevel::SegmentId;
use hyperion_sim::time::Ns;

use crate::table::{fmt_ns, Table};

const KEY: u64 = 0xC0FFEE;

/// Runs the Figure-2 smoke flow and reports each stage.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "F2: Figure-2 end-to-end path (4 KiB object, no CPU anywhere)",
        &["stage", "completed at", "cpu hops so far"],
    );
    let mut dpu = DpuBuilder::new().auth_key(KEY).build();
    let mut cp = ControlPlane::new(KEY);

    let booted = dpu.boot(Ns::ZERO).expect("boot");
    t.row(vec![
        "power-on + JTAG self-test + table recovery".into(),
        fmt_ns(booted.0),
        dpu.root_complex.counters.get("cpu_hops").to_string(),
    ]);

    // Deploy an accelerator kernel over the control network port.
    let resp = cp
        .handle(
            &mut dpu,
            ControlRequest::Deploy {
                name: "passthrough".into(),
                source: "ldxw r0, [r1+0]\nexit".into(),
                ctx_min_len: 64,
            },
            booted,
        )
        .expect("deploy");
    let ControlResponse::Deployed { slot, live_at } = resp else {
        unreachable!("deploy returns Deployed");
    };
    t.row(vec![
        format!("ICAP partial reconfiguration into {slot}"),
        fmt_ns(live_at.0),
        dpu.root_complex.counters.get("cpu_hops").to_string(),
    ]);

    // Ingress: QSFP0 -> arbiter -> accelerator row.
    let at_accel = dpu
        .fabric
        .switch
        .stream(dpu.ports.qsfp0, dpu.ports.accel, live_at, 4096)
        .expect("stream");
    t.row(vec![
        "QSFP0 -> AXIS arbiter -> accelerator row".into(),
        fmt_ns(at_accel.0),
        dpu.root_complex.counters.get("cpu_hops").to_string(),
    ]);

    // Process in the deployed kernel.
    let kernel = cp.kernel_mut(slot).expect("deployed");
    let mut data = vec![0xA5u8; 4096];
    let (_, processed) = kernel
        .pipeline
        .process(&mut kernel.vm, &mut data, at_accel)
        .expect("process");
    t.row(vec![
        "eHDL accelerator kernel".into(),
        fmt_ns(processed.0),
        dpu.root_complex.counters.get("cpu_hops").to_string(),
    ]);

    // Egress: accelerator row -> NVMe host IP core.
    let at_nvme = dpu
        .fabric
        .switch
        .stream(dpu.ports.accel, dpu.ports.nvme, processed, 4096)
        .expect("stream");
    t.row(vec![
        "AXIS arbiter -> NVMe host IP core".into(),
        fmt_ns(at_nvme.0),
        dpu.root_complex.counters.get("cpu_hops").to_string(),
    ]);

    // Persist as a durable segment (single-level store).
    dpu.segments
        .create(SegmentId(0xF2), 4096, at_nvme)
        .expect("create");
    let durable = dpu
        .segments
        .write(SegmentId(0xF2), 0, &data, at_nvme)
        .expect("write");
    t.row(vec![
        "PCIe x4 bridge -> NVMe flash (durable segment)".into(),
        fmt_ns(durable.0),
        dpu.root_complex.counters.get("cpu_hops").to_string(),
    ]);

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cpu_hops_at_every_stage() {
        let t = &run()[0];
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            assert_eq!(row[2], "0", "stage '{}' involved a CPU", row[0]);
        }
    }

    #[test]
    fn stages_are_causally_ordered() {
        let t = &run()[0];
        // Completed-at values must be non-decreasing down the table.
        let times: Vec<u64> = (0..t.rows.len()).map(|i| t.cell(i, 1).ns()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }
}
