//! E15 — Bottleneck sweep: utilization-plane attribution across offered
//! loads.
//!
//! The utilization plane (PR 5) exists to answer "*which* resource gated
//! this run?" without eyeballing traces. This experiment drives the same
//! three-stage pipeline — client message over the 100 GbE fabric, DMA
//! over a shared PCIe Gen3 x4 link, then an NVMe read — under three load
//! shapes, each engineered to saturate a different stage:
//!
//! * **net-heavy** — 1 MiB incast messages onto one downlink, tiny DMA,
//!   striped flash reads;
//! * **pcie-heavy** — small messages, 256 KiB DMAs serializing on the
//!   one x4 link, striped flash reads;
//! * **nvme-heavy** — small messages, tiny DMA, every read hammering the
//!   same flash die.
//!
//! The blame table ([`hyperion_telemetry::blame`]) must follow the
//! saturated stage: the top-blamed resource shifts net → PCIe → NVMe as
//! the load shape changes. Everything is deterministic (no fault plans,
//! no RNG), so the table reproduces byte-for-byte.
//!
//! Like E13/E14, E15 is *excluded* from the default `report` selection:
//! it exists for `report e15`, `report --util e15`, and the CI
//! byte-identity smoke.

use hyperion_net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_net::Network;
use hyperion_nvme::{params as nvme_params, Command, NvmeDevice};
use hyperion_pcie::{PcieGen, PcieLink};
use hyperion_sim::time::Ns;
use hyperion_telemetry::{blame, Recorder};

use crate::table::{fmt_ns, Table};

/// Concurrent client streams.
const CLIENTS: usize = 8;

/// Operations per client (all issue at t=0; the stations' FIFO timelines
/// do the queueing).
const OPS_PER_CLIENT: usize = 8;

/// One load shape of the sweep.
struct Load {
    name: &'static str,
    /// Bytes each client message carries over the fabric.
    msg_bytes: u64,
    /// Bytes each op moves over the shared PCIe link.
    dma_bytes: u64,
    /// True: every read hits the same flash die; false: reads stripe
    /// across channels/dies.
    collide_flash: bool,
}

const LOADS: [Load; 3] = [
    Load {
        name: "net-heavy",
        msg_bytes: 1 << 20,
        dma_bytes: 4 << 10,
        collide_flash: false,
    },
    Load {
        name: "pcie-heavy",
        msg_bytes: 16 << 10,
        dma_bytes: 256 << 10,
        collide_flash: false,
    },
    Load {
        name: "nvme-heavy",
        msg_bytes: 16 << 10,
        dma_bytes: 4 << 10,
        collide_flash: true,
    },
];

/// Runs one load shape with the utilization plane on; returns the
/// recorder (spans, busy intervals, labeled edges) and the makespan.
fn run_load(load: &Load) -> (Recorder, Ns) {
    let mut rec = Recorder::new(format!("E15: bottleneck sweep ({})", load.name));
    rec.enable_util();

    let mut net = Network::new();
    let dpu = Endpoint::new(net.add_node(), EndpointKind::Hardware);
    let clients: Vec<Endpoint> = (0..CLIENTS)
        .map(|_| Endpoint::new(net.add_node(), EndpointKind::Hardware))
        .collect();
    let tr = Transport::new(TransportKind::Udp);
    let mut link = PcieLink::new("e15-x4", PcieGen::Gen3, 4);
    let mut dev = NvmeDevice::new_block(1 << 20);

    // One page holds LBA_SIZE/PAGE_SIZE LBAs; stride whole pages so
    // striped ops land on distinct channels/dies.
    let lbas_per_page = nvme_params::PAGE_SIZE / nvme_params::LBA_SIZE;
    let mut makespan = Ns::ZERO;
    for op in 0..CLIENTS * OPS_PER_CLIENT {
        let client = clients[op % CLIENTS];
        let d = tr
            .send_traced(
                &mut net,
                client,
                dpu,
                Ns::ZERO,
                load.msg_bytes,
                Some(&mut rec),
            )
            .expect("fault-free fabric");
        let dma_done = link.transfer_traced(d.done, load.dma_bytes, Some(&mut rec));
        let lba = if load.collide_flash {
            0
        } else {
            (op as u64) * lbas_per_page
        };
        let c = dev
            .submit_traced(Command::Read { lba, blocks: 1 }, dma_done, Some(&mut rec))
            .expect("in-range read");
        makespan = makespan.max(c.done);
    }
    (rec, makespan)
}

/// Runs E15: the bottleneck-sweep table. One row per load shape with the
/// top-blamed resource and its share of wall-clock.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E15: bottleneck sweep — blame follows the saturated resource (64 ops, 8 clients)",
        &[
            "load",
            "ops",
            "makespan",
            "top blamed",
            "blamed",
            "share",
            "total blamed share",
        ],
    );
    for load in &LOADS {
        let (rec, makespan) = run_load(load);
        let report = blame(&rec);
        let (top_name, top_blamed, top_share) = match report.top() {
            Some(r) => (r.resource.clone(), r.blamed, r.share),
            None => ("-".into(), Ns::ZERO, 0.0),
        };
        let total_share = report.blamed_total().0 as f64 / report.wall().0.max(1) as f64;
        t.row(vec![
            load.name.into(),
            (CLIENTS * OPS_PER_CLIENT).to_string(),
            fmt_ns(makespan.0),
            top_name,
            fmt_ns(top_blamed.0),
            format!("{:.1}%", top_share * 100.0),
            format!("{:.1}%", total_share * 100.0),
        ]);
    }
    vec![t]
}

/// Telemetry run: the PCIe-bound load shape with the utilization plane
/// on — the recorder `report --util e15` renders.
pub fn telemetry() -> Recorder {
    run_load(&LOADS[1]).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn table() -> &'static Table {
        static T: OnceLock<Table> = OnceLock::new();
        T.get_or_init(|| run().remove(0))
    }

    #[test]
    fn top_blame_shifts_across_load_points() {
        let t = table();
        let tops: Vec<&str> = (0..3).map(|i| t.rows[i][3].as_str()).collect();
        assert!(
            tops[0].starts_with("net:"),
            "incast must blame the fabric: {tops:?}"
        );
        assert!(
            tops[1].starts_with("pcie:"),
            "big DMAs must blame the shared link: {tops:?}"
        );
        assert!(
            tops[2].starts_with("nvme:"),
            "die-colliding reads must blame flash: {tops:?}"
        );
    }

    #[test]
    fn blamed_fractions_never_exceed_wall() {
        for load in &LOADS {
            let (rec, _) = run_load(load);
            let report = blame(&rec);
            assert!(report.blamed_total() <= report.wall());
            let share_sum: f64 = report.rows.iter().map(|r| r.share).sum();
            assert!(share_sum <= 1.0 + 1e-9, "{}: {share_sum}", load.name);
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = format!("{}", run().remove(0));
        let b = format!("{}", run().remove(0));
        assert_eq!(a, b);
        let ja = hyperion_telemetry::json::to_json(&telemetry());
        let jb = hyperion_telemetry::json::to_json(&telemetry());
        assert_eq!(ja, jb);
    }

    #[test]
    fn telemetry_carries_the_util_plane() {
        let rec = telemetry();
        assert!(rec.util_enabled());
        assert!(!rec.util().is_empty());
        assert_eq!(rec.open_spans(), 0);
        assert!(!rec.edge_resources().is_empty());
    }
}
