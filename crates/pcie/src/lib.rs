//! # hyperion-pcie — PCIe interconnect substrate
//!
//! Models the PCIe plumbing of both sides of the paper's comparison:
//!
//! * **Hyperion side** (paper §2): the FPGA hosts its own PCIe root complex
//!   and reaches off-the-shelf NVMe SSDs via the crossover board, so
//!   storage traffic never leaves the card — an end-to-end hardware path
//!   with zero CPU-mediated hops. The paper splits the x16 lanes into four
//!   x4 links; no DPU path crosses them, so they are not modelled.
//! * **Baseline side** (paper §1, Table 1): devices hang off a host root
//!   complex; device-to-device movement either bounces through host DRAM
//!   (two DMA transfers plus CPU coordination) or, at best, uses P2P DMA
//!   set up by the host.
//!
//! The model captures what the experiments need: per-link bandwidth and
//! latency, queueing at links and at the root complex, and *structural*
//! counters (hops, copies, host-DRAM bounces) that experiment E2
//! (Table 1) reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hyperion_sim::fault::FaultPlan;
use hyperion_sim::resource::Resource;
use hyperion_sim::stats::Counters;
use hyperion_sim::time::{serialization_delay, Ns};
use hyperion_telemetry::{At, Component};

/// PCI Express generation, determining per-lane throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PcieGen {
    /// 8 GT/s, 128b/130b encoding: ~7.88 Gb/s effective per lane.
    Gen3,
    /// 16 GT/s: ~15.75 Gb/s effective per lane.
    Gen4,
    /// 32 GT/s: ~31.5 Gb/s effective per lane.
    Gen5,
}

impl PcieGen {
    /// Effective per-lane data rate in bits per second, after line coding
    /// and a ~5% TLP/DLLP protocol overhead.
    pub fn lane_bps(self) -> u64 {
        match self {
            PcieGen::Gen3 => 7_500_000_000,
            PcieGen::Gen4 => 15_000_000_000,
            PcieGen::Gen5 => 30_000_000_000,
        }
    }
}

/// Per-hop traversal latency through a switch/root-complex stage.
pub const HOP_LATENCY: Ns = Ns(500);

/// Host driver/doorbell cost for each CPU-coordinated DMA setup.
pub const HOST_DOORBELL: Ns = Ns(800);

/// Host DRAM copy bandwidth used for bounce buffers (one direction).
pub const HOST_DRAM_BPS: u64 = 200_000_000_000;

/// Fault site: the link drops to recovery and retrains before the TLPs
/// of a transfer can start moving. Scheduled windows stall until the
/// window ends; Bernoulli firings stall for [`RETRAIN_LATENCY`].
pub const FAULT_PCIE_RETRAIN: &str = "pcie:retrain";

/// How long one link retrain (recovery → L0) stalls traffic when the
/// fault site fires outside a scheduled window.
pub const RETRAIN_LATENCY: Ns = Ns(50_000);

/// A point-to-point PCIe link (one direction modeled; our flows are
/// request/response at a higher layer).
#[derive(Debug)]
pub struct PcieLink {
    gen: PcieGen,
    lanes: u32,
    wire: Resource,
    faults: FaultPlan,
    retrain_stalls: u64,
}

impl PcieLink {
    /// Creates a link of `lanes` width.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(name: &'static str, gen: PcieGen, lanes: u32) -> PcieLink {
        assert!(lanes > 0, "a PCIe link needs at least one lane");
        PcieLink {
            gen,
            lanes,
            wire: Resource::new(name, 1),
            faults: FaultPlan::none(),
            retrain_stalls: 0,
        }
    }

    /// Installs a fault plan; consults [`FAULT_PCIE_RETRAIN`]. The
    /// default empty plan adds no draws and no timing perturbation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Times a transfer stalled behind a link retrain.
    pub fn retrain_stalls(&self) -> u64 {
        self.retrain_stalls
    }

    /// When the retrain fault site fires at `now`, the instant traffic
    /// may move again (window end, or one [`RETRAIN_LATENCY`]); `now`
    /// otherwise.
    fn release_after_retrain(&mut self, now: Ns) -> Ns {
        if self.faults.is_empty() || !self.faults.fires(FAULT_PCIE_RETRAIN, now) {
            return now;
        }
        self.retrain_stalls += 1;
        self.faults
            .window_end(FAULT_PCIE_RETRAIN, now)
            .unwrap_or(now + RETRAIN_LATENCY)
    }

    /// Effective bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.gen.lane_bps() * self.lanes as u64
    }

    /// Queue wait a transfer issued at `now` would see before its TLPs
    /// start moving (zero when the link is idle).
    pub fn queue_wait(&self, now: Ns) -> Ns {
        self.wire.earliest_start(now).saturating_sub(now)
    }

    /// Transfers `bytes` across the link starting no earlier than `now`,
    /// returning the completion instant (includes one hop latency).
    ///
    /// With a recorder: a telemetry span covering queueing, serialization,
    /// and the hop latency, plus a link queue-wait gauge. A non-zero queue
    /// wait becomes a queueing edge on the span, so the critical-path
    /// analyzer can split link occupancy from service. With the
    /// utilization plane enabled the serialization window is claimed busy
    /// on `pcie:<link>`, the queueing edge carries that resource as its
    /// label, and a retrain stall leaves a `fault:pcie:retrain` instant.
    pub fn transfer<'r>(&mut self, at: impl Into<At<'r>>, bytes: u64) -> Ns {
        let At { now, mut rec } = at.into();
        // Resolve the retrain stall first so the queue-wait gauge and the
        // queueing edge both cover time the TLPs could not move, whether
        // the link was busy or retraining.
        let start = self.release_after_retrain(now);
        let obs = rec.as_deref_mut().map(|rec| {
            if start > now {
                rec.bump("pcie:retrain_stalls");
                rec.instant("fault:pcie:retrain", now);
            }
            let ready = start + self.queue_wait(start);
            rec.gauge("pcie:link_queue_wait_ns", (ready - now).0);
            (rec.open(Component::Pcie, self.wire.name(), now), ready)
        });
        let svc = serialization_delay(bytes, self.bandwidth_bps());
        let (ser_start, ser_end) = self.wire.access_interval(start, svc);
        let done = ser_end + HOP_LATENCY;
        if let (Some(rec), Some((span, ready))) = (rec, obs) {
            if rec.util_enabled() {
                let id = format!("pcie:{}", self.wire.name());
                rec.claim_busy(&id, ser_start, ser_end);
                if ready > now {
                    rec.queue_edge_labeled(span, ready, &id);
                }
            } else if ready > now {
                rec.queue_edge(span, ready);
            }
            rec.close(span, done);
        }
        done
    }
}

/// How a device-to-device transfer is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaRoute {
    /// Hyperion: the FPGA *is* the root complex; one hop, zero copies,
    /// no CPU involvement.
    FpgaDirect,
    /// Host-mediated P2P DMA: data moves device→device through the host
    /// root complex (no DRAM bounce) but the CPU sets up the transfer.
    HostP2p,
    /// Classic path: device→host DRAM→device; two DMA transfers, one
    /// bounce buffer copy, CPU coordinates both halves.
    HostBounce,
}

/// A root complex with attached links, routing transfers and accounting
/// the structural costs the paper argues about.
#[derive(Debug)]
pub struct RootComplex {
    fabric_port: Resource,
    host_dram: Resource,
    /// Structural counters: `cpu_hops`, `copies`, `dram_bounces`, `dma`s.
    pub counters: Counters,
}

impl Default for RootComplex {
    fn default() -> Self {
        Self::new()
    }
}

impl RootComplex {
    /// Creates an idle root complex.
    pub fn new() -> RootComplex {
        RootComplex {
            fabric_port: Resource::new("rc-port", 1),
            host_dram: Resource::new("host-dram", 2),
            counters: Counters::new(),
        }
    }

    /// Moves `bytes` from one endpoint to another over `route`, starting at
    /// `now` on the given source/destination links. Returns the completion
    /// instant and bumps the structural counters.
    pub fn dma(
        &mut self,
        route: DmaRoute,
        src: &mut PcieLink,
        dst: &mut PcieLink,
        now: Ns,
        bytes: u64,
    ) -> Ns {
        self.counters.bump("dma");
        match route {
            DmaRoute::FpgaDirect => {
                // Cut-through: TLPs flow src link -> internal switch ->
                // dst link with per-TLP pipelining, so the two link
                // occupancies overlap; the crossing adds one switch stage.
                let t_src = src.transfer(now, bytes);
                let t_dst = dst.transfer(now, bytes);
                let port = self.fabric_port.access(now, Ns(0));
                t_src.max(t_dst).max(port) + HOP_LATENCY
            }
            DmaRoute::HostP2p => {
                // Same cut-through data path, but the CPU programs the
                // transfer (doorbell) and the host root complex adds an
                // extra switch stage.
                self.counters.bump("cpu_hops");
                let setup = now + HOST_DOORBELL;
                let t_src = src.transfer(setup, bytes);
                let t_dst = dst.transfer(setup, bytes);
                let port = self.fabric_port.access(setup, Ns(0));
                t_src.max(t_dst).max(port) + HOP_LATENCY * 2
            }
            DmaRoute::HostBounce => {
                // Store-and-forward through a DRAM staging buffer with two
                // CPU-coordinated DMAs: the dst transfer cannot start until
                // the data is fully staged.
                self.counters.add("cpu_hops", 2);
                self.counters.bump("dram_bounces");
                self.counters.bump("copies");
                let setup1 = now + HOST_DOORBELL;
                let t1 = src.transfer(setup1, bytes);
                let in_dram = self
                    .host_dram
                    .access(t1, serialization_delay(bytes, HOST_DRAM_BPS));
                let setup2 = in_dram + HOST_DOORBELL;
                dst.transfer(setup2, bytes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x4_bandwidth_matches_nvme_reality() {
        let l = PcieLink::new("l", PcieGen::Gen3, 4);
        // ~30 Gb/s effective: an NVMe Gen3 x4 SSD tops out ~3.5 GB/s.
        assert_eq!(l.bandwidth_bps(), 30_000_000_000);
    }

    #[test]
    fn transfer_queues_on_the_link() {
        let mut l = PcieLink::new("l", PcieGen::Gen3, 4);
        let a = l.transfer(Ns::ZERO, 4096);
        let b = l.transfer(Ns::ZERO, 4096);
        assert!(b > a);
        assert!(a > HOP_LATENCY);
    }

    #[test]
    fn fpga_direct_beats_p2p_beats_bounce() {
        let mk = || {
            (
                PcieLink::new("src", PcieGen::Gen3, 4),
                PcieLink::new("dst", PcieGen::Gen3, 4),
                RootComplex::new(),
            )
        };
        let bytes = 64 * 1024;
        let (mut s, mut d, mut rc) = mk();
        let direct = rc.dma(DmaRoute::FpgaDirect, &mut s, &mut d, Ns::ZERO, bytes);
        let (mut s, mut d, mut rc) = mk();
        let p2p = rc.dma(DmaRoute::HostP2p, &mut s, &mut d, Ns::ZERO, bytes);
        let (mut s, mut d, mut rc) = mk();
        let bounce = rc.dma(DmaRoute::HostBounce, &mut s, &mut d, Ns::ZERO, bytes);
        assert!(direct < p2p, "direct {direct} vs p2p {p2p}");
        assert!(p2p < bounce, "p2p {p2p} vs bounce {bounce}");
    }

    #[test]
    fn structural_counters_match_route() {
        let mut s = PcieLink::new("src", PcieGen::Gen3, 4);
        let mut d = PcieLink::new("dst", PcieGen::Gen3, 4);
        let mut rc = RootComplex::new();
        rc.dma(DmaRoute::FpgaDirect, &mut s, &mut d, Ns::ZERO, 4096);
        assert_eq!(rc.counters.get("cpu_hops"), 0);
        assert_eq!(rc.counters.get("copies"), 0);
        rc.dma(DmaRoute::HostBounce, &mut s, &mut d, Ns::ZERO, 4096);
        assert_eq!(rc.counters.get("cpu_hops"), 2);
        assert_eq!(rc.counters.get("copies"), 1);
        assert_eq!(rc.counters.get("dram_bounces"), 1);
        rc.dma(DmaRoute::HostP2p, &mut s, &mut d, Ns::ZERO, 4096);
        assert_eq!(rc.counters.get("cpu_hops"), 3);
    }

    #[test]
    fn retrain_window_defers_transfers_deterministically() {
        use hyperion_sim::fault::FaultPlan;
        let clean = PcieLink::new("l", PcieGen::Gen3, 4).transfer(Ns::ZERO, 4096);
        let mk = || {
            let mut l = PcieLink::new("l", PcieGen::Gen3, 4);
            l.set_fault_plan(FaultPlan::seeded(7).window(FAULT_PCIE_RETRAIN, Ns::ZERO, Ns(30_000)));
            l
        };
        let mut l = mk();
        let done = l.transfer(Ns::ZERO, 4096);
        // The link is retraining: TLPs start only at the window end.
        assert_eq!(done, Ns(30_000) + clean);
        assert_eq!(l.retrain_stalls(), 1);
        // A transfer issued after the window is untouched.
        let after = l.transfer(Ns(40_000), 4096);
        assert_eq!(after, Ns(40_000) + clean);
        assert_eq!(l.retrain_stalls(), 1);
        // Deterministic across identically configured links.
        assert_eq!(mk().transfer(Ns::ZERO, 4096), done);
    }

    #[test]
    fn traced_retrain_counts_and_marks_queue_edge() {
        use hyperion_sim::fault::FaultPlan;
        use hyperion_telemetry::Recorder;
        let mut l = PcieLink::new("l", PcieGen::Gen3, 4);
        l.set_fault_plan(FaultPlan::seeded(7).window(FAULT_PCIE_RETRAIN, Ns::ZERO, Ns(30_000)));
        let mut rec = Recorder::new("pcie");
        let done = l.transfer(At::new(Ns::ZERO, Some(&mut rec)), 4096);
        assert!(done > Ns(30_000));
        assert_eq!(rec.counter("pcie:retrain_stalls"), 1);
        assert_eq!(rec.queue_edges().len(), 1, "stall must be a queue edge");
    }

    #[test]
    fn traced_transfer_claims_the_wire_and_labels_the_edge() {
        use hyperion_telemetry::Recorder;
        let mut l = PcieLink::new("pcie-x4-0", PcieGen::Gen3, 4);
        let mut rec = Recorder::new("pcie-util");
        rec.enable_util();
        // Two back-to-back transfers: the second queues on the wire.
        let a = l.transfer(At::new(Ns::ZERO, Some(&mut rec)), 64 * 1024);
        let b = l.transfer(At::new(Ns::ZERO, Some(&mut rec)), 64 * 1024);
        assert!(b > a);
        let r = rec.util().resource("pcie:pcie-x4-0").expect("claimed");
        assert_eq!(r.claims(), 2);
        // Back-to-back serialization coalesces into one busy interval
        // covering both transfers (done minus the hop latency).
        assert_eq!(r.intervals(), &[(0, (b - HOP_LATENCY).0)]);
        // The queued transfer's edge is labeled with the wire.
        assert_eq!(rec.edge_resources().len(), 1);
        assert_eq!(rec.edge_resources()[0].1, "pcie:pcie-x4-0");
        // Timing identical to the untraced (plain `Ns`) path.
        let mut plain = PcieLink::new("pcie-x4-0", PcieGen::Gen3, 4);
        assert_eq!(plain.transfer(Ns::ZERO, 64 * 1024), a);
        assert_eq!(plain.transfer(Ns::ZERO, 64 * 1024), b);
    }
}
