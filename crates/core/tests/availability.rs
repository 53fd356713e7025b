//! Availability-layer acceptance tests: admission control under
//! generated overload, and the epoch fence against zombie writers.
//!
//! The property half drives one DPU past its admission watermark with
//! generated burst sizes and watermark configs and checks the two
//! sides of the shedding contract:
//!
//! * **accepted requests meet a bounded budget** — the high watermark
//!   caps the queue an admitted request can sit behind, so its latency
//!   is bounded by the watermark (not by the offered burst), and a
//!   shed-then-retried request is served within `ceil(shed/high)` retry
//!   rounds;
//! * **rejected requests fail fast** — a shed request costs the device
//!   nothing: the typed `Overloaded` carries the depth/limit that
//!   refused it and no virtual time is charged.

use bytes::Bytes;
use hyperion::{
    crash_site, Admission, AdmissionConfig, ClusterError, ClusterSupervisor, DpuBuilder,
    DpuCluster, HyperionDpu, KvOp, ServiceError, DEFAULT_PHI_THRESHOLD,
};
use hyperion_net::NodeId;
use hyperion_sim::fault::FaultPlan;
use hyperion_sim::time::Ns;
use hyperion_storage::corfu::{CorfuError, CorfuLog};
use proptest::prelude::*;

fn booted(admission: Option<AdmissionConfig>) -> HyperionDpu {
    let mut dpu = DpuBuilder::new().auth_key(1).build();
    dpu.boot(Ns::ZERO).expect("boot");
    dpu.admission = admission.map(Admission::new);
    dpu
}

fn ssd_put(i: u64) -> KvOp {
    KvOp::SsdPut {
        key: i.to_le_bytes().to_vec(),
        value: Bytes::from_static(&[3u8; 32]),
    }
}

/// One flash-backed op on an idle DPU: the unit of the latency budget.
fn idle_op_latency() -> Ns {
    let mut dpu = booted(None);
    let t = dpu.booted_at();
    let (_, done) = dpu.dispatch(t, ssd_put(u64::MAX)).expect("idle op");
    done.saturating_sub(t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn overload_bursts_shed_past_the_watermark_and_stay_bounded(
        high in 2usize..12,
        extra in 1usize..8,
        burst in 16u64..48,
    ) {
        let cfg = AdmissionConfig {
            max_inflight: high + extra,
            high_watermark: high,
            low_watermark: (high / 2).max(1),
        };
        let t_op = idle_op_latency();
        let mut dpu = booted(Some(cfg));
        let t = dpu.booted_at() + Ns::from_millis(1);

        // The whole burst arrives at one instant: flash-backed work
        // overlaps, so the admission depth is real queue depth.
        let mut accepted = 0u64;
        let mut worst = Ns::ZERO;
        let mut shed: Vec<u64> = Vec::new();
        for i in 0..burst {
            match dpu.dispatch(t, ssd_put(i)) {
                Ok((_, done)) => {
                    accepted += 1;
                    worst = worst.max(done.saturating_sub(t));
                }
                Err(ServiceError::Overloaded { depth, limit }) => {
                    // Fail fast, and honestly: the refusal names the
                    // threshold it hit and the depth that hit it.
                    prop_assert!(depth >= limit, "depth {depth} under limit {limit}");
                    prop_assert!(
                        limit == cfg.high_watermark
                            || limit == cfg.low_watermark
                            || limit == cfg.max_inflight
                    );
                    shed.push(i);
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
            }
        }
        // The watermark admits exactly its depth and sheds the rest.
        prop_assert_eq!(accepted, high as u64);
        prop_assert_eq!(accepted + shed.len() as u64, burst);
        prop_assert_eq!(dpu.counters.get("shed"), shed.len() as u64);

        // Accepted requests meet the budget: latency bounded by the
        // watermark, never by the offered burst.
        let budget = t_op * (high as u64 + 2);
        prop_assert!(worst <= budget, "worst {worst} over budget {budget}");

        // Control: the same burst with admission off queues the whole
        // burst, and its tail blows past what shedding allowed.
        let mut open = booted(None);
        let t2 = open.booted_at() + Ns::from_millis(1);
        let mut open_worst = Ns::ZERO;
        for i in 0..burst {
            let (_, done) = open.dispatch(t2, ssd_put(i)).expect("no admission");
            open_worst = open_worst.max(done.saturating_sub(t2));
        }
        prop_assert!(
            open_worst > worst,
            "unshed tail {open_worst} must exceed shed tail {worst}"
        );

        // Bounded-retry budget: retrying the shed requests at drained
        // round boundaries serves all of them within ceil(shed/high)
        // rounds — each round the backlog is gone and the watermark
        // admits another `high`.
        let interval = Ns::from_millis(5);
        let mut now = t;
        let mut rounds = 0u64;
        while !shed.is_empty() {
            now += interval;
            rounds += 1;
            let mut still = Vec::new();
            for &i in &shed {
                match dpu.dispatch(now, ssd_put(i)) {
                    Ok(_) => {}
                    Err(ServiceError::Overloaded { .. }) => still.push(i),
                    Err(e) => return Err(TestCaseError::fail(format!("retry: {e}"))),
                }
            }
            shed = still;
            prop_assert!(
                rounds <= burst.div_ceil(high as u64) + 1,
                "retry budget exceeded at round {rounds}"
            );
        }
    }
}

/// End-to-end zombie fencing: a member crashes, the detector latches,
/// failover seals the survivors into a new epoch — and then the dead
/// member "comes back" and tries to keep writing. Both its RPC (stale
/// epoch) and its direct log write (sealed unit) must bounce with typed
/// errors; nothing it says after the seal can land.
#[test]
fn zombie_writes_after_failover_are_fenced_everywhere() {
    let (mut cluster, ready) = DpuCluster::boot(3, 1, Ns::ZERO);
    let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
    let interval = Ns(1_000_000);
    let mut sup = ClusterSupervisor::new(nodes, interval, DEFAULT_PHI_THRESHOLD);
    let mut log = CorfuLog::new_replicated(3, 1 << 12, 2);
    log.add_spare_unit(1 << 12);

    // Pre-failure appends so the failover has replicas to repair.
    let mut t = ready;
    for i in 0..9u64 {
        let (_, done) = log.append(&i.to_le_bytes(), t).expect("append");
        t = done;
    }
    let old_epoch = log.epoch();

    // Member 0 fail-stops one tick after its first heartbeat.
    let faults = FaultPlan::seeded(7).from_instant(&crash_site(0), t + Ns(1));
    let mut failed_over = false;
    for round in 0..12u64 {
        let now = t + Ns(round * interval.0);
        for m in sup.tick(&faults, now) {
            assert_eq!(m, 0);
            let report = sup.fail_over(&mut log, m, now).expect("failover");
            assert!(report.repaired_positions > 0, "replicas must be repaired");
            failed_over = true;
        }
    }
    assert!(failed_over, "the crash must be detected within 12 rounds");
    assert!(sup.is_suspected(0));
    assert_eq!(sup.epoch(), old_epoch + 1);

    // Fence 1 — the RPC layer: the zombie's requests carry the sealed
    // epoch and are refused before touching any state.
    let r = cluster.serve_fenced(&sup, old_epoch, 42, KvOp::Put { key: 42, value: 1 }, t);
    assert!(
        matches!(r, Err(ClusterError::StaleEpoch { need, .. }) if need == old_epoch + 1),
        "zombie RPC must be fenced: {r:?}"
    );

    // Fence 2 — the storage layer: a late write straight to a survivor's
    // log unit with the zombie's epoch bounces off the seal.
    let w = log.unit_mut(1).write(old_epoch, 1_000, b"late", t);
    assert!(
        matches!(w, Err(CorfuError::SealedEpoch { .. })),
        "zombie log write must be fenced: {w:?}"
    );

    // A refreshed client at the new epoch is served normally.
    cluster
        .serve_fenced(&sup, old_epoch + 1, 42, KvOp::Put { key: 42, value: 1 }, t)
        .expect("current-epoch client must be served");
    log.append(b"post-failover", t)
        .expect("the log must stay available after failover");
}
