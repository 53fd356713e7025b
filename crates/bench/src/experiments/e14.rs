//! E14 — Cluster availability: kill one DPU mid-workload and measure the
//! outage.
//!
//! E13 injects faults *under* one DPU (lossy fabric, bad media); this
//! experiment kills a whole cluster member and watches the availability
//! layer react: the deterministic failure detector accrues suspicion
//! over missed heartbeats, the supervisor seals the old epoch and runs
//! the automatic CORFU failover (replica repair onto a spare), stale
//! clients and healed zombies bounce off the epoch fence, and — in the
//! overload profile — the survivors' admission control sheds the excess
//! of the re-routed traffic instead of collapsing.
//!
//! Three profiles kill member 0 fifty heartbeat intervals into the run:
//!
//! * **crash** — fail-stop, the member never returns;
//! * **partition** — a finite network partition; the member heals after
//!   60 ms but is a zombie by then (suspicion latches) and every request
//!   it sends carries a sealed epoch;
//! * **crash + overload** — the same fail-stop under 3x the request
//!   rate, with two-watermark admission control armed on every member.
//!
//! The table reports the unavailability window (failure instant →
//! repair drained), failed/shed/retried/fenced request counts, and the
//! client-observed p99 before, during, and after the failover. Like
//! E13, E14 is *excluded* from the default `report` selection, which is
//! the fault-free datapath. Select it explicitly (`report e14`,
//! `report --json e14`); its own golden file pins it.

use bytes::Bytes;
use hyperion::{
    crash_site, Admission, AdmissionConfig, ClusterError, ClusterSupervisor, DpuCluster, KvOp,
    ServiceError,
};
use hyperion_net::{partition_site, NodeId};
use hyperion_sim::fault::FaultPlan;
use hyperion_sim::time::Ns;
use hyperion_storage::corfu::CorfuLog;
use hyperion_telemetry::Recorder;

use super::percentile;
use crate::table::{fmt_ns, Table};

/// Fault-plan seed (the availability path performs zero draws; the seed
/// only names the streams).
const SEED: u64 = 0xE14;

/// Cluster size.
const MEMBERS: usize = 3;

/// The member every profile kills.
const VICTIM: usize = 0;

/// Heartbeat period the supervisor runs at.
const INTERVAL: Ns = Ns(1_000_000);

/// Heartbeat rounds the workload spans (150 ms).
const ROUNDS: u64 = 150;

/// The victim dies this long after the workload starts (round 50).
const FAIL_AFTER: Ns = Ns(50 * INTERVAL.0);

/// The partition profile heals this long after the start (round 110).
const HEAL_AFTER: Ns = Ns(110 * INTERVAL.0);

/// Client-side RPC timeout: what a request to a dead-but-not-yet-
/// suspected member costs before the client gives up on it.
const RPC_TIMEOUT: Ns = Ns(2_000_000);

/// One availability profile: how the victim dies and how hard the
/// clients push.
struct Profile {
    name: &'static str,
    /// Requests issued at each round boundary (an open-loop burst).
    reqs_per_round: u64,
    /// The fault plan, anchored at the workload start instant.
    faults: fn(Ns) -> FaultPlan,
    /// Admission control armed on every member (overload profile only).
    admission: Option<AdmissionConfig>,
}

const PROFILES: [Profile; 3] = [
    Profile {
        name: "crash (fail-stop)",
        reqs_per_round: 4,
        faults: |start| {
            FaultPlan::seeded(SEED).from_instant(&crash_site(VICTIM), start + FAIL_AFTER)
        },
        admission: None,
    },
    Profile {
        name: "partition 50-110ms",
        reqs_per_round: 4,
        faults: |start| {
            FaultPlan::seeded(SEED).window(
                &partition_site(NodeId(VICTIM)),
                start + FAIL_AFTER,
                start + HEAL_AFTER,
            )
        },
        admission: None,
    },
    Profile {
        name: "crash + overload (3x load)",
        reqs_per_round: 12,
        faults: |start| {
            FaultPlan::seeded(SEED).from_instant(&crash_site(VICTIM), start + FAIL_AFTER)
        },
        // Tight enough that one survivor absorbing the victim's share of
        // a 12-request burst crosses the high watermark.
        admission: Some(AdmissionConfig {
            max_inflight: 8,
            high_watermark: 6,
            low_watermark: 3,
        }),
    },
];

#[derive(Default)]
struct Outcome {
    requests: u64,
    failed: u64,
    shed: u64,
    shed_before_failure: u64,
    retried: u64,
    fenced: u64,
    repaired: u64,
    /// Failure instant → repair traffic drained.
    unavail: Ns,
    /// Client-observed latencies by phase (served + timed-out requests;
    /// shed requests are refusals, not service, and are counted above).
    pre: Vec<u64>,
    during: Vec<u64>,
    post: Vec<u64>,
}

impl Outcome {
    fn sample(&mut self, issued: Ns, latency: Ns, fail_at: Ns, recovered_at: Option<Ns>) {
        let bucket = if issued < fail_at {
            &mut self.pre
        } else if recovered_at.is_none_or(|r| issued < r) {
            &mut self.during
        } else {
            &mut self.post
        };
        bucket.push(latency.0);
    }
}

fn run_profile(p: &Profile, mut rec: Option<&mut Recorder>) -> Outcome {
    let (mut cluster, ready) = DpuCluster::boot(MEMBERS, SEED, Ns::ZERO);
    if let Some(cfg) = p.admission {
        for m in 0..MEMBERS {
            cluster.dpu_mut(m).admission = Some(Admission::new(cfg));
        }
    }
    let nodes: Vec<NodeId> = (0..MEMBERS).map(NodeId).collect();
    let mut sup = ClusterSupervisor::new(nodes.clone(), INTERVAL, hyperion::DEFAULT_PHI_THRESHOLD);
    // The cluster-wide shared log the victim holds a replica of: chain
    // replication 2 over one unit per member, plus one cold spare for
    // the failover to promote.
    let mut log = CorfuLog::new_replicated(MEMBERS, 1 << 14, 2);
    log.add_spare_unit(1 << 14);

    let start = ready;
    let faults = (p.faults)(start);
    let fail_at = start + FAIL_AFTER;
    let mut client_epoch = 0u64;
    let mut recovered_at: Option<Ns> = None;
    let mut out = Outcome::default();

    for round in 0..ROUNDS {
        let now = start + Ns(round * INTERVAL.0);

        // Supervision first: a newly suspected member triggers the
        // automatic failover before this round's traffic is routed.
        for m in sup.tick(&faults, now, rec.as_deref_mut()) {
            let report = sup
                .fail_over(&mut log, m, now, rec.as_deref_mut())
                .expect("failover with a spare must succeed");
            out.repaired += report.repaired_positions;
            recovered_at = Some(recovered_at.map_or(report.done, |r| r.max(report.done)));
            out.unavail = report.done.saturating_sub(fail_at);
        }

        let down = faults.active(&crash_site(VICTIM), now)
            || faults.active(&partition_site(nodes[VICTIM]), now);

        // One shared-log append per round. While the victim is dead but
        // not yet suspected its replica chain hangs the append: the
        // client eats a timeout (the unavailability the detector exists
        // to bound).
        if down && !sup.is_suspected(VICTIM) {
            out.failed += 1;
            out.sample(now, RPC_TIMEOUT, fail_at, recovered_at);
        } else {
            log.append(&round.to_le_bytes(), now).expect("append");
        }

        // The zombie path: a healed-but-excluded victim retries its
        // backlog with the epoch it last saw. Every attempt must bounce
        // off the fence — this is the invariant that makes failover safe.
        if !down && sup.is_suspected(VICTIM) {
            match cluster.serve_fenced(&sup, 0, round, KvOp::Get { key: round }, now) {
                Err(ClusterError::StaleEpoch { .. }) => out.fenced += 1,
                other => panic!("zombie must be fenced, got {other:?}"),
            }
        }

        // The round's request burst (open loop: all arrive at the round
        // boundary, so flash-backed work overlaps and admission sees
        // real queue depth).
        for i in 0..p.reqs_per_round {
            let key = round * p.reqs_per_round + i;
            out.requests += 1;
            let req = KvOp::SsdPut {
                key: key.to_le_bytes().to_vec(),
                value: Bytes::from_static(&[7u8; 64]),
            };
            if cluster.owner_of(key) == VICTIM && down && !sup.is_suspected(VICTIM) {
                // Dead owner, detector still accruing: the request times
                // out. This window is the unavailability being measured.
                out.failed += 1;
                out.sample(now, RPC_TIMEOUT, fail_at, recovered_at);
                continue;
            }
            let mut epoch = client_epoch;
            loop {
                match cluster.serve_fenced(&sup, epoch, key, req.clone(), now) {
                    Ok((_, _, done)) => {
                        out.sample(now, done.saturating_sub(now), fail_at, recovered_at);
                    }
                    Err(ClusterError::StaleEpoch { need, .. }) => {
                        // The cluster reconfigured under this client:
                        // refresh the view and retry the same request.
                        client_epoch = need;
                        epoch = need;
                        out.retried += 1;
                        continue;
                    }
                    Err(ClusterError::Suspected { member }) => {
                        // Typed refusal instead of a hang: re-route to
                        // the first live member.
                        out.retried += 1;
                        let survivor = (0..MEMBERS)
                            .find(|&m| m != member && !sup.is_suspected(m))
                            .expect("a survivor exists");
                        match cluster.serve_fenced_on(&sup, epoch, survivor, req.clone(), now) {
                            Ok((_, done)) => {
                                out.sample(now, done.saturating_sub(now), fail_at, recovered_at);
                            }
                            Err(ClusterError::Service(ServiceError::Overloaded { .. })) => {
                                out.shed += 1;
                                if now < fail_at {
                                    out.shed_before_failure += 1;
                                }
                            }
                            Err(e) => panic!("re-route failed: {e}"),
                        }
                    }
                    Err(ClusterError::Service(ServiceError::Overloaded { .. })) => {
                        // Fail-fast refusal: the client backs off; no
                        // latency sample because nothing was served.
                        out.shed += 1;
                        if now < fail_at {
                            out.shed_before_failure += 1;
                        }
                    }
                    Err(e) => panic!("unexpected cluster error: {e}"),
                }
                break;
            }
        }
    }
    out
}

fn p99(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 99.0)
}

/// Runs E14: the availability table across failure profiles.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E14: cluster availability — one member killed at t+50ms (3 DPUs, CORFU r=2 + spare)",
        &[
            "profile", "reqs", "failed", "shed", "retried", "fenced", "repaired", "unavail",
            "p99 pre", "p99 fail", "p99 post",
        ],
    );
    for p in &PROFILES {
        let o = run_profile(p, None);
        t.row(vec![
            p.name.into(),
            o.requests.to_string(),
            o.failed.to_string(),
            o.shed.to_string(),
            o.retried.to_string(),
            o.fenced.to_string(),
            o.repaired.to_string(),
            fmt_ns(o.unavail.0),
            fmt_ns(p99(&o.pre)),
            fmt_ns(p99(&o.during)),
            fmt_ns(p99(&o.post)),
        ]);
    }
    vec![t]
}

/// Telemetry run: the crash+overload profile with the supervisor
/// recording — suspicion and epoch-bump counters, repaired positions,
/// and the repair span whose whole extent is a queue edge (the
/// critical path charges failover as waiting, not service).
pub fn telemetry() -> Recorder {
    let mut rec = Recorder::new("E14: cluster failover (crash + overload profile)");
    let o = run_profile(&PROFILES[2], Some(&mut rec));
    rec.count("cluster:failed_requests", o.failed);
    rec.count("cluster:shed_requests", o.shed);
    rec.count("cluster:retried_requests", o.retried);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn outcomes() -> &'static [Outcome; 3] {
        static O: OnceLock<[Outcome; 3]> = OnceLock::new();
        O.get_or_init(|| {
            [
                run_profile(&PROFILES[0], None),
                run_profile(&PROFILES[1], None),
                run_profile(&PROFILES[2], None),
            ]
        })
    }

    #[test]
    fn crash_is_detected_fenced_and_repaired() {
        let o = &outcomes()[0];
        assert!(o.failed > 0, "the detection window must cost something");
        assert!(o.retried > 0, "stale epoch + re-routes must force retries");
        assert!(o.repaired > 0, "the victim's replicas must be rebuilt");
        // Detection takes a few heartbeat intervals; the repair drain
        // (rewriting the victim's flash-backed replicas) dominates the
        // window. Bounded well inside the run either way.
        assert!(o.unavail > Ns(2 * INTERVAL.0));
        assert!(
            o.unavail <= Ns(40 * INTERVAL.0),
            "unavailability {} exceeds 40 intervals",
            o.unavail
        );
        // Every request is accounted for: served, failed, or shed.
        let sampled = (o.pre.len() + o.during.len() + o.post.len()) as u64;
        // Log appends add their own failed samples on top of `requests`.
        assert!(sampled + o.shed >= o.requests);
    }

    #[test]
    fn outage_shows_up_in_the_during_phase_p99() {
        let o = &outcomes()[0];
        let (pre, during, post) = (p99(&o.pre), p99(&o.during), p99(&o.post));
        assert!(
            during >= RPC_TIMEOUT.0,
            "p99 during failover must hit the client timeout: {during}"
        );
        assert!(
            during > pre * 2,
            "outage must dwarf steady-state: {during} vs {pre}"
        );
        // After failover the re-routed cluster serves at (near) its old
        // tail: within 4x of the pre-failure p99, nowhere near timeout.
        assert!(
            post < RPC_TIMEOUT.0,
            "post-failover p99 stuck at timeout: {post}"
        );
        assert!(
            post < pre * 4,
            "post-failover tail must recover: {post} vs {pre}"
        );
    }

    #[test]
    fn healed_partition_leaves_a_fenced_zombie() {
        let o = &outcomes()[1];
        assert!(
            o.fenced > 0,
            "the healed victim must bounce off the epoch fence"
        );
        // Crash profiles have no heal, so nothing to fence.
        assert_eq!(outcomes()[0].fenced, 0);
    }

    #[test]
    fn overload_profile_sheds_rerouted_excess() {
        let o = &outcomes()[2];
        assert!(o.shed > 0, "re-routed 3x load must trip the watermark");
        assert!(
            o.shed - o.shed_before_failure > o.shed_before_failure,
            "shedding must concentrate after the failure: {} total, {} before",
            o.shed,
            o.shed_before_failure
        );
        // Shedding keeps the served tail bounded even at 3x load on a
        // 2/3-capacity cluster.
        assert!(p99(&o.post) < RPC_TIMEOUT.0);
    }

    #[test]
    fn experiment_is_deterministic() {
        // Same seed, same plan: byte-identical tables and telemetry dumps.
        let a = format!("{}", run().remove(0));
        let b = format!("{}", run().remove(0));
        assert_eq!(a, b);
        let ja = hyperion_telemetry::json::to_json(&telemetry());
        let jb = hyperion_telemetry::json::to_json(&telemetry());
        assert_eq!(ja, jb);
    }

    #[test]
    fn telemetry_records_the_failover_honestly() {
        let rec = telemetry();
        assert_eq!(rec.counter("cluster:suspicions"), 1);
        assert_eq!(rec.counter("cluster:epoch_bumps"), 1);
        assert!(rec.counter("corfu:repaired_positions") > 0);
        assert!(rec.counter("cluster:shed_requests") > 0);
        assert_eq!(rec.open_spans(), 0);
        let repair: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "cluster:repair")
            .collect();
        assert_eq!(repair.len(), 1, "exactly one repair span");
        // The repair's whole extent is queue-wait on the critical path.
        assert!(!rec.queue_edges().is_empty());
    }
}
