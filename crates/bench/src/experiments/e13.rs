//! E13 — Tail latency under injected faults: NVMe-oF reads over a lossy
//! fabric with the self-healing datapath turned on.
//!
//! The fault-free experiments (E1–E12) answer "how fast is the CPU-free
//! datapath"; this one answers "what does it cost to keep working when
//! the substrate misbehaves". A seeded [`FaultPlan`] injects packet loss,
//! corruption, a link-flap window, and NVMe media errors; recovery is the
//! stack's own (initiator command retry with capped backoff, device
//! read-retry + grown-bad-block remap). Everything is deterministic per
//! seed, so the tables reproduce byte-for-byte.
//!
//! E13 is *excluded* from the default `report` selection, which is the
//! no-fault datapath; fault-profile tails must not mix into it. Select it
//! explicitly (`report e13`, `report --json e13`); its own golden file
//! pins it.

use bytes::Bytes;
use hyperion::nvmeof::{FabricStatus, Initiator, NvmeOfTarget};
use hyperion_net::transport::{Endpoint, EndpointKind, RetryPolicy, Transport, TransportKind};
use hyperion_net::{NetError, Network, FAULT_NET_CORRUPT, FAULT_NET_DROP, FAULT_NET_FLAP};
use hyperion_nvme::{FAULT_NVME_LATENCY_SPIKE, FAULT_NVME_MEDIA_READ};
use hyperion_sim::fault::FaultPlan;
use hyperion_sim::time::Ns;
use hyperion_telemetry::Recorder;

use super::percentile;
use crate::table::{fmt_ns, Table};

/// Fault-plan seed; every profile derives its streams from this.
const SEED: u64 = 0xFA_17;

/// Reads per profile (closed loop: next read issues when the previous
/// response lands).
const READS: u64 = 300;

/// LBA span the reads stride over.
const SPAN: u64 = 256;

/// One fault profile: what the plan injects on the wire and the media.
struct Profile {
    name: &'static str,
    net: fn() -> FaultPlan,
    media: fn() -> FaultPlan,
}

const PROFILES: [Profile; 4] = [
    Profile {
        name: "no faults",
        net: FaultPlan::none,
        media: FaultPlan::none,
    },
    Profile {
        name: "drop 2%",
        net: || FaultPlan::seeded(SEED).bernoulli(FAULT_NET_DROP, 0.02),
        media: FaultPlan::none,
    },
    Profile {
        name: "drop 10% + corrupt 5%",
        net: || {
            FaultPlan::seeded(SEED)
                .bernoulli(FAULT_NET_DROP, 0.10)
                .bernoulli(FAULT_NET_CORRUPT, 0.05)
        },
        media: FaultPlan::none,
    },
    Profile {
        name: "flap + media errors",
        net: || {
            FaultPlan::seeded(SEED)
                .bernoulli(FAULT_NET_DROP, 0.02)
                .window(FAULT_NET_FLAP, Ns(20_000_000), Ns(21_000_000))
        },
        media: || {
            FaultPlan::seeded(SEED)
                .bernoulli(FAULT_NVME_MEDIA_READ, 0.01)
                .bernoulli(FAULT_NVME_LATENCY_SPIKE, 0.02)
        },
    },
];

struct ProfileOutcome {
    latencies: Vec<u64>,
    retries: u64,
    gave_up: u64,
    media_status: u64,
    remapped: usize,
}

fn run_profile(p: &Profile, mut rec: Option<&mut Recorder>) -> ProfileOutcome {
    let mut net = Network::new();
    let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
    let dpu = Endpoint::new(net.add_node(), EndpointKind::Hardware);
    let tr = Transport::new(TransportKind::Udp);
    let mut target = NvmeOfTarget::new(1 << 16);
    let mut ini = Initiator::new();
    let policy = RetryPolicy {
        max_attempts: 8,
        ..RetryPolicy::DEFAULT
    };

    // Seed the LBA span fault-free, then arm the plans.
    let mut now = Ns::ZERO;
    for lba in 0..SPAN {
        let w = ini.write(lba, Bytes::from(vec![lba as u8; 4096]));
        let (_, x) = ini
            .exchange(&mut net, &tr, client, dpu, &mut target, w, now, &policy)
            .expect("fault-free seeding");
        now = x.done;
    }
    net.set_fault_plan((p.net)());
    target.set_fault_plan((p.media)());

    let mut out = ProfileOutcome {
        latencies: Vec::with_capacity(READS as usize),
        retries: 0,
        gave_up: 0,
        media_status: 0,
        remapped: 0,
    };
    for i in 0..READS {
        let capsule = ini.read((i * 17) % SPAN, 1);
        let result = ini.exchange_traced(
            &mut net,
            &tr,
            client,
            dpu,
            &mut target,
            capsule,
            now,
            &policy,
            rec.as_deref_mut(),
        );
        match result {
            Ok((resp, x)) => {
                out.latencies.push((x.done - now).0);
                out.retries += (x.attempts - 1) as u64;
                if resp.status == FabricStatus::MediaError {
                    out.media_status += 1;
                }
                now = x.done;
            }
            Err(NetError::Exhausted { attempts }) => {
                // A bounded give-up: the initiator spent its whole retry
                // budget. Charge the worst-case wait and move on — the
                // datapath survives.
                out.gave_up += 1;
                out.retries += (attempts - 1) as u64;
                let mut worst = policy.timeout * attempts as u64;
                for a in 0..attempts {
                    worst += policy.backoff(a);
                }
                now += worst;
            }
            Err(e) => panic!("unexpected fatal fabric error: {e}"),
        }
    }
    out.remapped = target.device().remapped_lbas();
    out
}

/// Runs E13: the tail-latency table across fault profiles.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E13: NVMe-oF read tail latency under injected faults (UDP, retry budget 8)",
        &[
            "profile", "reads", "p50", "p99", "max", "retries", "gave up", "remapped",
        ],
    );
    for p in &PROFILES {
        let o = run_profile(p, None);
        let mut sorted = o.latencies.clone();
        sorted.sort_unstable();
        t.row(vec![
            p.name.into(),
            o.latencies.len().to_string(),
            fmt_ns(percentile(&sorted, 50.0)),
            fmt_ns(percentile(&sorted, 99.0)),
            fmt_ns(sorted.last().copied().unwrap_or(0)),
            o.retries.to_string(),
            o.gave_up.to_string(),
            o.remapped.to_string(),
        ]);
    }
    vec![t]
}

/// Telemetry run: the heaviest profile with every exchange traced, so the
/// breakdown shows retry waits as queueing edges and the fault/recovery
/// counters (`nvmeof:*`) alongside the device's self-healing counters
/// (`nvme:*`).
pub fn telemetry() -> Recorder {
    let mut rec = Recorder::new("E13: NVMe-oF reads under faults (flap + media profile)");
    let profile = &PROFILES[3];
    let o = run_profile(profile, Some(&mut rec));
    // Surface the device's self-healing bookkeeping next to the fabric
    // counters; the device is dropped inside run_profile, so export the
    // aggregate the experiment kept.
    rec.count("nvme:remapped_lbas", o.remapped as u64);
    rec
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
    fn clean_profile_never_retries_and_faulty_profiles_recover() {
        let t = table();
        // Row 0: no faults — no retries, no give-ups, no remaps.
        assert_eq!(t.rows[0][5], "0");
        assert_eq!(t.rows[0][6], "0");
        assert_eq!(t.rows[0][7], "0");
        // Lossy profiles retry but the bounded budget absorbs the loss.
        assert!(t.cell(1, 5).u64() > 0, "2% loss must force retries");
        assert!(t.cell(2, 5).u64() > t.cell(1, 5).u64());
        assert_eq!(t.rows[1][6], "0", "2% loss must not exhaust the budget");
        // The media profile grows bad blocks and remaps them.
        assert!(t.cell(3, 7).u64() > 0, "media faults must remap");
        // Every profile completes all reads.
        for i in 0..4 {
            assert_eq!(t.cell(i, 1).u64(), READS);
        }
    }

    #[test]
    fn faults_show_up_in_the_tail_not_just_the_mean() {
        let t = table();
        let p99 = |i: usize| t.cell(i, 3).ns();
        assert!(
            p99(2) > p99(0),
            "10% loss must stretch p99: {} vs {}",
            p99(2),
            p99(0)
        );
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
    fn telemetry_shows_recovery_work_honestly() {
        let rec = telemetry();
        assert!(rec.counter("nvmeof:retries") > 0, "profile must retry");
        assert_eq!(rec.open_spans(), 0);
        // Retry waits surface as queueing edges for the critical path.
        assert!(!rec.queue_edges().is_empty());
        assert!(rec.counter("nvme:remapped_lbas") > 0);
    }
}
