//! Multi-tenant slot execution and the predictability property.
//!
//! Paper §2 (FPGA strength 3): "once an associated bitstream has been sent
//! to the FPGA, the circuit runs a certain clock frequency without any
//! outside interference, thus delivering energy efficient and predictable
//! performance"; §4 Q4 asks how multi-tenant Hyperion should be managed.
//!
//! [`run_with_co_tenants`] drives a resident tenant's pipeline with a steady
//! request stream while other tenants arrive and reconfigure into other
//! slots; because reconfiguration only occupies the ICAP (not the resident
//! slot's clock or datapath), the resident latency distribution must not
//! move — which experiment E8 verifies against a shared-CPU baseline where
//! co-tenants do perturb each other.

use hyperion_sim::stats::Histogram;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{At, Recorder};

use crate::control::{ControlError, ControlPlane, ControlRequest};
use crate::dpu::HyperionDpu;
use crate::services::{KvOp, LogOp, ServiceError, ServiceOp, ServiceResponse, TreeOp};
use bytes::Bytes;

/// Outcome of a tenancy run.
#[derive(Debug, Clone)]
pub struct TenancyReport {
    /// Resident tenant per-item latency distribution.
    pub resident_latency: Histogram,
    /// Number of co-tenant reconfigurations that happened mid-run.
    pub reconfigurations: u64,
    /// End of the run.
    pub end: Ns,
}

/// Drives `items` requests through the resident kernel in slot 0 at the
/// given inter-arrival period, while deploying `co_tenants` other kernels
/// into free slots mid-run.
pub fn run_with_co_tenants(
    dpu: &mut HyperionDpu,
    cp: &mut ControlPlane,
    items: u64,
    period: Ns,
    co_tenants: usize,
    start: Ns,
) -> Result<TenancyReport, ControlError> {
    // Deploy the resident tenant first.
    let resp = cp.handle(
        dpu,
        ControlRequest::Deploy {
            name: "resident".into(),
            source: "ldxw r0, [r1+0]\nexit".into(),
            ctx_min_len: 64,
        },
        start,
    )?;
    let crate::control::ControlResponse::Deployed { slot, live_at } = resp else {
        unreachable!("deploy returns Deployed");
    };

    let mut latency = Histogram::new();
    let mut reconfigurations = 0u64;
    let mut now = live_at;
    let co_tenant_at = items / 2; // co-tenants arrive mid-run
    for i in 0..items {
        if i == co_tenant_at {
            for c in 0..co_tenants {
                cp.handle(
                    dpu,
                    ControlRequest::Deploy {
                        name: format!("tenant-{c}"),
                        source: "mov r0, 0\nexit".into(),
                        ctx_min_len: 0,
                    },
                    now,
                )?;
                reconfigurations += 1;
            }
        }
        let kernel = cp.kernel_mut(slot).expect("resident kernel deployed");
        let mut packet = [0u8; 64];
        let (_, done) = kernel
            .pipeline
            .process(&mut kernel.vm, &mut packet, now)
            .expect("verified kernel cannot fault");
        latency.record_ns(done - now);
        now += period;
    }
    Ok(TenancyReport {
        resident_latency: latency,
        reconfigurations,
        end: now,
    })
}

/// One tenant's latency digest for one [`ServiceOp`] group — the row a
/// fleet operator's SLO dashboard would show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloDigest {
    /// Tenant index.
    pub tenant: u32,
    /// Op-group label ([`ServiceOp::group`]): `kv`, `tree`, `log`, ….
    pub group: &'static str,
    /// Operations observed.
    pub count: u64,
    /// Median latency (ns).
    pub p50: u64,
    /// 99th-percentile latency (ns).
    pub p99: u64,
    /// 99.9th-percentile latency (ns).
    pub p999: u64,
    /// Worst observed latency (ns).
    pub max: u64,
}

/// Per-tenant, per-op-group latency accounting (paper §4 Q4: operating a
/// multi-tenant Hyperion like a server means per-tenant SLOs, not one
/// device-wide histogram).
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    cells: Vec<(u32, &'static str, Histogram)>,
}

impl SloTracker {
    /// Creates an empty tracker.
    pub fn new() -> SloTracker {
        SloTracker::default()
    }

    /// Records one operation's end-to-end latency for `(tenant, group)`.
    pub fn observe(&mut self, tenant: u32, group: &'static str, latency: Ns) {
        if let Some(c) = self
            .cells
            .iter_mut()
            .find(|(t, g, _)| *t == tenant && *g == group)
        {
            c.2.record_ns(latency);
            return;
        }
        let mut h = Histogram::new();
        h.record_ns(latency);
        self.cells.push((tenant, group, h));
    }

    /// The underlying histogram for one `(tenant, group)` cell.
    pub fn histogram(&self, tenant: u32, group: &'static str) -> Option<&Histogram> {
        self.cells
            .iter()
            .find(|(t, g, _)| *t == tenant && *g == group)
            .map(|(_, _, h)| h)
    }

    /// Digest rows, sorted by `(tenant, group)` — deterministic output
    /// for reports and dumps.
    pub fn digest(&self) -> Vec<SloDigest> {
        let mut rows: Vec<SloDigest> = self
            .cells
            .iter()
            .map(|(tenant, group, h)| SloDigest {
                tenant: *tenant,
                group,
                count: h.count(),
                p50: h.percentile(50.0),
                p99: h.percentile(99.0),
                p999: h.percentile(99.9),
                max: h.max(),
            })
            .collect();
        rows.sort_by_key(|r| (r.tenant, r.group));
        rows
    }
}

/// Bytes appended per log entry in the tenant mix.
const MIX_LOG_ENTRY: usize = 64;

/// Drives a deterministic multi-tenant service mix through one DPU and
/// returns the per-tenant SLO digests plus the completion instant.
///
/// Tenants round-robin on the shared device (so they contend for the same
/// LSM, tree, and log — the interference an operator's SLO dashboard
/// exists to catch), and each tenant has a personality by index: KV-heavy
/// (`t % 3 == 0`), tree-heavy (`t % 3 == 1`), log-heavy (`t % 3 == 2`).
/// Every op is dispatched with `rec` attached, so `rec` accumulates
/// the same spans/hops a production flight recorder would.
pub fn run_tenant_mix(
    dpu: &mut HyperionDpu,
    tenants: u32,
    requests_per_tenant: u64,
    start: Ns,
    rec: &mut Recorder,
) -> Result<(SloTracker, Ns), ServiceError> {
    assert!(tenants > 0, "need at least one tenant");
    let mut slo = SloTracker::new();
    let mut log_tail: Vec<Option<u64>> = vec![None; tenants as usize];
    let mut now = start;
    for i in 0..requests_per_tenant {
        for t in 0..tenants {
            let k = i * tenants as u64 + t as u64;
            let op: ServiceOp = match t % 3 {
                0 => {
                    // KV on the KV-SSD namespace: every op pays real
                    // device time (memtable hits would be free).
                    if i % 2 == 0 {
                        KvOp::SsdPut {
                            key: k.to_le_bytes().to_vec(),
                            value: Bytes::from(vec![t as u8; 128]),
                        }
                        .into()
                    } else {
                        // Read back this tenant's previous put.
                        KvOp::SsdGet {
                            key: (k - tenants as u64).to_le_bytes().to_vec(),
                        }
                        .into()
                    }
                }
                1 => {
                    if i % 2 == 0 {
                        TreeOp::Insert {
                            key: k,
                            value: k * 7,
                        }
                        .into()
                    } else {
                        TreeOp::Lookup {
                            key: k - tenants as u64,
                        }
                        .into()
                    }
                }
                _ => match (i % 2, log_tail[t as usize]) {
                    (1, Some(position)) => LogOp::Read { position }.into(),
                    _ => LogOp::Append {
                        data: Bytes::from(vec![t as u8; MIX_LOG_ENTRY]),
                    }
                    .into(),
                },
            };
            let group = op.group();
            let (resp, done) = dpu.dispatch(At::new(now, Some(rec)), op)?;
            if let ServiceResponse::Appended { position } = resp {
                log_tail[t as usize] = Some(position);
            }
            slo.observe(t, group, done.saturating_sub(now));
            now = done;
        }
    }
    Ok((slo, now))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: u64 = 0xC0FFEE;

    #[test]
    fn resident_tail_is_flat_under_co_tenant_churn() {
        let mut dpu = crate::dpu::DpuBuilder::new().auth_key(KEY).build();
        let t = dpu.boot(Ns::ZERO).unwrap();
        let mut cp = ControlPlane::new(KEY);
        let alone = run_with_co_tenants(&mut dpu, &mut cp, 2_000, Ns(1_000), 0, t).unwrap();

        let mut dpu2 = crate::dpu::DpuBuilder::new().auth_key(KEY).build();
        let t2 = dpu2.boot(Ns::ZERO).unwrap();
        let mut cp2 = ControlPlane::new(KEY);
        let crowded = run_with_co_tenants(&mut dpu2, &mut cp2, 2_000, Ns(1_000), 3, t2).unwrap();

        assert_eq!(crowded.reconfigurations, 3);
        // The paper's predictability claim: identical latency distribution
        // with and without co-tenant reconfiguration churn.
        assert_eq!(
            alone.resident_latency.percentile(99.9),
            crowded.resident_latency.percentile(99.9),
            "resident p99.9 must not move"
        );
        assert_eq!(alone.resident_latency.max(), crowded.resident_latency.max());
    }

    #[test]
    fn slo_tracker_digests_sorted_per_tenant_group() {
        let mut s = SloTracker::new();
        s.observe(1, "tree", Ns(500));
        s.observe(0, "kv", Ns(100));
        s.observe(0, "kv", Ns(300));
        s.observe(0, "log", Ns(200));
        let d = s.digest();
        let keys: Vec<(u32, &str)> = d.iter().map(|r| (r.tenant, r.group)).collect();
        assert_eq!(keys, vec![(0, "kv"), (0, "log"), (1, "tree")]);
        assert_eq!(d[0].count, 2);
        assert!(d[0].p50 <= d[0].p99 && d[0].p99 <= d[0].p999);
        assert_eq!(d[0].max, 300);
    }

    #[test]
    fn tenant_mix_is_deterministic_and_covers_all_groups() {
        let run = || {
            let mut dpu = crate::dpu::DpuBuilder::new().auth_key(KEY).build();
            let t = dpu.boot(Ns::ZERO).unwrap();
            let mut rec = Recorder::new("slo");
            let (slo, end) = run_tenant_mix(&mut dpu, 3, 40, t, &mut rec).unwrap();
            assert_eq!(rec.open_spans(), 0);
            (slo.digest(), end)
        };
        let (a, end_a) = run();
        let (b, end_b) = run();
        assert_eq!(a, b, "same seed, same digests");
        assert_eq!(end_a, end_b);
        let groups: Vec<(u32, &str)> = a.iter().map(|r| (r.tenant, r.group)).collect();
        assert_eq!(groups, vec![(0, "kv"), (1, "tree"), (2, "log")]);
        for row in &a {
            assert_eq!(row.count, 40, "{}: every request observed", row.group);
            // Memtable hits can be free (0 ns); the percentiles must
            // still be ordered and bounded by the observed max.
            assert!(row.p50 <= row.p99 && row.p99 <= row.p999 && row.p999 <= row.max);
        }
        // Storage-backed groups pay real latency.
        assert!(a.iter().any(|r| r.p999 > 0));
    }
}
