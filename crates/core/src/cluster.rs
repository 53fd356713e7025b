//! Multi-DPU deployments: distributed CPU-free applications.
//!
//! Paper §2.4 (C1) contemplates "mixed distributed workloads where a mix
//! of CPU servers and CPU-free Hyperion DPUs run in a distributed
//! network", and §4 Q3 asks what client interface builds "composable
//! service ecosystems of such standalone, passively disaggregated DPUs".
//! This module implements the two patterns the paper cites:
//!
//! * **client-driven request routing** (MICA, ref 111): the client holds the
//!   partition map and sends each request straight to the owning DPU —
//!   shared-nothing, no coordinator on the data path;
//! * a **cluster-wide shared log** (CORFU over network-attached SSDs,
//!   refs 20 and 165): a [`CorfuLog`] with one write-once log unit per DPU,
//!   striped by position, sealed collectively on reconfiguration.
//!
//! On top of those sits the **cluster availability layer** (§2.4/§4: a
//! CPU-free device that dies has no host to notice, fence, or replace
//! it): [`FailureDetector`] turns virtual-clock heartbeats into
//! phi-accrual-style suspicion, and [`ClusterSupervisor`] reacts —
//! sealing the old epoch, fencing stragglers with typed
//! [`ClusterError::StaleEpoch`] rejections, and driving automatic CORFU
//! failover with replica repair onto a spare. Failures enter the model
//! only through `sim::fault` sites ([`FAULT_NODE_CRASH`] and
//! `node:partition`, see [`hyperion_net::partition_site`]); an empty
//! plan performs zero draws and leaves the baseline bit-identical.

use hyperion_net::rpc::RPC_FRAMING;
use hyperion_net::transport::{Delivery, Endpoint, Transport};
use hyperion_net::{NetError, Network, NodeId};
use hyperion_sim::fault::FaultPlan;
use hyperion_sim::time::Ns;
use hyperion_storage::corfu::{CorfuError, CorfuLog, FailoverReport};
use hyperion_telemetry::{At, Component};

use crate::dpu::{DpuBuilder, HyperionDpu};
use crate::services::{ServiceError, ServiceOp, ServiceResponse};

/// Fault site *family*: `node:crash:<member>` — a scheduled window (use
/// [`hyperion_sim::fault::FaultPlan::from_instant`] for fail-stop)
/// during which cluster member `<member>` is dead: it sends no
/// heartbeats and serves nothing. Build concrete names with
/// [`crash_site`].
pub const FAULT_NODE_CRASH: &str = "node:crash";

/// The concrete fault-site name crashing cluster member `member` (see
/// [`FAULT_NODE_CRASH`]).
pub fn crash_site(member: usize) -> String {
    format!("{FAULT_NODE_CRASH}:{member}")
}

/// A shared-nothing cluster of DPUs with client-side partitioning.
#[derive(Debug)]
pub struct DpuCluster {
    dpus: Vec<HyperionDpu>,
}

/// Cluster errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClusterError {
    /// A member DPU failed the request.
    Service(ServiceError),
    /// Network failure.
    Net(NetError),
    /// Log failure.
    Log(CorfuError),
    /// The request carried an epoch the cluster has sealed: the sender is
    /// a zombie (it missed a reconfiguration) and must refresh its view
    /// before anything it says can be accepted.
    StaleEpoch {
        /// The epoch the request carried.
        have: u64,
        /// The cluster's current epoch.
        need: u64,
    },
    /// The request routed to a member the failure detector suspects;
    /// the client should re-route to a survivor.
    Suspected {
        /// The suspected member.
        member: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Service(e) => write!(f, "service: {e}"),
            ClusterError::Net(e) => write!(f, "net: {e}"),
            ClusterError::Log(e) => write!(f, "log: {e}"),
            ClusterError::StaleEpoch { have, need } => {
                write!(f, "stale epoch {have} (cluster at {need})")
            }
            ClusterError::Suspected { member } => {
                write!(f, "member {member} is suspected down")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Service(e) => Some(e),
            ClusterError::Net(e) => Some(e),
            ClusterError::Log(e) => Some(e),
            _ => None,
        }
    }
}

impl DpuCluster {
    /// Boots `n` DPUs at `now`; returns the cluster and the instant the
    /// last member is ready.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn boot(n: usize, auth_key: u64, now: Ns) -> (DpuCluster, Ns) {
        assert!(n > 0, "a cluster needs at least one DPU");
        let mut dpus = Vec::with_capacity(n);
        let mut ready = now;
        for _ in 0..n {
            let mut dpu = DpuBuilder::new().auth_key(auth_key).build();
            // Members boot in parallel (each has its own board).
            let r = dpu.boot(now).expect("boot");
            ready = ready.max(r);
            dpus.push(dpu);
        }
        (DpuCluster { dpus }, ready)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.dpus.len()
    }

    /// True if the cluster is empty (never: boot requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.dpus.is_empty()
    }

    /// The partition owner of `key` — the client-side routing function.
    /// Stable hash so every client agrees without coordination.
    pub fn owner_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.dpus.len()
    }

    /// Access a member.
    pub fn dpu_mut(&mut self, i: usize) -> &mut HyperionDpu {
        &mut self.dpus[i]
    }

    /// Dispatches `op` on the DPU owning `key` (local invocation; remote
    /// clients wrap this with [`DpuCluster::remote_call`]).
    pub fn serve_partitioned(
        &mut self,
        key: u64,
        op: impl Into<ServiceOp>,
        now: Ns,
    ) -> Result<(usize, ServiceResponse, Ns), ClusterError> {
        let owner = self.owner_of(key);
        let (resp, done) = self.dpus[owner]
            .dispatch(now, op)
            .map_err(ClusterError::Service)?;
        Ok((owner, resp, done))
    }

    /// A remote client call with client-driven routing: the request goes
    /// straight from `client` to the owning DPU's endpoint over
    /// `transport` (one hop, no proxy).
    ///
    /// `endpoints[i]` must be member `i`'s network endpoint.
    #[allow(clippy::too_many_arguments)]
    pub fn remote_call(
        &mut self,
        net: &mut Network,
        transport: Transport,
        client: Endpoint,
        endpoints: &[Endpoint],
        key: u64,
        op: impl Into<ServiceOp>,
        req_bytes: u64,
        resp_bytes: u64,
        now: Ns,
    ) -> Result<(ServiceResponse, Delivery), ClusterError> {
        let owner = self.owner_of(key);
        let server = endpoints[owner];
        // The owner serves the request when it arrives, and the reply
        // leaves when the owner is done.
        let request = transport
            .send(net, client, server, now, req_bytes + RPC_FRAMING)
            .map_err(ClusterError::Net)?;
        let (resp, served) = self.dpus[owner]
            .dispatch(request.done, op)
            .map_err(ClusterError::Service)?;
        let reply = transport
            .send(net, server, client, served, resp_bytes + RPC_FRAMING)
            .map_err(ClusterError::Net)?;
        // One round trip plus each leg's extra rounds, as
        // `Transport::request` counts them.
        let d = Delivery {
            done: reply.done,
            wire_rounds: 1 + request.wire_rounds + reply.wire_rounds,
        };
        Ok((resp, d))
    }
}

/// A deterministic phi-accrual-style failure detector for one peer.
///
/// Classic phi-accrual (Hayashibara et al.) scores the suspicion that a
/// peer is dead as a function of the time since its last heartbeat
/// against the observed inter-arrival distribution. This model keeps the
/// shape but stays integer-deterministic: the inter-arrival mean is an
/// EWMA (alpha = 1/8, integer arithmetic), and
/// `phi = elapsed / mean_interval` — "how many expected heartbeat
/// intervals of silence have passed". A peer is suspected when phi
/// crosses the configured threshold. No RNG anywhere, so detection
/// instants replay bit-for-bit.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    mean: Ns,
    last: Option<Ns>,
    threshold: f64,
}

/// Default suspicion threshold: three expected heartbeat intervals of
/// silence. Low enough to detect within a few intervals, high enough
/// that one delayed heartbeat never trips it.
pub const DEFAULT_PHI_THRESHOLD: f64 = 3.0;

impl FailureDetector {
    /// A detector expecting heartbeats every `expected_interval`,
    /// suspecting after `threshold` intervals of silence.
    pub fn new(expected_interval: Ns, threshold: f64) -> FailureDetector {
        FailureDetector {
            mean: Ns(expected_interval.0.max(1)),
            last: None,
            threshold,
        }
    }

    /// Records a heartbeat arriving at `now`.
    pub fn heartbeat(&mut self, now: Ns) {
        if let Some(last) = self.last {
            let interval = now.saturating_sub(last);
            self.mean = Ns(((self.mean.0 * 7 + interval.0) / 8).max(1));
        }
        self.last = Some(now);
    }

    /// The suspicion score at `now`: elapsed silence in units of the
    /// mean inter-arrival. Zero until the first heartbeat (a peer never
    /// heard from is booting, not dead).
    pub fn phi(&self, now: Ns) -> f64 {
        match self.last {
            Some(last) => now.saturating_sub(last).0 as f64 / self.mean.0 as f64,
            None => 0.0,
        }
    }

    /// True when the suspicion score crosses the threshold.
    pub fn suspect(&self, now: Ns) -> bool {
        self.phi(now) >= self.threshold
    }
}

/// The cluster's availability brain: per-member failure detectors, the
/// cluster epoch, and the failover trigger.
///
/// The supervisor is itself CPU-free state — in a deployment it runs
/// replicated on the DPUs (the paper's self-hosting argument); here it is
/// modeled as one deterministic state machine driven by the virtual
/// clock. Liveness enters exclusively through the fault plan: member `m`
/// is silent while its [`crash_site`] or its node's
/// [`hyperion_net::partition_site`] window is active — both pure window
/// queries, so supervision performs **zero** RNG draws and an empty plan
/// leaves every baseline bit-identical.
///
/// Suspicion **latches**: a partitioned member that later heals is a
/// zombie carrying a sealed epoch, and stays excluded until an operator
/// (or a future join protocol) re-admits it.
#[derive(Debug)]
pub struct ClusterSupervisor {
    interval: Ns,
    nodes: Vec<NodeId>,
    detectors: Vec<FailureDetector>,
    suspected: Vec<bool>,
    epoch: u64,
    suspicions: u64,
    epoch_bumps: u64,
}

impl ClusterSupervisor {
    /// Supervises the members whose network identities are `nodes`
    /// (member `m` ⇔ `nodes[m]`), expecting heartbeats every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<NodeId>, interval: Ns, threshold: f64) -> ClusterSupervisor {
        assert!(!nodes.is_empty(), "a supervisor needs at least one member");
        let n = nodes.len();
        ClusterSupervisor {
            interval,
            nodes,
            detectors: vec![FailureDetector::new(interval, threshold); n],
            suspected: vec![false; n],
            epoch: 0,
            suspicions: 0,
            epoch_bumps: 0,
        }
    }

    /// The heartbeat period the cluster runs at.
    pub fn interval(&self) -> Ns {
        self.interval
    }

    /// Number of supervised members.
    pub fn members(&self) -> usize {
        self.nodes.len()
    }

    /// The cluster's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Suspicions raised so far.
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }

    /// Epoch bumps (reconfigurations) so far.
    pub fn epoch_bumps(&self) -> u64 {
        self.epoch_bumps
    }

    /// True when `member` is suspected down.
    pub fn is_suspected(&self, member: usize) -> bool {
        self.suspected[member]
    }

    /// Rejects a request carrying a sealed epoch with the typed
    /// [`ClusterError::StaleEpoch`] — the fencing check every cluster
    /// RPC passes through.
    pub fn check_epoch(&self, have: u64) -> Result<(), ClusterError> {
        if have < self.epoch {
            Err(ClusterError::StaleEpoch {
                have,
                need: self.epoch,
            })
        } else {
            Ok(())
        }
    }

    /// One heartbeat round at `now`: every member whose crash/partition
    /// window is inactive heartbeats its peers; detectors score the
    /// silence of the rest. Returns members *newly* suspected this round
    /// (suspicion latches — see the type docs). Bumps the
    /// `cluster:suspicions` counter when a recorder is given.
    ///
    /// Liveness is read via [`FaultPlan::active`] — a pure window query —
    /// so ticking never perturbs any Bernoulli stream.
    pub fn tick<'r>(&mut self, faults: &FaultPlan, at: impl Into<At<'r>>) -> Vec<usize> {
        let At { now, mut rec } = at.into();
        let mut newly = Vec::new();
        for m in 0..self.nodes.len() {
            if self.suspected[m] {
                continue;
            }
            let silent = faults.active(&crash_site(m), now)
                || faults.active(&hyperion_net::partition_site(self.nodes[m]), now);
            if !silent {
                self.detectors[m].heartbeat(now);
            }
            if self.detectors[m].suspect(now) {
                self.suspected[m] = true;
                self.suspicions += 1;
                newly.push(m);
                if let Some(rec) = rec.as_deref_mut() {
                    rec.bump("cluster:suspicions");
                    rec.instant("cluster:suspicion", now);
                }
            }
        }
        newly
    }

    /// Reacts to a suspicion: runs the automatic CORFU failover on `log`
    /// for the suspected member's `unit`, adopts the new epoch, and — when
    /// a recorder is given — bumps `cluster:epoch_bumps` and
    /// `corfu:repaired_positions`, and records the repair as a
    /// [`Component::Cluster`] span whose whole extent is a queue edge
    /// (requests stalled behind repair are *waiting*, not being served;
    /// the critical-path analyzer charges it as such).
    pub fn fail_over<'r>(
        &mut self,
        log: &mut CorfuLog,
        unit: usize,
        at: impl Into<At<'r>>,
    ) -> Result<FailoverReport, ClusterError> {
        let At { now, rec } = at.into();
        let report = log.fail_over(unit, now).map_err(ClusterError::Log)?;
        self.epoch = self.epoch.max(report.epoch);
        self.epoch_bumps += 1;
        if let Some(rec) = rec {
            rec.bump("cluster:epoch_bumps");
            rec.instant("cluster:epoch_bump", now);
            rec.count("corfu:repaired_positions", report.repaired_positions);
            let span = rec.open(Component::Cluster, "cluster:repair", now);
            if report.done > now {
                rec.queue_edge(span, report.done);
            }
            rec.close(span, report.done);
        }
        Ok(report)
    }
}

impl DpuCluster {
    /// [`DpuCluster::serve_partitioned`] behind the availability layer:
    /// the request carries `client_epoch` and is fenced
    /// ([`ClusterError::StaleEpoch`]) when the cluster has moved on, and
    /// requests routed to a suspected member are refused with
    /// [`ClusterError::Suspected`] so the client re-routes instead of
    /// hanging on a dead DPU.
    pub fn serve_fenced(
        &mut self,
        sup: &ClusterSupervisor,
        client_epoch: u64,
        key: u64,
        op: impl Into<ServiceOp>,
        now: Ns,
    ) -> Result<(usize, ServiceResponse, Ns), ClusterError> {
        sup.check_epoch(client_epoch)?;
        let owner = self.owner_of(key);
        if sup.is_suspected(owner) {
            return Err(ClusterError::Suspected { member: owner });
        }
        self.serve_partitioned(key, op, now)
    }

    /// Dispatches `op` on an explicit member (the re-route path a client
    /// takes after [`ClusterError::Suspected`]), under the same epoch
    /// fence.
    pub fn serve_fenced_on(
        &mut self,
        sup: &ClusterSupervisor,
        client_epoch: u64,
        member: usize,
        op: impl Into<ServiceOp>,
        now: Ns,
    ) -> Result<(ServiceResponse, Ns), ClusterError> {
        sup.check_epoch(client_epoch)?;
        if sup.is_suspected(member) {
            return Err(ClusterError::Suspected { member });
        }
        self.dpus[member]
            .dispatch(now, op)
            .map_err(ClusterError::Service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::KvOp;
    use hyperion_net::transport::{EndpointKind, TransportKind};
    use hyperion_telemetry::Recorder;

    const KEY: u64 = 0xC0FFEE;

    #[test]
    fn members_boot_in_parallel() {
        let (cluster, ready) = DpuCluster::boot(4, KEY, Ns::ZERO);
        assert_eq!(cluster.len(), 4);
        // Parallel boot: the cluster is ready when one board is (all
        // identical), not 4x later.
        assert!(ready < Ns::from_millis(400), "ready {ready}");
    }

    #[test]
    fn partitioning_is_stable_and_spread() {
        let (cluster, _) = DpuCluster::boot(4, KEY, Ns::ZERO);
        let mut counts = [0u32; 4];
        for k in 0..4_000u64 {
            let o = cluster.owner_of(k);
            assert_eq!(o, cluster.owner_of(k), "stable");
            counts[o] += 1;
        }
        for c in counts {
            assert!((600..1_400).contains(&c), "imbalance: {counts:?}");
        }
    }

    #[test]
    fn partitioned_kv_round_trips_across_members() {
        let (mut cluster, t) = DpuCluster::boot(3, KEY, Ns::ZERO);
        let mut owners_seen = std::collections::HashSet::new();
        let mut now = t;
        for k in 0..60u64 {
            let (owner, _, done) = cluster
                .serve_partitioned(
                    k,
                    KvOp::Put {
                        key: k,
                        value: k * 2,
                    },
                    now,
                )
                .expect("put");
            owners_seen.insert(owner);
            now = done;
        }
        assert_eq!(owners_seen.len(), 3, "keys must spread over all members");
        for k in 0..60u64 {
            let (_, resp, done) = cluster
                .serve_partitioned(k, KvOp::Get { key: k }, now)
                .expect("get");
            now = done;
            let ServiceResponse::Value(v) = resp else {
                panic!("expected value");
            };
            assert_eq!(v, Some(k * 2));
        }
    }

    #[test]
    fn remote_routing_is_one_hop() {
        let (mut cluster, t) = DpuCluster::boot(2, KEY, Ns::ZERO);
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let endpoints: Vec<Endpoint> = (0..2)
            .map(|_| Endpoint::new(net.add_node(), EndpointKind::Hardware))
            .collect();
        let tr = Transport::new(TransportKind::Udp);
        let (_, d) = cluster
            .remote_call(
                &mut net,
                tr,
                client,
                &endpoints,
                42,
                KvOp::Put { key: 42, value: 1 },
                32,
                8,
                t,
            )
            .expect("call");
        assert_eq!(d.wire_rounds, 1, "client-driven routing: exactly one RTT");
    }

    #[test]
    fn remote_calls_are_served_when_the_request_arrives() {
        let (mut cluster, t) = DpuCluster::boot(2, KEY, Ns::ZERO);
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let endpoints: Vec<Endpoint> = (0..2)
            .map(|_| Endpoint::new(net.add_node(), EndpointKind::Hardware))
            .collect();
        let tr = Transport::new(TransportKind::Udp);
        let key = 42;
        let put = || KvOp::SsdPut {
            key: b"flow-42".to_vec(),
            value: bytes::Bytes::from_static(b"backend-7"),
        };
        let owner = cluster.owner_of(key);
        // The same request leg and op on a twin network and cluster.
        let (mut twin, _) = DpuCluster::boot(2, KEY, Ns::ZERO);
        let mut twin_net = Network::new();
        for _ in 0..3 {
            twin_net.add_node();
        }
        let arrival = tr
            .send(&mut twin_net, client, endpoints[owner], t, 32 + RPC_FRAMING)
            .expect("request leg")
            .done;
        assert!(arrival > t);
        let (_, served) = twin.dpus[owner].dispatch(arrival, put()).expect("put");
        let (_, d) = cluster
            .remote_call(&mut net, tr, client, &endpoints, key, put(), 32, 8, t)
            .expect("call");
        // The owner's KV-SSD completes the put exactly when a put issued
        // at the arrival instant does, and the reply leaves then.
        let kvssd = &cluster.dpus[owner].kvssd;
        assert_eq!(kvssd.queue_depth_at(served - Ns(1)), 1);
        assert_eq!(kvssd.queue_depth_at(served), 0);
        let reply = tr
            .send(
                &mut twin_net,
                endpoints[owner],
                client,
                served,
                8 + RPC_FRAMING,
            )
            .expect("reply leg");
        assert_eq!(d.done, reply.done);
    }

    #[test]
    fn detector_suspects_after_silence_and_not_before() {
        let interval = Ns(1_000_000); // 1 ms heartbeats
        let mut d = FailureDetector::new(interval, DEFAULT_PHI_THRESHOLD);
        // Regular heartbeats: phi stays low.
        for i in 0..10u64 {
            d.heartbeat(Ns(i * interval.0));
            assert!(!d.suspect(Ns(i * interval.0)));
        }
        let last = Ns(9 * interval.0);
        // One interval of silence: not suspicious (phi ~ 1).
        assert!(!d.suspect(last + interval));
        // Three intervals: suspicious.
        assert!(d.suspect(last + Ns(interval.0 * 3)));
    }

    #[test]
    fn detector_is_deterministic() {
        let mk = || {
            let mut d = FailureDetector::new(Ns(1_000), 3.0);
            for i in 0..50u64 {
                d.heartbeat(Ns(i * 1_100)); // slightly slow peer
            }
            d
        };
        let (a, b) = (mk(), mk());
        for t in (55_000..80_000).step_by(500) {
            assert_eq!(a.suspect(Ns(t)), b.suspect(Ns(t)));
            assert_eq!(a.phi(Ns(t)).to_bits(), b.phi(Ns(t)).to_bits());
        }
    }

    #[test]
    fn supervisor_suspects_a_crashed_member_and_latches() {
        let interval = Ns(1_000_000);
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut sup = ClusterSupervisor::new(nodes, interval, DEFAULT_PHI_THRESHOLD);
        // Member 1 fail-stops at t = 5 ms.
        let faults = FaultPlan::seeded(1).from_instant(&crash_site(1), Ns(5_000_000));
        let mut suspected = Vec::new();
        for round in 0..20u64 {
            let now = Ns(round * interval.0);
            for m in sup.tick(&faults, now) {
                suspected.push((m, now));
            }
        }
        assert_eq!(suspected.len(), 1, "exactly one member suspected");
        let (m, at) = suspected[0];
        assert_eq!(m, 1);
        // Detection happens a few intervals after the crash, not before.
        assert!(at >= Ns(5_000_000) + Ns(2 * interval.0), "too early: {at}");
        assert!(at <= Ns(5_000_000) + Ns(5 * interval.0), "too late: {at}");
        assert!(sup.is_suspected(1));
        assert!(!sup.is_suspected(0) && !sup.is_suspected(2));
        assert_eq!(sup.suspicions(), 1);
        // Latched: ticking long after never un-suspects.
        sup.tick(&faults, Ns(100 * interval.0));
        assert!(sup.is_suspected(1));
    }

    #[test]
    fn supervisor_suspects_a_partitioned_member() {
        let interval = Ns(1_000_000);
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut sup = ClusterSupervisor::new(nodes.clone(), interval, DEFAULT_PHI_THRESHOLD);
        // Node 2 partitioned for a *finite* window; suspicion must latch
        // even after the partition heals (the member is now a zombie).
        let faults = FaultPlan::seeded(1).window(
            &hyperion_net::partition_site(nodes[2]),
            Ns(3_000_000),
            Ns(12_000_000),
        );
        let mut hit = None;
        for round in 0..40u64 {
            let now = Ns(round * interval.0);
            for m in sup.tick(&faults, now) {
                hit = Some((m, now));
            }
        }
        let (m, _) = hit.expect("partitioned member must be suspected");
        assert_eq!(m, 2);
        assert!(sup.is_suspected(2), "suspicion latches across the heal");
    }

    #[test]
    fn epoch_fencing_rejects_stale_clients() {
        let (mut cluster, t) = DpuCluster::boot(2, KEY, Ns::ZERO);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let mut sup = ClusterSupervisor::new(nodes, Ns(1_000_000), DEFAULT_PHI_THRESHOLD);
        // Current epoch (0): served.
        cluster
            .serve_fenced(&sup, 0, 7, KvOp::Put { key: 7, value: 1 }, t)
            .unwrap();
        // Simulate a reconfiguration bumping the cluster epoch.
        let mut log = CorfuLog::new_replicated(3, 1 << 12, 2);
        log.add_spare_unit(1 << 12);
        sup.fail_over(&mut log, 0, t).unwrap();
        assert_eq!(sup.epoch(), 1);
        // The zombie still sends epoch-0 requests: typed rejection.
        let stale = cluster.serve_fenced(&sup, 0, 7, KvOp::Get { key: 7 }, t);
        assert!(
            matches!(stale, Err(ClusterError::StaleEpoch { have: 0, need: 1 })),
            "stale client must be fenced: {stale:?}"
        );
        // A refreshed client (epoch 1) is served.
        cluster
            .serve_fenced(&sup, 1, 7, KvOp::Get { key: 7 }, t)
            .unwrap();
    }

    #[test]
    fn suspected_members_refuse_with_a_typed_error() {
        let (mut cluster, t) = DpuCluster::boot(2, KEY, Ns::ZERO);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let interval = Ns(1_000_000);
        let mut sup = ClusterSupervisor::new(nodes, interval, DEFAULT_PHI_THRESHOLD);
        // One clean heartbeat round gives the detector its baseline, then
        // member 0 fail-stops.
        let faults = FaultPlan::seeded(1).from_instant(&crash_site(0), t + Ns(1));
        for round in 0..10u64 {
            sup.tick(&faults, t + Ns(round * interval.0));
        }
        assert!(sup.is_suspected(0));
        // Find a key owned by member 0.
        let key = (0..).find(|&k| cluster.owner_of(k) == 0).unwrap();
        let r = cluster.serve_fenced(&sup, 0, key, KvOp::Get { key }, t);
        assert!(matches!(r, Err(ClusterError::Suspected { member: 0 })));
        // The re-route path serves the same request on a survivor.
        cluster
            .serve_fenced_on(&sup, 0, 1, KvOp::Get { key }, t)
            .unwrap();
    }

    #[test]
    fn supervisor_failover_records_telemetry() {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut sup = ClusterSupervisor::new(nodes, Ns(1_000_000), DEFAULT_PHI_THRESHOLD);
        let mut log = CorfuLog::new_replicated(3, 1 << 14, 2);
        log.add_spare_unit(1 << 14);
        let mut t = Ns::ZERO;
        for i in 0..12u64 {
            let (_, done) = log.append(format!("e{i}").as_bytes(), t).unwrap();
            t = done;
        }
        let mut rec = Recorder::new("cluster");
        let report = sup
            .fail_over(&mut log, 1, At::new(t, Some(&mut rec)))
            .unwrap();
        assert!(report.repaired_positions > 0);
        assert_eq!(rec.counter("cluster:epoch_bumps"), 1);
        assert_eq!(
            rec.counter("corfu:repaired_positions"),
            report.repaired_positions
        );
        // The repair span is a Cluster hop whose extent is queue-wait.
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].component, Component::Cluster);
        assert_eq!(spans[0].name, "cluster:repair");
        assert_eq!(
            rec.queue_edge_of(hyperion_telemetry::SpanId::index(0)),
            Some(report.done)
        );
        assert_eq!(sup.epoch_bumps(), 1);
    }

    #[test]
    fn supervision_with_empty_plan_draws_nothing() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut sup = ClusterSupervisor::new(nodes, Ns(1_000_000), DEFAULT_PHI_THRESHOLD);
        let faults = FaultPlan::none();
        for round in 0..100u64 {
            let newly = sup.tick(&faults, Ns(round * 1_000_000));
            assert!(newly.is_empty());
        }
        assert_eq!(sup.suspicions(), 0);
        assert!(faults.is_empty(), "no sites were ever materialized");
    }
}
