//! The rack network: nodes joined by a single cut-through switch.
//!
//! Hyperion follows the directly network-attached model (paper §2): DPUs,
//! clients, and servers are all first-class nodes on the rack switch. Each
//! node owns a full-duplex link; a message serializes on the sender's
//! uplink, traverses the switch, and serializes on the receiver's downlink
//! (which is where incast congestion appears).

use hyperion_sim::fault::FaultPlan;
use hyperion_sim::resource::Link;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{At, Recorder, SpanId};

use crate::frame::wire_bytes_for_message;
use crate::params;

/// Identifies a node on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Errors from the network model.
///
/// `UnknownNode` is a caller mistake; the remaining variants are injected
/// hardware faults (see [`Network::set_fault_plan`]) that the transport
/// retry layer is expected to absorb.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// Referenced node does not exist.
    UnknownNode(usize),
    /// The message was dropped in flight (injected loss); the sender
    /// learns nothing until its timeout expires.
    Dropped,
    /// The message arrived at `delivered_at` but failed its checksum
    /// (injected corruption); the wire time was paid for nothing.
    Corrupted {
        /// When the corrupt frame finished arriving.
        delivered_at: Ns,
    },
    /// A link on the path is down until `until` (injected flap window).
    LinkDown {
        /// When the link comes back up.
        until: Ns,
    },
    /// A [`RetryPolicy::drive`](crate::transport::RetryPolicy::drive) run
    /// exhausted its attempt budget.
    Exhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::Dropped => write!(f, "message dropped in flight"),
            NetError::Corrupted { delivered_at } => {
                write!(f, "message corrupted (arrived at {delivered_at})")
            }
            NetError::LinkDown { until } => write!(f, "link down until {until}"),
            NetError::Exhausted { attempts } => {
                write!(f, "gave up after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for NetError {}

struct Node {
    uplink: Link,
    downlink: Link,
}

/// Utilization observer for one traced delivery: claims the wire windows
/// the message occupies and labels `span`'s queueing edge with the link
/// that gated it. Every method no-ops while the recorder's utilization
/// plane is disabled (not even the resource-id string is built).
struct DeliveryObs<'a> {
    rec: &'a mut Recorder,
    span: Option<SpanId>,
}

impl DeliveryObs<'_> {
    fn claim(&mut self, dir: &str, node: NodeId, start: Ns, end: Ns) {
        if self.rec.util_enabled() {
            self.rec
                .claim_busy(&format!("net:{dir}:{}", node.0), start, end);
        }
    }

    fn edge(&mut self, ready: Ns, dir: &str, node: NodeId) {
        let Some(span) = self.span else { return };
        if self.rec.util_enabled() {
            self.rec
                .queue_edge_labeled(span, ready, &format!("net:{dir}:{}", node.0));
        }
    }
}

/// The rack network.
pub struct Network {
    nodes: Vec<Node>,
    switch_latency: Ns,
    messages: u64,
    bytes: u64,
    faults: FaultPlan,
}

/// Fault site: each delivery is lost with the configured probability.
pub const FAULT_NET_DROP: &str = "net:drop";
/// Fault site: each delivery arrives corrupt with the configured probability.
pub const FAULT_NET_CORRUPT: &str = "net:corrupt";
/// Fault site: scheduled windows during which every delivery fails
/// with [`NetError::LinkDown`] (link flap).
pub const FAULT_NET_FLAP: &str = "net:flap";
/// Fault site *family*: `node:partition:<node>` — scheduled windows
/// during which every delivery to or from that node is silently dropped
/// ([`NetError::Dropped`]). Unlike a link flap, nothing is visible at the
/// sender's NIC: the node is alive but unreachable, which is what makes
/// fenced zombies possible. Build concrete names with [`partition_site`].
pub const FAULT_NODE_PARTITION: &str = "node:partition";

/// The concrete fault-site name partitioning `node` (see
/// [`FAULT_NODE_PARTITION`]).
pub fn partition_site(node: NodeId) -> String {
    format!("{FAULT_NODE_PARTITION}:{}", node.0)
}

impl Network {
    /// Creates an empty network with default switch latency.
    pub fn new() -> Network {
        Network {
            nodes: Vec::new(),
            switch_latency: params::SWITCH_LATENCY,
            messages: 0,
            bytes: 0,
            faults: FaultPlan::none(),
        }
    }

    /// Installs a fault plan. Sites consulted: [`FAULT_NET_DROP`],
    /// [`FAULT_NET_CORRUPT`] (Bernoulli per delivery),
    /// [`FAULT_NET_FLAP`] and per-node [`FAULT_NODE_PARTITION`] sites
    /// (scheduled windows). The default empty plan adds no draws and no
    /// timing perturbation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Adds a node with full-duplex 100 GbE connectivity; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            uplink: Link::new("uplink", params::LINK_100G_BPS, params::RACK_PROPAGATION),
            downlink: Link::new("downlink", params::LINK_100G_BPS, params::RACK_PROPAGATION),
        });
        id
    }

    /// Delivers a `bytes`-long message from `src` to `dst`, starting no
    /// earlier than `now`. Returns the arrival instant of the last byte.
    ///
    /// The message is packetized (per-packet header overhead), serializes
    /// FIFO on the sender uplink and the receiver downlink, and pays one
    /// switch traversal. Messages between distinct node pairs share only
    /// the links they actually use.
    ///
    /// With a recorder whose utilization plane is on, the wire windows the
    /// message occupies are claimed busy on `net:uplink:<src>` /
    /// `net:downlink:<dst>`, and when the message had to wait for a busy
    /// wire, `span` (if given) gets a queueing edge labeled with the gating
    /// link. Timing and fault behavior do not depend on `at.rec`.
    pub fn deliver<'r>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        at: impl Into<At<'r>>,
        bytes: u64,
        span: Option<SpanId>,
    ) -> Result<Ns, NetError> {
        let At { now, rec } = at.into();
        let mut obs = rec.map(|rec| DeliveryObs { rec, span });
        let wire = wire_bytes_for_message(bytes);
        if src.0 >= self.nodes.len() {
            return Err(NetError::UnknownNode(src.0));
        }
        if dst.0 >= self.nodes.len() {
            return Err(NetError::UnknownNode(dst.0));
        }
        self.messages += 1;
        self.bytes += wire;
        // Link flap: carrier loss is visible at the NIC before any byte
        // is spent on the wire.
        if !self.faults.is_empty() {
            if self.faults.fires(FAULT_NET_FLAP, now) {
                let until = self
                    .faults
                    .window_end(FAULT_NET_FLAP, now)
                    .unwrap_or(now + self.switch_latency);
                return Err(NetError::LinkDown { until });
            }
            if self.faults.fires(FAULT_NET_DROP, now) {
                // The frame still occupies the uplink until the drop point.
                if src != dst {
                    let (s, e, _) = self.nodes[src.0].uplink.transmit_interval(now, wire);
                    if let Some(o) = obs.as_mut() {
                        o.claim("uplink", src, s, e);
                    }
                }
                return Err(NetError::Dropped);
            }
            // Partition: the switch silently blackholes traffic touching a
            // partitioned node. `active` is a pure window query, so the
            // Bernoulli streams above are never perturbed by these checks.
            if self.faults.active(&partition_site(src), now)
                || self.faults.active(&partition_site(dst), now)
            {
                if src != dst {
                    // The sender's frame still leaves its NIC; the loss is
                    // invisible until the sender's timeout expires.
                    let (s, e, _) = self.nodes[src.0].uplink.transmit_interval(now, wire);
                    if let Some(o) = obs.as_mut() {
                        o.claim("uplink", src, s, e);
                    }
                }
                return Err(NetError::Dropped);
            }
        }
        if src == dst {
            // Loopback: no wire traversal, one switch-latency hop.
            return Ok(now + self.switch_latency);
        }
        let (up_start, up_end, up_done) = self.nodes[src.0].uplink.transmit_interval(now, wire);
        let at_switch = up_done + self.switch_latency;
        // Cut-through at message granularity: the downlink starts no
        // earlier than the head arrives and re-serializes the wire bytes.
        let (down_start, down_end, delivered) = self.nodes[dst.0]
            .downlink
            .transmit_interval(at_switch, wire);
        if let Some(o) = obs.as_mut() {
            o.claim("uplink", src, up_start, up_end);
            o.claim("downlink", dst, down_start, down_end);
            // The dominant wire wait labels the span's queueing edge:
            // downlink congestion (incast) wins over uplink congestion
            // because it gates later in the path.
            if down_start > at_switch {
                o.edge(down_start, "downlink", dst);
            } else if up_start > now {
                o.edge(up_start, "uplink", src);
            }
        }
        if !self.faults.is_empty() && self.faults.fires(FAULT_NET_CORRUPT, delivered) {
            // Full wire time paid; the checksum fails on arrival.
            return Err(NetError::Corrupted {
                delivered_at: delivered,
            });
        }
        Ok(delivered)
    }

    /// The idle (uncontended) one-way latency for a message of `bytes`.
    pub fn base_latency(&self, bytes: u64) -> Ns {
        let wire = wire_bytes_for_message(bytes);
        let ser = hyperion_sim::serialization_delay(wire, params::LINK_100G_BPS);
        // Uplink serialization + propagation + switch + downlink
        // serialization + propagation.
        ser + params::RACK_PROPAGATION + self.switch_latency + ser + params::RACK_PROPAGATION
    }

    /// Total messages delivered.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total wire bytes delivered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("messages", &self.messages)
            .field("bytes", &self.bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_latency_is_microsecond_class() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.deliver(a, b, Ns::ZERO, 64, None).unwrap();
        // 2 x 500ns propagation + 300ns switch + 2 x ~12ns serialization.
        assert!(t > Ns(1_300) && t < Ns(2_000), "latency {t}");
    }

    #[test]
    fn distinct_pairs_do_not_contend() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        let c = net.add_node();
        let d = net.add_node();
        let t1 = net.deliver(a, b, Ns::ZERO, 1 << 20, None).unwrap();
        let t2 = net.deliver(c, d, Ns::ZERO, 1 << 20, None).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn incast_contends_on_receiver_downlink() {
        let mut net = Network::new();
        let sinks = net.add_node();
        let s1 = net.add_node();
        let s2 = net.add_node();
        let t1 = net.deliver(s1, sinks, Ns::ZERO, 1 << 20, None).unwrap();
        let t2 = net.deliver(s2, sinks, Ns::ZERO, 1 << 20, None).unwrap();
        assert!(t2 > t1, "second sender must queue at the downlink");
    }

    #[test]
    fn unknown_nodes_error() {
        let mut net = Network::new();
        let a = net.add_node();
        assert!(net.deliver(a, NodeId(7), Ns::ZERO, 10, None).is_err());
    }

    #[test]
    fn loopback_skips_the_wire() {
        let mut net = Network::new();
        let a = net.add_node();
        let t = net.deliver(a, a, Ns::ZERO, 1 << 20, None).unwrap();
        assert_eq!(t, Ns::ZERO + params::SWITCH_LATENCY);
    }

    #[test]
    fn drop_faults_fail_some_deliveries_deterministically() {
        let run = || {
            let mut net = Network::new();
            let a = net.add_node();
            let b = net.add_node();
            net.set_fault_plan(FaultPlan::seeded(11).bernoulli(FAULT_NET_DROP, 0.5));
            (0..64)
                .map(|i| net.deliver(a, b, Ns(i * 10_000), 64, None).is_ok())
                .collect::<Vec<bool>>()
        };
        let x = run();
        assert!(x.iter().any(|ok| *ok) && x.iter().any(|ok| !*ok));
        assert_eq!(x, run());
    }

    #[test]
    fn flap_window_reports_when_the_link_returns() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        net.set_fault_plan(FaultPlan::seeded(1).window(FAULT_NET_FLAP, Ns(100), Ns(500)));
        assert!(net.deliver(a, b, Ns(0), 64, None).is_ok());
        match net.deliver(a, b, Ns(200), 64, None) {
            Err(NetError::LinkDown { until }) => assert_eq!(until, Ns(500)),
            other => panic!("expected LinkDown, got {other:?}"),
        }
        assert!(net.deliver(a, b, Ns(500), 64, None).is_ok());
    }

    #[test]
    fn partitioned_node_is_silently_unreachable_both_ways() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        let c = net.add_node();
        net.set_fault_plan(FaultPlan::seeded(1).window(&partition_site(b), Ns(1_000), Ns(5_000)));
        // Before the window: clean.
        assert!(net.deliver(a, b, Ns(0), 64, None).is_ok());
        // Inside the window: both directions blackhole, silently.
        assert_eq!(
            net.deliver(a, b, Ns(2_000), 64, None),
            Err(NetError::Dropped)
        );
        assert_eq!(
            net.deliver(b, a, Ns(2_000), 64, None),
            Err(NetError::Dropped)
        );
        // Unrelated pairs are untouched.
        assert!(net.deliver(a, c, Ns(2_000), 64, None).is_ok());
        // After the window: the node is reachable again.
        assert!(net.deliver(a, b, Ns(5_000), 64, None).is_ok());
    }

    #[test]
    fn partition_checks_do_not_perturb_bernoulli_streams() {
        // Two networks with the same drop plan; one also has a partition
        // site for a node that never sends. The drop outcomes on the
        // unpartitioned pair must be identical.
        let run = |partition: bool| {
            let mut net = Network::new();
            let a = net.add_node();
            let b = net.add_node();
            let c = net.add_node();
            let mut plan = FaultPlan::seeded(11).bernoulli(FAULT_NET_DROP, 0.5);
            if partition {
                plan = plan.window(&partition_site(c), Ns(0), Ns::MAX);
            }
            net.set_fault_plan(plan);
            (0..64)
                .map(|i| net.deliver(a, b, Ns(i * 10_000), 64, None).is_ok())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn corruption_pays_the_wire_time() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        let clean = net.base_latency(4096);
        net.set_fault_plan(FaultPlan::seeded(1).bernoulli(FAULT_NET_CORRUPT, 1.0));
        match net.deliver(a, b, Ns::ZERO, 4096, None) {
            Err(NetError::Corrupted { delivered_at }) => assert_eq!(delivered_at, clean),
            other => panic!("expected Corrupted, got {other:?}"),
        }
    }

    #[test]
    fn base_latency_matches_uncontended_delivery() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        let est = net.base_latency(4096);
        let t = net.deliver(a, b, Ns::ZERO, 4096, None).unwrap();
        assert_eq!(t, est);
    }
}
