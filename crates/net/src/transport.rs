//! Application-defined transports: UDP, TCP, RDMA, Homa.
//!
//! Paper §2: "The end-to-end hardware path can be specialized with ... an
//! application-defined network transport (TCP, UDP, RDMA, HOMA)". The four
//! models share the same wire (the [`Network`]) but differ in endpoint
//! costs and multi-round behaviour — the properties that move the
//! pointer-chasing and middleware experiments. [`RetryPolicy`] is the
//! loss-recovery loop a caller runs over them (NVMe-oF's
//! `Initiator::exchange` retries whole exchanges under it).

use hyperion_sim::rng::SplitMix64;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{Component, Recorder};

use crate::frame::packets_for_message;
use crate::netsim::{NetError, Network, NodeId};
use crate::params;

/// Who processes messages at a node: the paper's contrast between
/// CPU-free hardware pipelines and host software stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// An in-fabric pipeline (Hyperion): parse/steer in hardware.
    Hardware,
    /// A kernel socket stack (syscalls, softirq, copies).
    Kernel,
    /// A kernel-bypass userspace stack (DPDK-class).
    Bypass,
}

impl EndpointKind {
    /// Fixed per-message processing cost.
    pub fn per_message(self) -> Ns {
        match self {
            EndpointKind::Hardware => params::HW_ENDPOINT,
            EndpointKind::Kernel => params::KERNEL_ENDPOINT,
            EndpointKind::Bypass => params::BYPASS_ENDPOINT,
        }
    }

    /// Additional per-packet processing cost (beyond the first packet).
    pub fn per_packet(self) -> Ns {
        match self {
            EndpointKind::Hardware => Ns(10),
            EndpointKind::Kernel => Ns(500),
            EndpointKind::Bypass => Ns(100),
        }
    }

    fn processing(self, bytes: u64) -> Ns {
        let extra = packets_for_message(bytes).saturating_sub(1);
        self.per_message() + self.per_packet() * extra
    }
}

/// A network endpoint: a node plus its processing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The node on the rack network.
    pub node: NodeId,
    /// How this node processes messages.
    pub kind: EndpointKind,
}

impl Endpoint {
    /// Convenience constructor.
    pub fn new(node: NodeId, kind: EndpointKind) -> Endpoint {
        Endpoint { node, kind }
    }
}

/// The transport protocol in use on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Unreliable datagrams.
    Udp,
    /// Reliable byte stream with slow-start window growth.
    Tcp,
    /// One-sided remote memory verbs; the remote CPU is bypassed.
    Rdma,
    /// Receiver-driven (grant-based) datacenter transport.
    Homa,
}

impl TransportKind {
    /// All transports, in the order the paper lists them (§2).
    pub const ALL: [TransportKind; 4] = [
        TransportKind::Tcp,
        TransportKind::Udp,
        TransportKind::Homa,
        TransportKind::Rdma,
    ];

    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Udp => "udp",
            TransportKind::Tcp => "tcp",
            TransportKind::Rdma => "rdma",
            TransportKind::Homa => "homa",
        }
    }

    /// Telemetry span label for a one-way send over this transport.
    pub fn send_label(self) -> &'static str {
        match self {
            TransportKind::Udp => "udp:send",
            TransportKind::Tcp => "tcp:send",
            TransportKind::Rdma => "rdma:send",
            TransportKind::Homa => "homa:send",
        }
    }

    /// Telemetry span label for a request/response exchange.
    pub fn request_label(self) -> &'static str {
        match self {
            TransportKind::Udp => "udp:request",
            TransportKind::Tcp => "tcp:request",
            TransportKind::Rdma => "rdma:request",
            TransportKind::Homa => "homa:request",
        }
    }
}

/// Outcome of a one-way message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Instant the message is fully processed at the receiver.
    pub done: Ns,
    /// Network round trips consumed (1 one-way traversal = 0 extra RTTs;
    /// window/grant rounds add whole RTTs).
    pub wire_rounds: u64,
}

/// Retry policy for reliable delivery over a faulty wire: a fixed
/// attempt budget, a loss-detection timeout, and capped exponential
/// backoff with deterministic jitter.
///
/// Everything runs on the virtual clock; the jitter for attempt `k` is a
/// pure function of `(jitter_seed, k)`, so a seeded run replays the same
/// retry timeline bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts before giving up (0 counts as 1).
    pub max_attempts: u32,
    /// How long the sender waits for an ack before declaring a silent
    /// loss (applies to [`NetError::Dropped`]).
    pub timeout: Ns,
    /// Backoff before the second attempt; doubles per attempt.
    pub backoff_base: Ns,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Ns,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A reasonable datacenter default: 5 attempts, 100 µs loss timeout,
    /// 10 µs initial backoff capped at 1 ms.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_attempts: 5,
        timeout: Ns(100_000),
        backoff_base: Ns(10_000),
        backoff_cap: Ns(1_000_000),
        jitter_seed: 0x5EED,
    };

    /// The backoff before retry number `attempt` (0-based: the wait
    /// after the first failure is `backoff(0)`): `base * 2^attempt`,
    /// capped, plus deterministic jitter in `[0, capped/4]`.
    pub fn backoff(&self, attempt: u32) -> Ns {
        let exp = self
            .backoff_base
            .0
            .saturating_mul(1u64 << attempt.min(32))
            .min(self.backoff_cap.0);
        let jitter_range = exp / 4 + 1;
        let jitter = SplitMix64::new(self.jitter_seed ^ attempt as u64).next_u64() % jitter_range;
        Ns(exp + jitter)
    }

    /// When retrying after `e` helps, the earliest instant the next
    /// attempt may start, given that attempt number `attempt` (0-based)
    /// started at `t`: a silent loss ([`NetError::Dropped`]) burns the
    /// full loss timeout, a corrupt frame ([`NetError::Corrupted`]) is
    /// NACKed on arrival, and a flap ([`NetError::LinkDown`]) waits for
    /// carrier to return; each is followed by [`RetryPolicy::backoff`],
    /// which also spreads the post-flap thundering herd. `None` for errors
    /// a retry cannot fix, such as [`NetError::UnknownNode`].
    pub fn retry_at(&self, e: &NetError, t: Ns, attempt: u32) -> Option<Ns> {
        let resume = match *e {
            NetError::Dropped => t + self.timeout,
            NetError::Corrupted { delivered_at } => delivered_at.max(t),
            NetError::LinkDown { until } => until.max(t),
            _ => return None,
        };
        Some(resume + self.backoff(attempt))
    }

    /// Runs `attempt` under this policy: `attempt(t, k, rec)` issues
    /// attempt `k` (0-based) at `t`, and a failure is retried at
    /// [`RetryPolicy::retry_at`] until an attempt succeeds, fails with an
    /// error no retry can fix, or `max_attempts` attempts (at least one)
    /// have failed, which yields [`NetError::Exhausted`].
    ///
    /// With a recorder, `on_retry(rec, e, t)` sees every retryable failure
    /// `e` of the attempt issued at `t`, so each layer names its own
    /// counters and trace instants; without one nothing is recorded.
    pub fn drive<T>(
        &self,
        now: Ns,
        mut rec: Option<&mut Recorder>,
        mut attempt: impl FnMut(Ns, u32, Option<&mut Recorder>) -> Result<T, NetError>,
        on_retry: impl Fn(&mut Recorder, &NetError, Ns),
    ) -> Retried<T> {
        let attempts = self.max_attempts.max(1);
        let mut t = now;
        for k in 0..attempts {
            let e = match attempt(t, k, rec.as_deref_mut()) {
                Ok(value) => {
                    return Retried {
                        result: Ok(value),
                        attempts: k + 1,
                        last: t,
                    }
                }
                Err(e) => e,
            };
            let Some(next) = self.retry_at(&e, t, k) else {
                return Retried {
                    result: Err(e),
                    attempts: k + 1,
                    last: t,
                };
            };
            if let Some(rec) = rec.as_deref_mut() {
                on_retry(rec, &e, t);
            }
            t = next;
        }
        Retried {
            result: Err(NetError::Exhausted { attempts }),
            attempts,
            last: t,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT
    }
}

/// Outcome of [`RetryPolicy::drive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Retried<T> {
    /// The successful attempt's value, or the error that ended the run.
    pub result: Result<T, NetError>,
    /// Attempts issued (1 = the first try succeeded).
    pub attempts: u32,
    /// When the last attempt was issued; after an exhausted budget, when
    /// the next one would have been. Past the start instant, this is time
    /// spent recovering, not serving.
    pub last: Ns,
}

/// A transport instance (stateless; connection state is abstracted into
/// the per-message cost model).
#[derive(Debug, Clone, Copy)]
pub struct Transport {
    kind: TransportKind,
}

impl Transport {
    /// Creates a transport of the given kind.
    pub fn new(kind: TransportKind) -> Transport {
        Transport { kind }
    }

    /// The protocol in use.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Extra full RTTs a message of `bytes` needs beyond its first
    /// traversal (TCP slow-start rounds, Homa grant round).
    fn extra_rounds(&self, bytes: u64) -> u64 {
        match self.kind {
            TransportKind::Udp | TransportKind::Rdma => 0,
            TransportKind::Tcp => {
                // Slow start from the initial window, doubling per RTT.
                let mut window = params::TCP_INIT_CWND * params::MTU;
                let mut rounds = 0;
                let mut sent = window.min(bytes);
                while sent < bytes {
                    window *= 2;
                    sent = (sent + window).min(bytes);
                    rounds += 1;
                }
                rounds
            }
            TransportKind::Homa => {
                // Unscheduled bytes go immediately; anything longer waits
                // one grant round, after which grants pipeline with data.
                if bytes > params::HOMA_UNSCHEDULED {
                    1
                } else {
                    0
                }
            }
        }
    }

    /// Endpoint cost at the receiver; RDMA one-sided verbs bypass the
    /// remote processor entirely and pay only the NIC.
    fn rx_cost(&self, ep: EndpointKind, bytes: u64) -> Ns {
        match self.kind {
            TransportKind::Rdma => params::RDMA_NIC,
            _ => ep.processing(bytes),
        }
    }

    fn tx_cost(&self, ep: EndpointKind, bytes: u64) -> Ns {
        match self.kind {
            TransportKind::Rdma => params::RDMA_NIC,
            _ => ep.processing(bytes),
        }
    }

    /// Sends one message and returns its delivery outcome.
    pub fn send(
        &self,
        net: &mut Network,
        from: Endpoint,
        to: Endpoint,
        now: Ns,
        bytes: u64,
    ) -> Result<Delivery, NetError> {
        self.send_traced(net, from, to, now, bytes, None)
    }

    /// Sends one message and returns its delivery outcome.
    ///
    /// With a recorder, a `*:send` span covers the delivery (endpoint
    /// processing + wire + extra rounds). When the protocol burns control
    /// round trips before the tail of the data can land (TCP slow-start
    /// windows, Homa's grant round), the span gets a queueing edge of that
    /// length: the head of the delivery was spent waiting on the protocol,
    /// not moving payload bytes. With the recorder's utilization plane
    /// enabled the wire windows are additionally claimed busy on
    /// `net:uplink:<src>` / `net:downlink:<dst>`, and a busy-wire wait
    /// relabels the span's queueing edge with the gating link (the latest
    /// resource wait wins).
    pub fn send_traced(
        &self,
        net: &mut Network,
        from: Endpoint,
        to: Endpoint,
        now: Ns,
        bytes: u64,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Delivery, NetError> {
        let rounds = self.extra_rounds(bytes);
        // Each extra round costs one base RTT of control traffic before
        // the tail of the data lands.
        let round_penalty = net.base_latency(64) * rounds;
        let span = rec.as_deref_mut().map(|rec| {
            let span = rec.open(Component::Net, self.kind.send_label(), now);
            if rounds > 0 {
                rec.queue_edge(span, now + round_penalty);
            }
            span
        });
        let start = now + self.tx_cost(from.kind, bytes);
        let result = net
            .deliver_traced(from.node, to.node, start, bytes, rec.as_deref_mut(), span)
            .map(|arrival| Delivery {
                done: arrival + round_penalty + self.rx_cost(to.kind, bytes),
                wire_rounds: rounds,
            });
        if let (Some(rec), Some(span)) = (rec, span) {
            rec.close(span, result.as_ref().map_or(now, |d| d.done));
        }
        result
    }

    /// A full request/response exchange: client → server (request),
    /// `server_work` at the server, server → client (response).
    ///
    /// Returns the completion instant at the client and the total number
    /// of one-way traversals consumed (for RTT accounting in E6).
    ///
    /// For RDMA this models a one-sided READ: the request is a verb header
    /// and the server's *CPU* contributes no work (`server_work` is still
    /// charged — it stands for device-side work like a flash read — but no
    /// kernel processing is added).
    ///
    /// With a recorder: a `*:request` span covering the whole exchange,
    /// nested `*:send` spans for each leg (see
    /// [`Transport::send_traced`]), and the server residency recorded as a
    /// [`Component::Service`] hop.
    #[allow(clippy::too_many_arguments)]
    pub fn request_traced(
        &self,
        net: &mut Network,
        client: Endpoint,
        server: Endpoint,
        now: Ns,
        req_bytes: u64,
        resp_bytes: u64,
        server_work: Ns,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Delivery, NetError> {
        let span = rec
            .as_deref_mut()
            .map(|rec| rec.open(Component::Net, self.kind.request_label(), now));
        let result = (|| {
            let req = self.send_traced(net, client, server, now, req_bytes, rec.as_deref_mut())?;
            let served = req.done + server_work;
            if let Some(rec) = rec.as_deref_mut() {
                if server_work > Ns::ZERO {
                    rec.record_hop(Component::Service, "server:work", req.done, served);
                }
            }
            let resp =
                self.send_traced(net, server, client, served, resp_bytes, rec.as_deref_mut())?;
            Ok(Delivery {
                done: resp.done,
                wire_rounds: 1 + req.wire_rounds + resp.wire_rounds,
            })
        })();
        if let (Some(rec), Some(span)) = (rec, span) {
            rec.close(span, result.as_ref().map_or(now, |d| d.done));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(kind: EndpointKind) -> (Network, Endpoint, Endpoint) {
        let mut net = Network::new();
        let a = Endpoint::new(net.add_node(), kind);
        let b = Endpoint::new(net.add_node(), kind);
        (net, a, b)
    }

    #[test]
    fn udp_small_message_is_fast() {
        let (mut net, a, b) = pair(EndpointKind::Hardware);
        let d = Transport::new(TransportKind::Udp)
            .send(&mut net, a, b, Ns::ZERO, 64)
            .unwrap();
        assert!(d.done < Ns(3_000), "udp small message: {}", d.done);
        assert_eq!(d.wire_rounds, 0);
    }

    #[test]
    fn tcp_pays_slow_start_on_large_messages() {
        let (mut net, a, b) = pair(EndpointKind::Kernel);
        let tcp = Transport::new(TransportKind::Tcp);
        let small = tcp.send(&mut net, a, b, Ns::ZERO, 1_000).unwrap();
        assert_eq!(small.wire_rounds, 0);
        let large = tcp.send(&mut net, a, b, Ns::ZERO, 1_000_000).unwrap();
        assert!(large.wire_rounds >= 3, "rounds: {}", large.wire_rounds);
    }

    #[test]
    fn rdma_bypasses_kernel_endpoints() {
        let (mut net, a, b) = pair(EndpointKind::Kernel);
        let udp = Transport::new(TransportKind::Udp)
            .send(&mut net, a, b, Ns::ZERO, 4096)
            .unwrap();
        let (mut net2, a2, b2) = pair(EndpointKind::Kernel);
        let rdma = Transport::new(TransportKind::Rdma)
            .send(&mut net2, a2, b2, Ns::ZERO, 4096)
            .unwrap();
        assert!(
            rdma.done + Ns(4_000) < udp.done,
            "rdma {} vs udp {}",
            rdma.done,
            udp.done
        );
    }

    #[test]
    fn homa_is_udp_like_until_unscheduled_limit() {
        let (mut net, a, b) = pair(EndpointKind::Hardware);
        let homa = Transport::new(TransportKind::Homa);
        let short = homa.send(&mut net, a, b, Ns::ZERO, 32 * 1024).unwrap();
        assert_eq!(short.wire_rounds, 0);
        let long = homa.send(&mut net, a, b, Ns::ZERO, 256 * 1024).unwrap();
        assert_eq!(long.wire_rounds, 1);
    }

    #[test]
    fn request_counts_one_rtt_minimum() {
        let (mut net, a, b) = pair(EndpointKind::Hardware);
        let d = Transport::new(TransportKind::Udp)
            .request_traced(&mut net, a, b, Ns::ZERO, 64, 4096, Ns(1_000), None)
            .unwrap();
        assert_eq!(d.wire_rounds, 1);
        assert!(d.done > Ns(1_000));
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let p = RetryPolicy::DEFAULT;
        for k in 0..16 {
            let b = p.backoff(k);
            let exp = p.backoff_base.0.saturating_mul(1 << k).min(p.backoff_cap.0);
            assert!(b.0 >= exp && b.0 <= exp + exp / 4 + 1, "attempt {k}: {b}");
            // Deterministic: same (seed, attempt) → same jitter.
            assert_eq!(b, p.backoff(k));
        }
    }

    #[test]
    fn traced_send_claims_links_and_labels_incast_waits() {
        // Two senders incast into one sink: the second send queues on the
        // sink's downlink and its span edge must carry that link's id.
        let mut net = Network::new();
        let sink = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let s1 = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let s2 = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let tr = Transport::new(TransportKind::Udp);
        let mut rec = Recorder::new("incast");
        rec.enable_util();
        let a = tr.send_traced(&mut net, s1, sink, Ns::ZERO, 1 << 20, Some(&mut rec));
        let b = tr.send_traced(&mut net, s2, sink, Ns::ZERO, 1 << 20, Some(&mut rec));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(b.done > a.done);
        for id in ["net:uplink:1", "net:uplink:2", "net:downlink:0"] {
            assert!(
                rec.util().resource(id).is_some(),
                "missing utilization for {id}"
            );
        }
        // Both megabyte bursts serialize on the shared downlink: its busy
        // time is twice an uplink's.
        let down = rec.util().resource("net:downlink:0").unwrap().busy_ns();
        let up = rec.util().resource("net:uplink:1").unwrap().busy_ns();
        assert_eq!(down, Ns(up.0 * 2));
        assert_eq!(rec.edge_resources().len(), 1);
        assert_eq!(rec.edge_resources()[0].1, "net:downlink:0");
        // Timing parity with the recorder-free (`None`) path.
        let mut plain = Network::new();
        let p_sink = Endpoint::new(plain.add_node(), EndpointKind::Hardware);
        let p1 = Endpoint::new(plain.add_node(), EndpointKind::Hardware);
        let p2 = Endpoint::new(plain.add_node(), EndpointKind::Hardware);
        assert_eq!(
            tr.send(&mut plain, p1, p_sink, Ns::ZERO, 1 << 20).unwrap(),
            a
        );
        assert_eq!(
            tr.send(&mut plain, p2, p_sink, Ns::ZERO, 1 << 20).unwrap(),
            b
        );
    }

    #[test]
    fn hardware_endpoints_beat_kernel_endpoints() {
        let (mut net, a, b) = pair(EndpointKind::Hardware);
        let hw = Transport::new(TransportKind::Udp)
            .request_traced(&mut net, a, b, Ns::ZERO, 64, 64, Ns::ZERO, None)
            .unwrap();
        let (mut net2, a2, b2) = pair(EndpointKind::Kernel);
        let sw = Transport::new(TransportKind::Udp)
            .request_traced(&mut net2, a2, b2, Ns::ZERO, 64, 64, Ns::ZERO, None)
            .unwrap();
        assert!(
            sw.done > hw.done + Ns(8_000),
            "hw {} sw {}",
            hw.done,
            sw.done
        );
    }
}
