//! A Willow-style specializable RPC layer.
//!
//! Paper §2.4: "we take inspiration from the flexible RPC interface
//! pioneered by Willow. The RPC interface can be specialized end-to-end
//! with network, storage, and application-level protocols." An
//! [`RpcChannel`] binds a client endpoint, a server endpoint, and a
//! transport; services above it (KV, shared log, pointer chasing, NVMe-oF)
//! define method ids and payload sizes, and the channel accounts wire and
//! endpoint time.

use hyperion_sim::stats::Counters;
use hyperion_sim::time::Ns;
use hyperion_telemetry::At;

use crate::netsim::{NetError, Network};
use crate::transport::{Delivery, Endpoint, Transport};

/// A method selector on a specialized RPC service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodId(pub u16);

/// Fixed RPC framing overhead per message (method id, sequence numbers,
/// checksums).
pub const RPC_FRAMING: u64 = 24;

/// A client↔server RPC binding over a chosen transport.
#[derive(Debug)]
pub struct RpcChannel {
    client: Endpoint,
    server: Endpoint,
    transport: Transport,
    /// `calls` and `rtts` counters for experiment reporting.
    pub counters: Counters,
}

impl RpcChannel {
    /// Binds a channel.
    pub fn new(client: Endpoint, server: Endpoint, transport: Transport) -> RpcChannel {
        RpcChannel {
            client,
            server,
            transport,
            counters: Counters::new(),
        }
    }

    /// The client endpoint.
    pub fn client(&self) -> Endpoint {
        self.client
    }

    /// The server endpoint.
    pub fn server(&self) -> Endpoint {
        self.server
    }

    /// The bound transport.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Issues a unary call: request payload up, `server_work` at the
    /// server, response payload down. With a recorder, the exchange
    /// records its per-leg telemetry (see [`Transport::request`]).
    pub fn call<'r>(
        &mut self,
        net: &mut Network,
        _method: MethodId,
        at: impl Into<At<'r>>,
        req_payload: u64,
        resp_payload: u64,
        server_work: Ns,
    ) -> Result<Delivery, NetError> {
        let d = self.transport.request(
            net,
            self.client,
            self.server,
            at,
            req_payload + RPC_FRAMING,
            resp_payload + RPC_FRAMING,
            server_work,
        )?;
        self.counters.bump("calls");
        self.counters.add("rtts", d.wire_rounds);
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{EndpointKind, TransportKind};

    fn channel() -> (Network, RpcChannel) {
        let mut net = Network::new();
        let c = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let s = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let ch = RpcChannel::new(c, s, Transport::new(TransportKind::Udp));
        (net, ch)
    }

    #[test]
    fn call_accounts_rtts() {
        let (mut net, mut ch) = channel();
        ch.call(&mut net, MethodId(1), Ns::ZERO, 64, 512, Ns(100))
            .unwrap();
        assert_eq!(ch.counters.get("calls"), 1);
        assert_eq!(ch.counters.get("rtts"), 1);
    }

    #[test]
    fn chains_scale_linearly_in_rtts() {
        let (mut net, mut ch) = channel();
        let one = ch
            .call(&mut net, MethodId(1), Ns::ZERO, 64, 64, Ns::ZERO)
            .unwrap();
        // Four dependent calls, each starting when the previous completes
        // (the client-driven pointer-chasing pattern of §2.4).
        let (mut net2, mut ch2) = channel();
        let (mut done, mut rounds) = (Ns::ZERO, 0);
        for _ in 0..4 {
            let d = ch2
                .call(&mut net2, MethodId(1), done, 64, 64, Ns::ZERO)
                .unwrap();
            done = d.done;
            rounds += d.wire_rounds;
        }
        assert_eq!(rounds, 4 * one.wire_rounds);
        // Latency of 4 dependent calls is ~4x one call.
        let ratio = done.0 as f64 / one.done.0 as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }
}
