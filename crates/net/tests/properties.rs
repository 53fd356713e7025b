//! Property tests for the network substrate: causality, monotonicity, and
//! determinism across all transports.

use hyperion_net::netsim::Network;
use hyperion_net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_sim::time::Ns;
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = TransportKind> {
    prop_oneof![
        Just(TransportKind::Udp),
        Just(TransportKind::Tcp),
        Just(TransportKind::Rdma),
        Just(TransportKind::Homa),
    ]
}

fn ep_kind_strategy() -> impl Strategy<Value = EndpointKind> {
    prop_oneof![
        Just(EndpointKind::Hardware),
        Just(EndpointKind::Kernel),
        Just(EndpointKind::Bypass),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Causality: every delivery completes strictly after it was sent, for
    /// any transport, endpoint mix, and message size.
    #[test]
    fn deliveries_are_causal(
        kind in kind_strategy(),
        ek in ep_kind_strategy(),
        bytes in 0u64..4_000_000,
        start in 0u64..1_000_000_000,
    ) {
        let mut net = Network::new();
        let a = Endpoint::new(net.add_node(), ek);
        let b = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let d = Transport::new(kind).send(&mut net, a, b, Ns(start), bytes).unwrap();
        prop_assert!(d.done > Ns(start));
    }

    /// Uncontended latency is monotone in message size (same fresh network
    /// for each size, same transport).
    #[test]
    fn bigger_messages_are_never_faster(
        kind in kind_strategy(),
        base in 1u64..500_000,
        extra in 1u64..500_000,
    ) {
        let run = |bytes: u64| -> Ns {
            let mut net = Network::new();
            let a = Endpoint::new(net.add_node(), EndpointKind::Kernel);
            let b = Endpoint::new(net.add_node(), EndpointKind::Kernel);
            Transport::new(kind).send(&mut net, a, b, Ns::ZERO, bytes).unwrap().done
        };
        prop_assert!(run(base + extra) >= run(base));
    }

    /// The transport layer is deterministic: identical scenarios produce
    /// identical timelines.
    #[test]
    fn transports_are_deterministic(
        kind in kind_strategy(),
        sizes in proptest::collection::vec(1u64..100_000, 1..20),
    ) {
        let run = || -> Vec<u64> {
            let mut net = Network::new();
            let a = Endpoint::new(net.add_node(), EndpointKind::Bypass);
            let b = Endpoint::new(net.add_node(), EndpointKind::Hardware);
            let tr = Transport::new(kind);
            let mut t = Ns::ZERO;
            sizes
                .iter()
                .map(|&s| {
                    let d = tr.send(&mut net, a, b, t, s).unwrap();
                    t = d.done;
                    d.done.0
                })
                .collect()
        };
        prop_assert_eq!(run(), run());
    }

    /// Request/response counts at least one RTT and finishes after the
    /// server work.
    #[test]
    fn requests_include_server_work(
        kind in kind_strategy(),
        work in 0u64..10_000_000,
    ) {
        let mut net = Network::new();
        let c = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let s = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let d = Transport::new(kind)
            .request(&mut net, c, s, Ns::ZERO, 64, 64, Ns(work))
            .unwrap();
        prop_assert!(d.wire_rounds >= 1);
        prop_assert!(d.done >= Ns(work));
    }

    /// FIFO links: sequential messages on the same pair complete in order.
    #[test]
    fn same_pair_messages_complete_in_order(
        sizes in proptest::collection::vec(1u64..200_000, 2..20),
    ) {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        let mut last = Ns::ZERO;
        for &s in &sizes {
            // All sent at t=0: the uplink serializes them FIFO.
            let arrival = net.deliver(a, b, Ns::ZERO, s, None).unwrap();
            prop_assert!(arrival >= last);
            last = arrival;
        }
    }
}
