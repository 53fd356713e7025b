//! Determinism property for the telemetry subsystem: a recorder's dump is
//! a pure function of the simulated run. Two E6 pointer-chase runs with
//! the same configuration must produce byte-identical JSON dumps — no
//! wall-clock, no randomness, no map iteration order anywhere on the
//! recording path.

use hyperion_repro::apps::pointer_chase::{
    client_driven_lookup_traced, offloaded_lookup_traced, populate_tree,
};
use hyperion_repro::core::dpu::DpuBuilder;
use hyperion_repro::net::rpc::RpcChannel;
use hyperion_repro::net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_repro::net::Network;
use hyperion_repro::sim::time::Ns;
use hyperion_repro::telemetry::json::to_json;
use hyperion_repro::telemetry::Recorder;
use proptest::prelude::*;

/// One traced pointer-chase run (the E6 shape), returning its dump.
fn traced_chase(keys: u64, lookups: u64, kind: TransportKind) -> String {
    let mut dpu = DpuBuilder::new().auth_key(1).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let t0 = populate_tree(&mut dpu, keys, t0);
    let mut net = Network::new();
    let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
    let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
    let mut ch = RpcChannel::new(client, server, Transport::new(kind));
    let mut rec = Recorder::new("e6-determinism");
    let mut t = t0;
    for i in 0..lookups {
        let key = (i * keys / lookups).min(keys - 1);
        let cli = client_driven_lookup_traced(&mut dpu, &mut ch, &mut net, key, t, Some(&mut rec));
        t = cli.done;
        let off = offloaded_lookup_traced(&mut dpu, &mut ch, &mut net, key, t, Some(&mut rec));
        t = off.done;
    }
    assert_eq!(rec.open_spans(), 0, "instrumentation must close every span");
    to_json(&rec)
}

#[test]
fn same_seed_e6_runs_dump_identical_telemetry() {
    let a = traced_chase(2_000, 16, TransportKind::Udp);
    let b = traced_chase(2_000, 16, TransportKind::Udp);
    assert_eq!(a, b, "same-seed runs must dump byte-identical telemetry");
    // And the dump actually carries the breakdown sections.
    for section in ["\"hops\"", "\"ops\"", "\"energy_pj\"", "\"spans\""] {
        assert!(a.contains(section), "dump missing {section}");
    }
}

#[test]
fn merged_recorders_dump_deterministically() {
    let merged = |keys| {
        let mut base = Recorder::new("merged");
        for k in [keys, keys * 2] {
            let mut dpu = DpuBuilder::new().auth_key(1).build();
            let t0 = dpu.boot(Ns::ZERO).expect("boot");
            let t0 = populate_tree(&mut dpu, k, t0);
            let mut net = Network::new();
            let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
            let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
            let mut ch = RpcChannel::new(client, server, Transport::new(TransportKind::Udp));
            let mut rec = Recorder::new("part");
            offloaded_lookup_traced(&mut dpu, &mut ch, &mut net, k / 2, t0, Some(&mut rec));
            base.merge(&rec);
        }
        to_json(&base)
    };
    assert_eq!(merged(500), merged(500));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn dump_determinism_holds_across_configs(keys in 100u64..400, lookups in 1u64..6) {
        let a = traced_chase(keys, lookups, TransportKind::Udp);
        let b = traced_chase(keys, lookups, TransportKind::Udp);
        prop_assert_eq!(a, b);
    }
}
