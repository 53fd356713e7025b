//! Cross-crate workload integration: the §2.4 applications running
//! together on one DPU, plus remote access through the network stack.

use hyperion_repro::apps::fail2ban;
use hyperion_repro::apps::pointer_chase::{client_driven_lookup, offloaded_lookup, populate_tree};
use hyperion_repro::apps::trafficgen::TrafficGen;
use hyperion_repro::core::control::ControlPlane;
use hyperion_repro::core::dpu::DpuBuilder;
use hyperion_repro::core::services::{KvOp, LogOp, ServiceResponse, TreeOp};
use hyperion_repro::net::rpc::RpcChannel;
use hyperion_repro::net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_repro::net::Network;
use hyperion_repro::sim::time::Ns;

const KEY: u64 = 0xC0FFEE;

#[test]
fn middleware_and_storage_services_share_one_dpu() {
    let mut dpu = DpuBuilder::new().auth_key(KEY).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let mut cp = ControlPlane::new(KEY);

    // 1. fail2ban kernel in slot 0, processing attack traffic.
    let (slot, live) = fail2ban::deploy(&mut dpu, &mut cp, t0).expect("deploy");
    let mut gen = TrafficGen::new(5, 200, 0.5, 32);
    let report = fail2ban::run_on_dpu(&mut dpu, &mut cp, slot, &mut gen, 3_000, live);
    assert!(report.bans > 0);
    assert_eq!(report.bans, report.logged);

    // 2. Meanwhile, the same DPU serves KV and tree lookups.
    let mut t = report.end;
    for k in 0..200u64 {
        let (_, t2) = dpu
            .dispatch(
                t,
                TreeOp::Insert {
                    key: k,
                    value: k + 1,
                },
            )
            .expect("insert");
        t = t2;
    }
    let (resp, t) = dpu
        .dispatch(t, TreeOp::Lookup { key: 150 })
        .expect("lookup");
    let ServiceResponse::Value(v) = resp else {
        panic!("expected value");
    };
    assert_eq!(v, Some(151));

    // 3. The ban log and the tree coexist: read a ban entry back.
    let (resp, _) = dpu
        .dispatch(t, LogOp::Read { position: 0 })
        .expect("log read");
    assert!(matches!(resp, ServiceResponse::Entry(_)));
}

#[test]
fn remote_clients_see_consistent_tree_state_over_every_transport() {
    let mut dpu = DpuBuilder::new().auth_key(KEY).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let t0 = populate_tree(&mut dpu, 2_000, t0);

    for kind in TransportKind::ALL {
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Bypass);
        let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        let mut ch = RpcChannel::new(client, server, Transport::new(kind));
        let off = offloaded_lookup(&mut dpu, &mut ch, &mut net, 777, t0);
        let cli = client_driven_lookup(&mut dpu, &mut ch, &mut net, 777, off.done);
        assert_eq!(off.value, Some(777 * 7), "{}", kind.name());
        assert_eq!(cli.value, off.value, "{}", kind.name());
        assert!(cli.rtts > off.rtts, "{}", kind.name());
    }
}

#[test]
fn tenancy_and_services_do_not_interfere() {
    // Deploy co-tenants while storage services keep running; the resident
    // pipeline's items and the LSM both make progress.
    let mut dpu = DpuBuilder::new().auth_key(KEY).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let mut cp = ControlPlane::new(KEY);
    let report = hyperion_repro::core::tenancy::run_with_co_tenants(
        &mut dpu,
        &mut cp,
        500,
        Ns(2_000),
        2,
        t0,
    )
    .expect("tenancy");
    assert_eq!(report.reconfigurations, 2);
    assert_eq!(report.resident_latency.count(), 500);

    let (_, t) = dpu
        .dispatch(report.end, KvOp::Put { key: 1, value: 2 })
        .expect("put");
    let (resp, _) = dpu.dispatch(t, KvOp::Get { key: 1 }).expect("get");
    let ServiceResponse::Value(v) = resp else {
        panic!("expected value");
    };
    assert_eq!(v, Some(2));
}
