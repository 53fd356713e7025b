//! Pointer chasing over the network (paper §2.4): the latency-sensitive
//! workload that motivates pushing traversal logic into the DPU.
//!
//! A remote client looks up keys in a B+ tree stored on the DPU's flash,
//! two ways: walking the tree itself (one round trip per node) and asking
//! the DPU to walk it (one round trip total).
//!
//! Run with: `cargo run --example pointer_chasing`

use hyperion_repro::apps::pointer_chase::{client_driven_lookup, offloaded_lookup, populate_tree};
use hyperion_repro::core::dpu::DpuBuilder;
use hyperion_repro::net::rpc::RpcChannel;
use hyperion_repro::net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_repro::net::Network;
use hyperion_repro::sim::time::Ns;

fn main() {
    for &keys in &[1_000u64, 50_000] {
        let mut dpu = DpuBuilder::new().auth_key(1).build();
        let t0 = dpu.boot(Ns::ZERO).expect("boot");
        let t0 = populate_tree(&mut dpu, keys, t0);
        let height = dpu.btree.as_ref().expect("tree").height();
        println!("\ntree of {keys} keys (height {height}):");

        // Time threads forward across transports: the flash timeline is
        // shared, so each measurement starts where the previous ended.
        let mut t0 = t0;
        for kind in [TransportKind::Udp, TransportKind::Rdma] {
            let mut net = Network::new();
            let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
            let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
            let mut ch = RpcChannel::new(client, server, Transport::new(kind));

            let key = keys / 2;
            let cli = client_driven_lookup(&mut dpu, &mut ch, &mut net, key, t0);
            let off = offloaded_lookup(&mut dpu, &mut ch, &mut net, key, cli.done);
            assert_eq!(cli.value, off.value);
            let cli_lat = cli.done - t0;
            let off_lat = off.done - cli.done;
            t0 = off.done;
            println!(
                "  {:>4}: client-driven {:>12} ({} RTTs)   offloaded {:>12} ({} RTT)   speedup {:.2}x",
                kind.name(),
                format!("{cli_lat}"),
                cli.rtts,
                format!("{off_lat}"),
                off.rtts,
                cli_lat.0 as f64 / off_lat.0 as f64,
            );
        }
    }
}
