//! Distributed CPU-free deployments (paper §2.4 C1, §4 Q3): a cluster of
//! DPUs serving a partitioned KV store with client-driven routing, a
//! cluster-wide shared log, and remote block access through the NVMe-oF
//! target.
//!
//! Run with: `cargo run --example distributed`

use hyperion_repro::core::cluster::DpuCluster;
use hyperion_repro::core::nvmeof::{Initiator, NvmeOfTarget, ResponseCapsule};
use hyperion_repro::core::services::{KvOp, ServiceResponse};
use hyperion_repro::net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_repro::net::Network;
use hyperion_repro::sim::time::Ns;
use hyperion_repro::storage::corfu::CorfuLog;

const KEY: u64 = 0xC0FFEE;

fn main() {
    // 1. Boot a 4-DPU cluster (members boot in parallel).
    let (mut cluster, ready) = DpuCluster::boot(4, KEY, Ns::ZERO);
    println!("{}-DPU cluster ready at {ready}", cluster.len());

    // 2. Client-driven partitioned KV: the client routes each key to its
    //    owner directly, no coordinator on the path.
    let mut now = ready;
    for k in 0..12u64 {
        let (owner, _, done) = cluster
            .serve_partitioned(
                k,
                KvOp::Put {
                    key: k,
                    value: k * k,
                },
                now,
            )
            .expect("put");
        now = done;
        println!("  key {k:>2} -> DPU {owner}");
    }
    let (_, resp, done) = cluster
        .serve_partitioned(7, KvOp::Get { key: 7 }, now)
        .expect("get");
    if let ServiceResponse::Value(v) = resp {
        println!("kv[7] = {v:?} (from DPU {})", cluster.owner_of(7));
    }
    now = done;

    // 3. Remote one-hop routing over the network.
    let mut net = Network::new();
    let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
    let endpoints: Vec<Endpoint> = (0..4)
        .map(|_| Endpoint::new(net.add_node(), EndpointKind::Hardware))
        .collect();
    let (_, d) = cluster
        .remote_call(
            &mut net,
            Transport::new(TransportKind::Udp),
            client,
            &endpoints,
            7,
            KvOp::Get { key: 7 },
            16,
            16,
            now,
        )
        .expect("remote call");
    println!(
        "remote get over UDP: {} in {} round trip(s)",
        d.done - now,
        d.wire_rounds
    );

    // 4. A cluster-wide shared log: global sequencer, one write-once unit
    //    per site, collective sealing on reconfiguration.
    let mut log = CorfuLog::new(4, 1 << 16);
    let mut t = now;
    for i in 0..8u64 {
        let (pos, done) = log
            .append(format!("event-{i}").as_bytes(), t)
            .expect("append");
        t = done;
        println!("  log position {pos} -> site {}", pos % 4);
    }
    log.reconfigure();
    println!("sealed into epoch 1; tail = {}", log.tail());

    // 5. NVMe-oF: block storage exported straight from a DPU's fabric.
    let mut target = NvmeOfTarget::new(1 << 16);
    let mut ini = Initiator::new();
    // A capsule crosses the fabric as its encoded header plus the inline
    // data as a separate segment; the 4 KiB block itself is never copied.
    let w = ini.write(3, bytes::Bytes::from(vec![0xAB; 4096]));
    let (header, data, t2) = target.handle(&w.encode(), w.data.clone(), t);
    let resp = ResponseCapsule::decode(&header, data).expect("decodable");
    println!("\nNVMe-oF write capsule -> {:?} at {t2}", resp.status);
    let r = ini.read(3, 1);
    let (header, data, _) = target.handle(&r.encode(), r.data.clone(), t2);
    let resp = ResponseCapsule::decode(&header, data).expect("decodable");
    println!(
        "NVMe-oF read capsule  -> {:?}, {} bytes, first byte {:#x}",
        resp.status,
        resp.data.len(),
        resp.data[0]
    );
}
