//! Quickstart: assemble a Hyperion DPU, boot it standalone, deploy a
//! verified eBPF kernel over the control plane, and use the storage
//! services — with zero CPU on any data path.
//!
//! Run with: `cargo run --example quickstart`

use hyperion_repro::core::control::{ControlPlane, ControlRequest, ControlResponse};
use hyperion_repro::core::dpu::DpuBuilder;
use hyperion_repro::core::services::{KvOp, LogOp, ServiceResponse};
use hyperion_repro::mem::seglevel::SegmentId;
use hyperion_repro::sim::time::Ns;

const AUTH_KEY: u64 = 0xC0FFEE;

fn main() {
    // 1. Power on. The DPU self-tests, recovers its segment table from
    //    the boot NVMe area, and comes up with no host attached.
    let mut dpu = DpuBuilder::new().auth_key(AUTH_KEY).build();
    let ready = dpu.boot(Ns::ZERO).expect("standalone boot");
    println!("DPU ready at {ready} (state: {:?})", dpu.state());

    // 2. Deploy a packet-filter kernel through the network control plane:
    //    assemble -> verify -> compile to a hardware pipeline -> signed
    //    bitstream -> ICAP partial reconfiguration into a slot.
    let mut cp = ControlPlane::new(AUTH_KEY);
    let resp = cp
        .handle(
            &mut dpu,
            ControlRequest::Deploy {
                name: "drop-short".into(),
                source: r"
                    ; pass packets of at least 20 bytes
                    jlt r2, 20, drop
                    mov r0, 1
                    exit
                drop:
                    mov r0, 0
                    exit
                "
                .into(),
                ctx_min_len: 0,
            },
            ready,
        )
        .expect("deploy");
    let ControlResponse::Deployed { slot, live_at } = resp else {
        unreachable!()
    };
    println!(
        "kernel live in {slot} at {live_at} (reconfig {})",
        live_at - ready
    );

    // 3. Run packets through the deployed hardware pipeline.
    let kernel = cp.kernel_mut(slot).expect("deployed");
    let mut long_packet = vec![0u8; 64];
    let mut short_packet = vec![0u8; 8];
    let (pass, _) = kernel
        .pipeline
        .process(&mut kernel.vm, &mut long_packet, live_at)
        .expect("process");
    let (drop, _) = kernel
        .pipeline
        .process(&mut kernel.vm, &mut short_packet, live_at)
        .expect("process");
    println!("64 B packet -> {}, 8 B packet -> {}", pass.ret, drop.ret);

    // 4. The single-level store: one 128-bit id namespace over the NVMe
    //    devices; segments in the persisted table survive reboots.
    let t = live_at;
    dpu.segments
        .create(SegmentId(0xDECAF), 4096, t)
        .expect("create");
    let t = dpu
        .segments
        .write(SegmentId(0xDECAF), 0, b"persistent, CPU-free", t)
        .expect("write");
    let t = dpu.segments.persist_table(t).expect("persist");
    let t = dpu.boot(t).expect("reboot");
    let (data, t) = dpu
        .segments
        .read(SegmentId(0xDECAF), 0, 20, t)
        .expect("read");
    println!(
        "after reboot, segment 0xDECAF holds: {:?}",
        std::str::from_utf8(&data).expect("utf8")
    );

    // 5. The exported services: KV, shared log.
    let (_, t) = dpu
        .dispatch(t, KvOp::Put { key: 7, value: 42 })
        .expect("put");
    let (resp, t) = dpu.dispatch(t, KvOp::Get { key: 7 }).expect("get");
    if let ServiceResponse::Value(v) = resp {
        println!("kv[7] = {v:?}");
    }
    let (resp, _) = dpu
        .dispatch(
            t,
            LogOp::Append {
                data: bytes::Bytes::from_static(b"first entry"),
            },
        )
        .expect("append");
    if let ServiceResponse::Appended { position } = resp {
        println!("log position {position} written durably");
    }
    println!("total requests served: {}", dpu.counters.get("served"));
}
