//! F2 integration: the complete Figure-2 system, exercised across crate
//! boundaries — boot, control plane, hardware kernel, stream switch,
//! single-level store, and the durable path to flash, with the structural
//! guarantee that no stage involves a CPU.

use hyperion_repro::core::control::{ControlPlane, ControlRequest, ControlResponse};
use hyperion_repro::core::dpu::{DpuBuilder, DpuState};
use hyperion_repro::mem::seglevel::SegmentId;
use hyperion_repro::sim::time::Ns;

const KEY: u64 = 0xC0FFEE;

#[test]
fn full_figure2_flow_with_zero_cpu_hops() {
    let mut dpu = DpuBuilder::new().auth_key(KEY).build();
    let mut cp = ControlPlane::new(KEY);
    assert_eq!(dpu.state(), DpuState::PoweredOff);

    // Boot standalone.
    let booted = dpu.boot(Ns::ZERO).expect("boot");
    assert_eq!(dpu.state(), DpuState::Ready);

    // Deploy a checksum kernel over the control port.
    let resp = cp
        .handle(
            &mut dpu,
            ControlRequest::Deploy {
                name: "csum".into(),
                source: "mov r2, 64\ncall checksum\nexit".into(),
                ctx_min_len: 64,
            },
            booted,
        )
        .expect("deploy");
    let ControlResponse::Deployed { slot, live_at } = resp else {
        panic!("expected Deployed");
    };

    // Ingress: QSFP0 -> accel row through the AXIS arbiter.
    let at_accel = dpu
        .fabric
        .switch
        .stream(dpu.ports.qsfp0, dpu.ports.accel, live_at, 4096)
        .expect("ingress stream");

    // Process in the hardware pipeline (functional result from the VM).
    let kernel = cp.kernel_mut(slot).expect("deployed");
    let mut payload = vec![0x11u8; 4096];
    let (result, processed) = kernel
        .pipeline
        .process(&mut kernel.vm, &mut payload, at_accel)
        .expect("process");
    assert!(result.ret <= 0xFFFF, "checksum is 16-bit");

    // Egress toward storage and persist as a durable segment.
    let at_nvme = dpu
        .fabric
        .switch
        .stream(dpu.ports.accel, dpu.ports.nvme, processed, 4096)
        .expect("egress stream");
    dpu.segments
        .create(SegmentId(1), 4096, at_nvme)
        .expect("create");
    let done = dpu
        .segments
        .write(SegmentId(1), 0, &payload, at_nvme)
        .expect("write");

    // Causality and the zero-CPU property.
    assert!(done > booted);
    assert_eq!(dpu.root_complex.counters.get("cpu_hops"), 0);
    assert_eq!(dpu.root_complex.counters.get("dram_bounces"), 0);

    // The data actually landed: read it back.
    let (back, _) = dpu
        .segments
        .read(SegmentId(1), 0, 4096, done)
        .expect("read");
    assert_eq!(back.as_ref(), payload.as_slice());
}

#[test]
fn reboot_cycle_preserves_durable_state_and_slots_reset() {
    let mut dpu = DpuBuilder::new().auth_key(KEY).build();
    let t = dpu.boot(Ns::ZERO).expect("boot");
    dpu.segments.create(SegmentId(9), 8192, t).expect("create");
    dpu.segments
        .write(SegmentId(9), 100, b"across-reboots", t)
        .expect("write");
    let t = dpu.segments.persist_table(t).expect("persist");

    // Crash/reboot.
    let t = dpu.boot(t).expect("reboot");
    let (data, _) = dpu.segments.read(SegmentId(9), 100, 14, t).expect("read");
    assert_eq!(data.as_ref(), b"across-reboots");
    assert_eq!(dpu.counters.get("boots"), 2);
}
