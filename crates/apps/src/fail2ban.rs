//! A fail2ban-style packet logger running CPU-free on the DPU.
//!
//! Paper §2.4, workload 1: "high data volume network middleware
//! applications such as fail2Ban ... have traffic-flow proportional states
//! that either need to be persisted (in case of fail2Ban that needs to log
//! network traffic data persistently)". On Hyperion the classification
//! runs as a verified eBPF kernel in a slot (failure counting in a map,
//! ban decisions inline) and every ban event is persisted to the Corfu
//! log on the attached SSDs — end to end with no CPU.
//!
//! The host variant used by experiment E7 runs the same eBPF program in
//! the interpreter on kernel-endpoint packets and persists through the
//! kernel block stack.

use hyperion::control::{ControlError, ControlPlane, ControlRequest, ControlResponse};
use hyperion::dpu::HyperionDpu;
use hyperion_ebpf::MapId;
use hyperion_fabric::slots::SlotId;
use hyperion_sim::stats::Counters;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{At, Component};

use crate::trafficgen::TrafficGen;

/// Failures before a flow is banned (the classic fail2ban `maxretry`).
pub const MAX_RETRY: u64 = 5;

/// The eBPF classifier: keyed by flow hash, counts auth failures in a
/// hash map and returns 1 (ban now), 2 (already banned), or 0 (pass).
///
/// ABI: the first 8 context bytes are the flow hash (steering metadata
/// prepended by the MAC pipeline); byte 8 is the auth-failed marker.
pub const FAIL2BAN_EBPF: &str = r"
    ; r9 = ctx (callee-saved across helper calls), r6 = flow hash
    mov r9, r1
    ldxdw r6, [r9+0]
    ; already banned? (map 1 = ban set)
    mov r1, 1
    mov r2, r6
    call map_contains
    jeq r0, 0, not_banned
    mov r0, 2
    exit
not_banned:
    ; auth failure marker?
    ldxb r7, [r9+8]
    jne r7, 0xFA, pass
    ; bump failure count (map 0)
    mov r1, 0
    mov r2, r6
    call map_lookup
    add r0, 1
    mov r8, r0
    mov r1, 0
    mov r2, r6
    mov r3, r8
    call map_update
    ; ban when the count reaches MAX_RETRY
    jlt r8, 5, pass
    mov r1, 1
    mov r2, r6
    mov r3, 1
    call map_update
    mov r0, 1
    exit
pass:
    mov r0, 0
    exit
";

/// Context bytes the kernel declares (hash + marker + headroom).
pub const CTX_LEN: u64 = 64;

/// Outcome of a fail2ban run.
#[derive(Debug)]
pub struct Fail2BanReport {
    /// Packets processed.
    pub packets: u64,
    /// Flows banned.
    pub bans: u64,
    /// Packets from already-banned flows that were dropped.
    pub dropped: u64,
    /// Ban events durably logged.
    pub logged: u64,
    /// Completion instant of the whole run.
    pub end: Ns,
    /// Structural counters.
    pub counters: Counters,
}

/// Deploys the classifier into a slot and returns (slot, live instant).
pub fn deploy(
    dpu: &mut HyperionDpu,
    cp: &mut ControlPlane,
    now: Ns,
) -> Result<(SlotId, Ns), ControlError> {
    let resp = cp.handle(
        dpu,
        ControlRequest::Deploy {
            name: "fail2ban".into(),
            source: FAIL2BAN_EBPF.into(),
            ctx_min_len: CTX_LEN,
        },
        now,
    )?;
    let ControlResponse::Deployed { slot, live_at } = resp else {
        unreachable!("deploy returns Deployed");
    };
    // Maps: 0 = failure counts, 1 = ban set.
    let kernel = cp.kernel_mut(slot).expect("just deployed");
    let counts = kernel.vm.maps.add_hash(1 << 20);
    let bans = kernel.vm.maps.add_hash(1 << 20);
    debug_assert_eq!(counts, MapId(0));
    debug_assert_eq!(bans, MapId(1));
    Ok((slot, live_at))
}

/// Runs `packets` of traffic through the deployed classifier, persisting
/// every ban event to the shared log.
///
/// With a recorder, every packet records its pipeline hop (`f2b:pipeline`,
/// fabric), and every ban records the fire-and-forget flash durability
/// window (`log:append`, nvme) plus an `e7.ban_durable` op sample.
pub fn run_on_dpu<'r>(
    dpu: &mut HyperionDpu,
    cp: &mut ControlPlane,
    slot: SlotId,
    gen: &mut TrafficGen,
    packets: u64,
    at: impl Into<At<'r>>,
) -> Fail2BanReport {
    let At { mut now, mut rec } = at.into();
    let mut report = Fail2BanReport {
        packets,
        bans: 0,
        dropped: 0,
        logged: 0,
        end: now,
        counters: Counters::new(),
    };
    for _ in 0..packets {
        let (flow, packet) = gen.next_packet();
        // Build the kernel context: flow hash + marker + payload head.
        let mut ctx = vec![0u8; CTX_LEN as usize];
        ctx[0..8].copy_from_slice(&packet.flow.hash64().to_le_bytes());
        ctx[8] = packet.payload[0];
        let kernel = cp.kernel_mut(slot).expect("kernel deployed");
        let (result, done) = kernel
            .pipeline
            .process(&mut kernel.vm, &mut ctx, now)
            .expect("verified kernel cannot fault");
        if let Some(r) = rec.as_deref_mut() {
            r.record_hop(Component::Fabric, "f2b:pipeline", now, done);
        }
        now = done;
        match result.ret {
            1 => {
                report.bans += 1;
                // Persist the ban durably (flow id + time) to the log.
                // The append is fire-and-forget: the pipeline does not
                // stall on the flash program; the log unit's own timeline
                // tracks durability.
                let mut entry = Vec::with_capacity(16);
                entry.extend_from_slice(&flow.to_le_bytes());
                entry.extend_from_slice(&now.0.to_le_bytes());
                let (_, durable_at) = dpu.log.append(&entry, now).expect("log append");
                if let Some(r) = rec.as_deref_mut() {
                    r.record_hop(Component::Nvme, "log:append", now, durable_at);
                    r.record_op("e7.ban_durable", durable_at.saturating_sub(now));
                }
                report.logged += 1;
            }
            2 => report.dropped += 1,
            _ => {}
        }
    }
    report.end = now;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_telemetry::Recorder;

    const KEY: u64 = 0xC0FFEE;

    fn setup() -> (HyperionDpu, ControlPlane, SlotId, Ns) {
        let mut dpu = hyperion::dpu::DpuBuilder::new().auth_key(KEY).build();
        let t = dpu.boot(Ns::ZERO).unwrap();
        let mut cp = ControlPlane::new(KEY);
        let (slot, live) = deploy(&mut dpu, &mut cp, t).unwrap();
        (dpu, cp, slot, live)
    }

    #[test]
    fn attackers_get_banned_and_logged() {
        let (mut dpu, mut cp, slot, t) = setup();
        // All flows are attackers: bans must happen after MAX_RETRY.
        let mut gen = TrafficGen::new(11, 50, 1.0, 32);
        let report = run_on_dpu(&mut dpu, &mut cp, slot, &mut gen, 2_000, t);
        assert!(report.bans > 0, "some flows must be banned");
        assert_eq!(report.bans, report.logged);
        assert!(report.dropped > 0, "banned flows keep sending");
        // Ban events are durable on the log.
        let (entry, _) = dpu.log.read(0, report.end).unwrap();
        assert!(matches!(entry, hyperion_storage::corfu::LogEntry::Data(_)));
    }

    #[test]
    fn traced_run_matches_untraced_and_records_hops() {
        let (mut dpu1, mut cp1, slot1, t1) = setup();
        let (mut dpu2, mut cp2, slot2, t2) = setup();
        let mut gen1 = TrafficGen::new(11, 50, 1.0, 32);
        let mut gen2 = TrafficGen::new(11, 50, 1.0, 32);
        let plain = run_on_dpu(&mut dpu1, &mut cp1, slot1, &mut gen1, 1_000, t1);
        let mut rec = Recorder::new("t");
        let traced = run_on_dpu(
            &mut dpu2,
            &mut cp2,
            slot2,
            &mut gen2,
            1_000,
            At::new(t2, Some(&mut rec)),
        );
        assert_eq!(plain.end, traced.end);
        assert_eq!(plain.bans, traced.bans);
        assert_eq!(plain.logged, traced.logged);
        let rows = rec.hop_rows();
        let pipeline = rows.iter().find(|r| r.name == "f2b:pipeline").unwrap();
        assert_eq!(pipeline.count, 1_000);
        let append = rows.iter().find(|r| r.name == "log:append").unwrap();
        assert_eq!(append.count, traced.logged);
    }

    #[test]
    fn clean_traffic_is_never_banned() {
        let (mut dpu, mut cp, slot, t) = setup();
        let mut gen = TrafficGen::new(12, 100, 0.0, 32);
        let report = run_on_dpu(&mut dpu, &mut cp, slot, &mut gen, 1_000, t);
        assert_eq!(report.bans, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.logged, 0);
    }

    #[test]
    fn ban_threshold_is_exact() {
        let (dpu, mut cp, slot, t) = setup();
        // One attacker flow sending exactly MAX_RETRY failures: banned on
        // the last one.
        let gen = TrafficGen::new(13, 1, 1.0, 32);
        let key = gen.flow_key(0).hash64();
        let kernel = cp.kernel_mut(slot).unwrap();
        let mut now = t;
        let mut ban_at = None;
        for i in 1..=MAX_RETRY {
            let mut ctx = vec![0u8; CTX_LEN as usize];
            ctx[0..8].copy_from_slice(&key.to_le_bytes());
            ctx[8] = 0xFA;
            let (r, done) = kernel
                .pipeline
                .process(&mut kernel.vm, &mut ctx, now)
                .unwrap();
            now = done;
            if r.ret == 1 {
                ban_at = Some(i);
            }
        }
        assert_eq!(ban_at, Some(MAX_RETRY));
        let _ = dpu;
    }
}
