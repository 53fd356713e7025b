//! E7 — Middleware on the DPU (paper §2.4): fail2ban persistent packet
//! logging and the load balancer's flash spill behaviour.

use hyperion::control::ControlPlane;
use hyperion::dpu::DpuBuilder;
use hyperion_apps::fail2ban::{deploy, run_on_dpu, run_on_dpu_traced};
use hyperion_apps::loadbalancer::LoadBalancer;
use hyperion_apps::trafficgen::TrafficGen;
use hyperion_baseline::host::HostServer;
use hyperion_ebpf::{assemble, Vm};
use hyperion_net::params::KERNEL_ENDPOINT;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{Component, Recorder};

use crate::table::{fmt_rate, Table};

const KEY: u64 = 0xC0FFEE;

/// Packets per fail2ban run.
const PACKETS: u64 = 20_000;

/// Runs E7: fail2ban DPU vs host, then the LB spill sweep.
pub fn run() -> Vec<Table> {
    vec![fail2ban_table(), lb_table()]
}

fn fail2ban_table() -> Table {
    let mut t = Table::new(
        "E7: fail2ban packet logging, DPU pipeline+log vs host interpreter+kernel I/O",
        &["platform", "packets/s", "bans", "durably logged"],
    );
    // DPU side: deployed kernel + Corfu log.
    let mut dpu = DpuBuilder::new().auth_key(KEY).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let mut cp = ControlPlane::new(KEY);
    let (slot, live) = deploy(&mut dpu, &mut cp, t0).expect("deploy");
    let mut gen = TrafficGen::new(99, 5_000, 0.1, 64);
    let report = run_on_dpu(&mut dpu, &mut cp, slot, &mut gen, PACKETS, live);
    let dpu_elapsed = (report.end - live).as_secs_f64();
    t.row(vec![
        "hyperion".into(),
        fmt_rate(PACKETS as f64 / dpu_elapsed),
        report.bans.to_string(),
        report.logged.to_string(),
    ]);

    // Host side: the same eBPF program interpreted per packet behind the
    // kernel network endpoint, ban events persisted via kernel writes.
    let program = assemble(
        "fail2ban",
        hyperion_apps::fail2ban::FAIL2BAN_EBPF,
        hyperion_apps::fail2ban::CTX_LEN,
    )
    .expect("asm");
    let mut vm = Vm::new();
    vm.maps.add_hash(1 << 20);
    vm.maps.add_hash(1 << 20);
    let mut host = HostServer::new(1 << 20);
    let mut gen = TrafficGen::new(99, 5_000, 0.1, 64);
    let mut now = Ns::ZERO;
    let mut bans = 0u64;
    let mut logged = 0u64;
    let mut log_lba = 0u64;
    const INTERP_NS_PER_INSN: u64 = 1; // ~3 GHz core, ~3 insn cycles each
    for _ in 0..PACKETS {
        let (_, packet) = gen.next_packet();
        let mut ctx = vec![0u8; hyperion_apps::fail2ban::CTX_LEN as usize];
        ctx[0..8].copy_from_slice(&packet.flow.hash64().to_le_bytes());
        ctx[8] = packet.payload[0];
        let r = vm.run(&program, &mut ctx).expect("run");
        // Kernel packet path + interpretation on a core.
        now = host.cpu(now, KERNEL_ENDPOINT + Ns(r.insns * INTERP_NS_PER_INSN));
        if r.ret == 1 {
            bans += 1;
            // Mirror the DPU's asynchronous durability: the host still
            // pays the synchronous CPU half of the write (syscall, block
            // stack, copy-in), while the flash program proceeds in the
            // background on the raw device.
            now = host.cpu(
                now,
                hyperion_baseline::host::SYSCALL + hyperion_baseline::host::BLOCK_STACK,
            );
            now = host.copy(now, 4096);
            host.raw_device()
                .submit(
                    hyperion_nvme::device::Command::Write {
                        lba: log_lba,
                        data: bytes::Bytes::from(vec![0u8; 4096]),
                    },
                    now,
                )
                .expect("log write");
            log_lba += 1;
            logged += 1;
        }
    }
    let host_elapsed = now.as_secs_f64();
    t.row(vec![
        "host".into(),
        fmt_rate(PACKETS as f64 / host_elapsed),
        bans.to_string(),
        logged.to_string(),
    ]);
    t
}

fn lb_table() -> Table {
    let mut t = Table::new(
        "E7b: L4 load balancer with flash spill (DRAM table = 50k flows)",
        &[
            "flows",
            "spilled",
            "flash promotions",
            "packets/s",
            "max steer",
        ],
    );
    for &flows in &[10_000u64, 50_000, 200_000] {
        let mut lb = LoadBalancer::new(16, 50_000, 1 << 20);
        let mut gen = TrafficGen::new(7, flows, 0.0, 16);
        let mut now = Ns::ZERO;
        // Connection-setup phase: every flow sends its first packet, so
        // the table genuinely holds `flows` entries before steady state.
        for f in 0..flows {
            let (_, done) = lb.steer(f, now);
            now = done;
        }
        let steady_start = now;
        let packets = 100_000u64;
        let mut worst = Ns::ZERO;
        for _ in 0..packets {
            let (flow, _) = gen.next_packet();
            let before = now;
            let (_, done) = lb.steer(flow, now);
            now = done;
            worst = worst.max(done - before);
        }
        t.row(vec![
            flows.to_string(),
            lb.counters.get("spills").to_string(),
            lb.counters.get("promotions").to_string(),
            fmt_rate(packets as f64 / (now - steady_start).as_secs_f64()),
            format!("{worst}"),
        ]);
    }
    t
}

/// Packets in the telemetry run (smaller than the throughput run: every
/// packet retains a span).
const TELEMETRY_PACKETS: u64 = 5_000;

/// Telemetry run: fail2ban both ways. The DPU side traces the fabric
/// pipeline and the fire-and-forget log appends; the host side traces the
/// kernel packet path, the synchronous half of each ban's log write, and
/// the raw-device flash program (with its queue-depth gauge).
pub fn telemetry() -> Recorder {
    let mut rec = Recorder::new("E7: fail2ban packet logging, DPU vs host");

    let mut dpu = DpuBuilder::new().auth_key(KEY).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let mut cp = ControlPlane::new(KEY);
    let (slot, live) = deploy(&mut dpu, &mut cp, t0).expect("deploy");
    let mut gen = TrafficGen::new(99, 5_000, 0.1, 64);
    let _ = run_on_dpu_traced(
        &mut dpu,
        &mut cp,
        slot,
        &mut gen,
        TELEMETRY_PACKETS,
        live,
        Some(&mut rec),
    );

    let program = assemble(
        "fail2ban",
        hyperion_apps::fail2ban::FAIL2BAN_EBPF,
        hyperion_apps::fail2ban::CTX_LEN,
    )
    .expect("asm");
    let mut vm = Vm::new();
    vm.maps.add_hash(1 << 20);
    vm.maps.add_hash(1 << 20);
    let mut host = HostServer::new(1 << 20);
    let mut gen = TrafficGen::new(99, 5_000, 0.1, 64);
    let mut now = Ns::ZERO;
    let mut log_lba = 0u64;
    const INTERP_NS_PER_INSN: u64 = 1;
    for _ in 0..TELEMETRY_PACKETS {
        let (_, packet) = gen.next_packet();
        let mut ctx = vec![0u8; hyperion_apps::fail2ban::CTX_LEN as usize];
        ctx[0..8].copy_from_slice(&packet.flow.hash64().to_le_bytes());
        ctx[8] = packet.payload[0];
        let r = vm.run(&program, &mut ctx).expect("run");
        let done = host.cpu(now, KERNEL_ENDPOINT + Ns(r.insns * INTERP_NS_PER_INSN));
        rec.record_hop(Component::Host, "kernel:packet", now, done);
        now = done;
        if r.ret == 1 {
            let t = host.cpu(
                now,
                hyperion_baseline::host::SYSCALL + hyperion_baseline::host::BLOCK_STACK,
            );
            let t = host.copy(t, 4096);
            rec.record_hop(Component::Host, "kernel:log_write", now, t);
            now = t;
            host.raw_device()
                .submit_traced(
                    hyperion_nvme::device::Command::Write {
                        lba: log_lba,
                        data: bytes::Bytes::from(vec![0u8; 4096]),
                    },
                    now,
                    Some(&mut rec),
                )
                .expect("log write");
            log_lba += 1;
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    #[test]
    fn telemetry_traces_both_platforms() {
        let rec = telemetry();
        let rows = rec.hop_rows();
        let pipeline = rows.iter().find(|r| r.name == "f2b:pipeline").unwrap();
        let kernel = rows.iter().find(|r| r.name == "kernel:packet").unwrap();
        assert_eq!(pipeline.count, TELEMETRY_PACKETS);
        assert_eq!(kernel.count, TELEMETRY_PACKETS);
        // Same traffic, same classifier: both sides persist bans, and the
        // host pays strictly more time per packet.
        assert!(rows.iter().any(|r| r.name == "log:append"));
        assert!(rows.iter().any(|r| r.name == "nvme:write"));
        assert!(kernel.total > pipeline.total);
        assert_eq!(rec.open_spans(), 0);
    }

    fn f2b() -> &'static Table {
        static T: OnceLock<Table> = OnceLock::new();
        T.get_or_init(fail2ban_table)
    }

    fn lb() -> &'static Table {
        static T: OnceLock<Table> = OnceLock::new();
        T.get_or_init(lb_table)
    }

    #[test]
    fn dpu_outpaces_host_and_both_log_all_bans() {
        let t = f2b();
        let dpu_rate = t.cell(0, 1).rate();
        let host_rate = t.cell(1, 1).rate();
        assert!(
            dpu_rate > host_rate * 3.0,
            "dpu {dpu_rate} vs host {host_rate}"
        );
        // Both persist every ban.
        assert_eq!(t.rows[0][2], t.rows[0][3]);
        assert_eq!(t.rows[1][2], t.rows[1][3]);
    }

    #[test]
    fn lb_spills_only_beyond_dram_capacity() {
        let t = lb();
        let spills = |i: usize| -> u64 { t.cell(i, 1).u64() };
        assert_eq!(spills(0), 0, "10k flows fit in DRAM");
        assert!(spills(2) > 0, "200k flows must spill");
    }

    #[test]
    fn throughput_degrades_gracefully_under_spill() {
        let t = lb();
        let r_small = t.cell(0, 3).rate();
        let r_big = t.cell(2, 3).rate();
        assert!(r_big < r_small, "spill costs throughput");
        // 4x the DRAM capacity with Zipf-0.9 traffic: ~40% of packets
        // pay a flash tR to re-promote a cold flow, so the rate drops two
        // orders of magnitude — but the balancer keeps *working* with a
        // flow table far beyond DRAM, which is the Tiara problem Hyperion
        // solves without an external x86 spill target.
        assert!(
            r_big > 20_000.0,
            "spill throughput must stay usable: {r_small} -> {r_big}"
        );
    }
}
