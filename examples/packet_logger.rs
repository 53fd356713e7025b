//! The fail2ban-style persistent packet logger (paper §2.4): a verified
//! eBPF classifier deployed into a fabric slot, counting auth failures per
//! flow and durably logging every ban to the Corfu shared log on the
//! DPU's own SSDs.
//!
//! Run with: `cargo run --example packet_logger`

use hyperion_repro::apps::fail2ban::{deploy, run_on_dpu, MAX_RETRY};
use hyperion_repro::apps::trafficgen::TrafficGen;
use hyperion_repro::core::control::ControlPlane;
use hyperion_repro::core::dpu::DpuBuilder;
use hyperion_repro::sim::time::Ns;
use hyperion_repro::storage::corfu::LogEntry;

const AUTH_KEY: u64 = 0xC0FFEE;

fn main() {
    let mut dpu = DpuBuilder::new().auth_key(AUTH_KEY).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let mut cp = ControlPlane::new(AUTH_KEY);
    let (slot, live) = deploy(&mut dpu, &mut cp, t0).expect("deploy");
    println!("fail2ban kernel live in {slot} (maxretry = {MAX_RETRY})");

    // 20k packets from 2,000 flows; 15% of flows are brute-forcers.
    let mut gen = TrafficGen::new(2026, 2_000, 0.15, 64);
    let report = run_on_dpu(&mut dpu, &mut cp, slot, &mut gen, 20_000, live);
    let elapsed = report.end - live;
    println!(
        "processed {} packets in {elapsed} ({:.2} Mpps)",
        report.packets,
        report.packets as f64 / elapsed.as_secs_f64() / 1e6,
    );
    println!(
        "bans: {}   drops of banned flows: {}   ban events logged: {}",
        report.bans, report.dropped, report.logged
    );

    // Read the first few ban records back from the durable log.
    println!("\nfirst ban records from the shared log:");
    for pos in 0..report.logged.min(5) {
        let (entry, _) = dpu.log.read(pos, report.end).expect("read");
        if let LogEntry::Data(d) = entry {
            let flow = u64::from_le_bytes(d[0..8].try_into().expect("8 bytes"));
            let at = u64::from_le_bytes(d[8..16].try_into().expect("8 bytes"));
            println!("  position {pos}: flow {flow} banned at {}", Ns(at));
        }
    }
}
