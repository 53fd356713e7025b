//! E4 — eBPF execution: software interpretation vs. the compiled HDL
//! pipeline (paper §2.2, the hXDP/eHDL lineage).
//!
//! Three packet programs run both ways over the same packets:
//! a header filter, an IP-checksum validator, and a per-flow histogram.
//! The software side prices interpretation at a CPU-class per-instruction
//! cost plus the kernel packet path; the hardware side uses the pipeline's
//! initiation interval and depth at the fabric clock.

use hyperion_ebpf::{assemble, verify, Vm};
use hyperion_fabric::clock::ClockDomain;
use hyperion_hdl::compile;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{At, Component, Recorder};

use crate::table::{fmt_rate, Table};

/// Per-instruction interpretation cost on a 3 GHz core (conservative: the
/// kernel interpreter retires roughly 3 eBPF insns/ns-third).
const INTERP_NS_PER_INSN: f64 = 1.2;

/// Kernel packet-path overhead per packet on the software side (XDP-style
/// driver hook, well below the full socket path).
const SOFT_PACKET_OVERHEAD: Ns = Ns(300);

/// Packets per program: enough for a stable insns/pkt and p50/p99, small
/// enough to keep the span dump readable.
const PACKETS: u64 = 512;

/// The three programs of the experiment.
pub fn programs() -> Vec<(&'static str, String, u64)> {
    let filter = r"
        ; pass (1) TCP packets to port 22, drop (0) everything else
        ldxb r3, [r1+9]       ; protocol
        jne r3, 6, drop
        ldxh r4, [r1+22]      ; dst port (network order not modeled)
        jne r4, 22, drop
        mov r0, 1
        exit
    drop:
        mov r0, 0
        exit
    "
    .to_string();
    let checksum = r"
        ; validate the 20-byte IP header checksum
        mov r2, 20
        call checksum
        jeq r0, 0, ok
        mov r0, 0
        exit
    ok:
        mov r0, 1
        exit
    "
    .to_string();
    let histogram = r"
        ; bucket packets by length into map 0 (array of 16)
        mov r6, r2
        rsh r6, 7            ; 128-byte buckets
        jlt r6, 16, inrange
        mov r6, 15
    inrange:
        mov r1, 0
        mov r2, r6
        call map_lookup
        add r0, 1
        mov r8, r0
        mov r1, 0
        mov r2, r6
        mov r3, r8
        call map_update
        mov r0, 1
        exit
    "
    .to_string();
    vec![
        ("filter", filter, 64),
        ("ip-checksum", checksum, 64),
        ("len-histogram", histogram, 64),
    ]
}

/// Runs E4 and returns its table, plus the recorder of the same packets:
/// each program's packets recorded both ways, as fabric hops through the
/// HDL pipeline and as host hops through the interpreter + kernel packet
/// path.
pub fn run() -> (Vec<Table>, Recorder) {
    let mut rec = Recorder::new("E4: eBPF packet programs, pipeline vs interpreter");
    let mut t = Table::new(
        "E4: eBPF packet programs, interpreter vs HDL pipeline",
        &[
            "program",
            "insns/pkt",
            "pipeline depth",
            "II",
            "sw pkt/s",
            "hw pkt/s",
            "speedup",
        ],
    );
    for (name, source, ctx_len) in programs() {
        // Hop labels must be 'static: one pair per program of the fixed set.
        let (hw_hop, sw_hop) = match name {
            "filter" => ("hdl:filter", "interp:filter"),
            "ip-checksum" => ("hdl:ip-checksum", "interp:ip-checksum"),
            _ => ("hdl:len-histogram", "interp:len-histogram"),
        };
        let program = assemble(name, &source, ctx_len).expect("asm");
        let verified = verify(&program).expect("verify");
        let mut hw = compile(&verified, ClockDomain::new(250)).expect("compile");

        // Functional sanity + measured instruction count via the VM.
        let mut vm = Vm::new();
        if name == "len-histogram" {
            vm.maps.add_array(16);
        }
        let mut insns_total = 0u64;
        let mut packet = vec![0u8; ctx_len as usize];
        packet[9] = 6;
        packet[22] = 22;
        let mut hw_now = Ns::ZERO;
        let mut sw_now = Ns::ZERO;
        for i in 0..PACKETS {
            packet[0] = i as u8;
            // Traced admission also marks intake back-pressure (II
            // spacing) as a queueing edge for the critical-path analyzer.
            hw_now = hw.admit(hw_hop, At::new(hw_now, Some(&mut rec)));

            let r = vm.run(&program, &mut packet).expect("run");
            insns_total += r.insns;
            let sw_ns =
                SOFT_PACKET_OVERHEAD.0 + (r.insns as f64 * INTERP_NS_PER_INSN).round() as u64;
            rec.record_hop(Component::Host, sw_hop, sw_now, sw_now + Ns(sw_ns));
            sw_now += Ns(sw_ns);
        }
        let insns_per_pkt = insns_total as f64 / PACKETS as f64;

        // Software throughput: overhead + interpretation, one core.
        let sw_ns_per_pkt = SOFT_PACKET_OVERHEAD.0 as f64 + insns_per_pkt * INTERP_NS_PER_INSN;
        let sw_pps = 1e9 / sw_ns_per_pkt;

        // Hardware throughput: II-limited at the fabric clock.
        let hw_pps = hw.throughput_per_sec() as f64;

        t.row(vec![
            name.to_string(),
            format!("{insns_per_pkt:.1}"),
            hw.depth().to_string(),
            hw.ii().to_string(),
            fmt_rate(sw_pps),
            fmt_rate(hw_pps),
            format!("{:.1}x", hw_pps / sw_pps),
        ]);
    }
    (vec![t], rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::cached;

    #[test]
    fn telemetry_shows_pipeline_beating_interpreter() {
        let rec = cached("e4").1;
        let rows = rec.hop_rows();
        let hw = rows.iter().find(|r| r.name == "hdl:filter").unwrap();
        let sw = rows.iter().find(|r| r.name == "interp:filter").unwrap();
        assert_eq!(hw.count, PACKETS);
        assert_eq!(sw.count, PACKETS);
        assert!(sw.total > hw.total, "interpreter must be slower");
        assert_eq!(rec.open_spans(), 0);
    }

    #[test]
    fn all_programs_verify_and_compile() {
        let t = &cached("e4").0[0];
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn hardware_wins_by_an_order_of_magnitude_for_stateless() {
        let t = &cached("e4").0[0];
        // filter row: II = 1, expect >=10x (hXDP-class).
        let speedup = t.cell(0, t.headers.len() - 1).ratio();
        assert!(speedup >= 10.0, "filter speedup {speedup}");
    }

    #[test]
    fn stateful_programs_pay_ii() {
        let t = &cached("e4").0[0];
        let hist_ii = t.cell(2, 3).u64();
        assert!(hist_ii > 1, "histogram must have II > 1 (map update)");
        let filter_ii = t.cell(0, 3).u64();
        assert_eq!(filter_ii, 1);
    }
}
