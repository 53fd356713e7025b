//! `report --util` / `report --profile` renderers.
//!
//! Two observability views over the planes PR 5 added:
//!
//! * [`util_tables`] — per-recorder resource utilization (busy time,
//!   busy fraction of wall-clock, peak queue depth) and the bottleneck
//!   blame table from [`hyperion_telemetry::blame`];
//! * [`profile_tables`] — the eBPF hot-path profile: the fail2ban
//!   classifier and the pointer-chase walker driven with fixed inputs
//!   under [`Vm::run_profiled`], basic blocks ranked by cycle share
//!   plus helper-call and map-traffic counters.
//!
//! Both views are pure functions of deterministic runs, so their output
//! reproduces byte-for-byte — CI diffs them like any experiment table.

use hyperion_apps::fail2ban::CTX_LEN;
use hyperion_apps::{build_chain, chase_ctx, chase_program, FAIL2BAN_EBPF};
use hyperion_ebpf::{assemble, block_report, helper, Profile, Program, Vm};
use hyperion_telemetry::{blame, Recorder, ResourceUtil};

use crate::table::{fmt_ns, Table};

/// Renders one recorder's utilization plane: the per-resource busy
/// table, then the bottleneck-attribution (blame) table. Both render
/// header-only when the recorder tracked nothing, so the view is safe
/// on recorders that never enabled the plane.
pub fn util_tables(rec: &Recorder) -> Vec<Table> {
    let report = blame(rec);
    let wall = report.wall();

    let mut util = Table::new(
        format!("{} — resource utilization", rec.label()),
        &["resource", "claims", "busy", "busy fraction", "peak depth"],
    );
    let mut resources: Vec<&ResourceUtil> = rec.util().resources().iter().collect();
    resources.sort_by(|a, b| {
        b.busy_ns()
            .cmp(&a.busy_ns())
            .then_with(|| a.id().cmp(b.id()))
    });
    for r in resources {
        let depth = if r.depth_samples().is_empty() {
            "-".into()
        } else {
            r.peak_depth().to_string()
        };
        util.row(vec![
            r.id().to_string(),
            r.claims().to_string(),
            fmt_ns(r.busy_ns().0),
            format!("{:.1}%", r.busy_fraction(wall) * 100.0),
            depth,
        ]);
    }

    let mut bl = Table::new(
        format!(
            "{} — bottleneck attribution (wall {})",
            rec.label(),
            fmt_ns(wall.0)
        ),
        &["resource", "busy", "blamed", "share of wall"],
    );
    for row in &report.rows {
        bl.row(vec![
            row.resource.clone(),
            fmt_ns(row.busy.0),
            fmt_ns(row.blamed.0),
            format!("{:.1}%", row.share * 100.0),
        ]);
    }
    if !report.rows.is_empty() {
        let total = report.blamed_total();
        let share = total.0 as f64 / wall.0.max(1) as f64;
        bl.row(vec![
            "(total)".into(),
            "-".into(),
            fmt_ns(total.0),
            format!("{:.1}%", share * 100.0),
        ]);
    }
    vec![util, bl]
}

/// One profiled program: the program plus its filled profile.
struct Profiled {
    name: &'static str,
    program: Program,
    profile: Profile,
}

/// The fail2ban classifier over a fixed packet schedule: four flows,
/// eight packets each — one clean packet (the pass path), six auth
/// failures (the ban fires on the fifth, the sixth drops as already
/// banned), one trailing clean packet from a banned flow. Every path
/// through the classifier executes.
fn fail2ban_profiled() -> Profiled {
    let program = assemble("fail2ban", FAIL2BAN_EBPF, CTX_LEN).expect("classifier assembles");
    let mut vm = Vm::new();
    vm.maps.add_hash(1 << 10); // map 0: failure counts
    vm.maps.add_hash(1 << 10); // map 1: ban set
    let mut profile = Profile::new(&program);
    for flow in 1..=4u64 {
        for pkt in 0..8u64 {
            let mut ctx = vec![0u8; CTX_LEN as usize];
            ctx[0..8].copy_from_slice(&flow.to_le_bytes());
            ctx[8] = if (1..=6).contains(&pkt) { 0xFA } else { 0 };
            vm.run_profiled(&program, &mut ctx, &mut profile)
                .expect("classifier runs");
        }
    }
    Profiled {
        name: "fail2ban",
        program,
        profile,
    }
}

/// The pointer-chase walker over a five-node chain, entered at every
/// node (5, 4, … 1 hops) plus one off-chain miss — the hop-dependent
/// block counts are what the ranking is for.
fn chase_profiled() -> Profiled {
    let program = chase_program();
    let mut vm = Vm::new();
    build_chain(&mut vm, 1, 5);
    let mut profile = Profile::new(&program);
    for start in 1..=5u64 {
        let mut ctx = chase_ctx(start);
        vm.run_profiled(&program, &mut ctx, &mut profile)
            .expect("walker runs");
    }
    let mut miss = chase_ctx(999);
    vm.run_profiled(&program, &mut miss, &mut profile)
        .expect("walker runs");
    Profiled {
        name: "pointer-chase",
        program,
        profile,
    }
}

fn helper_name(id: i32) -> &'static str {
    match id {
        helper::MAP_LOOKUP => "map_lookup",
        helper::MAP_UPDATE => "map_update",
        helper::MAP_DELETE => "map_delete",
        helper::CHECKSUM => "checksum",
        helper::NOW => "now",
        helper::TRACE => "trace",
        helper::MAP_CONTAINS => "map_contains",
        _ => "unknown",
    }
}

fn program_tables(p: &Profiled) -> Vec<Table> {
    let mut blocks = Table::new(
        format!(
            "profile: {} — hot basic blocks ({} runs, {} insns retired)",
            p.name,
            p.profile.runs(),
            p.profile.retired()
        ),
        &["block", "insns", "entries", "cycles", "share"],
    );
    for s in block_report(&p.program, &p.profile) {
        blocks.row(vec![
            format!("pc {}..{}", s.block.start, s.block.end),
            (s.block.end - s.block.start).to_string(),
            s.entries.to_string(),
            s.cycles.to_string(),
            format!("{:.1}%", s.share * 100.0),
        ]);
    }
    let mut traffic = Table::new(
        format!("profile: {} — helper and map traffic", p.name),
        &["event", "count"],
    );
    for (id, n) in p.profile.helper_calls() {
        traffic.row(vec![format!("call {}", helper_name(*id)), n.to_string()]);
    }
    traffic.row(vec!["map reads".into(), p.profile.map_reads().to_string()]);
    traffic.row(vec![
        "map writes".into(),
        p.profile.map_writes().to_string(),
    ]);
    vec![blocks, traffic]
}

/// Runs both reference programs under the profiler and renders their
/// ranked basic blocks plus helper/map traffic.
pub fn profile_tables() -> Vec<Table> {
    let mut out = Vec::new();
    for p in [fail2ban_profiled(), chase_profiled()] {
        out.extend(program_tables(&p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_telemetry::registry;

    #[test]
    fn profiled_counts_sum_to_retired() {
        for p in [fail2ban_profiled(), chase_profiled()] {
            let sum: u64 = p.profile.insn_counts().iter().sum();
            assert_eq!(sum, p.profile.retired(), "{}", p.name);
            let cycles: u64 = block_report(&p.program, &p.profile)
                .iter()
                .map(|s| s.cycles)
                .sum();
            assert_eq!(cycles, p.profile.retired(), "{}", p.name);
        }
    }

    #[test]
    fn profile_tables_rank_blocks_for_both_programs() {
        let tables = profile_tables();
        for name in ["fail2ban", "pointer-chase"] {
            let t = tables
                .iter()
                .find(|t| t.title.contains(name) && t.title.contains("hot basic blocks"))
                .unwrap_or_else(|| panic!("no block table for {name}"));
            assert!(!t.rows.is_empty());
            let cycles: Vec<u64> = (0..t.rows.len()).map(|i| t.cell(i, 3).u64()).collect();
            assert!(
                cycles.windows(2).all(|w| w[0] >= w[1]),
                "{name}: {cycles:?}"
            );
            let shares: f64 = (0..t.rows.len()).map(|i| t.cell(i, 4).percent()).sum();
            assert!((shares - 100.0).abs() < 1.0, "{name}: shares sum {shares}");
        }
    }

    #[test]
    fn fail2ban_profile_covers_every_path_and_counts_map_traffic() {
        let p = fail2ban_profiled();
        // 4 flows x (1 lookup per failure) = 24 reads, plus a contains
        // check per packet (32) classified as reads too.
        assert!(p.profile.map_reads() > 0);
        // Two updates per ban (count + ban set) plus one per pre-ban
        // failure.
        assert!(p.profile.map_writes() > 0);
        assert_eq!(p.profile.runs(), 32);
        // Every reachable instruction executed at least once.
        let report = block_report(&p.program, &p.profile);
        assert!(report.iter().all(|s| s.entries > 0), "unreached block");
    }

    #[test]
    fn util_tables_surface_the_blame() {
        let rec = crate::experiments::cached("e15").1;
        let tables = util_tables(rec);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].rows.is_empty(), "utilization rows");
        let bl = &tables[1];
        assert!(!bl.rows.is_empty(), "blame rows");
        // The PCIe-heavy shape blames the shared link first.
        assert!(bl.rows[0][0].starts_with("pcie:"), "{:?}", bl.rows[0]);
        // Closing (total) row stays within wall-clock.
        let last = bl.rows.last().unwrap();
        assert_eq!(last[0], "(total)");
        assert!(bl.cell(bl.rows.len() - 1, 3).percent() <= 100.0 + 1e-9);
    }

    #[test]
    fn util_tables_are_safe_without_the_plane() {
        let rec = Recorder::new("bare");
        let tables = util_tables(&rec);
        assert_eq!(tables.len(), 2);
        assert!(tables.iter().all(|t| t.rows.is_empty()));
        // And render fine.
        for t in &tables {
            assert!(!format!("{t}").is_empty());
        }
    }

    #[test]
    fn profile_view_is_deterministic() {
        let a: String = profile_tables().iter().map(|t| format!("{t}")).collect();
        let b: String = profile_tables().iter().map(|t| format!("{t}")).collect();
        assert_eq!(a, b);
    }

    /// Every counter and gauge a real telemetry run emits is in the
    /// registry — the closed-name-set contract of DESIGN §5.4. Covers every
    /// instrumented experiment's recorder and the SLO mix's.
    #[test]
    fn emitted_names_are_registered() {
        let slo = crate::slo::run().1;
        let mut recs: Vec<&Recorder> = crate::experiments::REGISTRY
            .iter()
            .filter(|e| e.traced())
            .map(|e| crate::experiments::cached(e.id).1)
            .collect();
        recs.push(&slo);
        assert_eq!(recs.len(), 8);
        for rec in recs {
            for (name, _) in rec.counters() {
                assert!(
                    registry::is_registered_counter(name),
                    "{}: unregistered counter {name}",
                    rec.label()
                );
            }
            for (name, _) in rec.gauges() {
                assert!(
                    registry::is_registered_gauge(name),
                    "{}: unregistered gauge {name}",
                    rec.label()
                );
            }
        }
    }
}
