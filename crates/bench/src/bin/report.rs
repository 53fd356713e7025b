//! Prints every experiment table of the reproduction, followed by the
//! telemetry breakdown ("where did the nanoseconds go") for the
//! instrumented experiments (E1, E4, E6, E7).
//!
//! Usage:
//! ```text
//! report              # all experiments + breakdowns
//! report e6 f2        # a subset by id (e1..e15, f2)
//! report --json e6    # machine-readable telemetry dumps only
//! report --trace e6   # Chrome/Perfetto trace of the first selection
//! report --slo        # per-tenant SLO digest table only
//! report --util e15   # utilization + bottleneck-blame tables
//! report --profile    # eBPF hot-path profile (fail2ban, pointer-chase)
//! ```
//!
//! `--json` prints a JSON array of the selected experiments' telemetry
//! dumps (deterministic: same build + same selection → byte-identical
//! output) and skips the human-readable tables. `e13` (fault injection),
//! `e14` (cluster failover), and `e15` (bottleneck sweep) only run when
//! named explicitly, never in the default selection. `--trace` prints the
//! first selected experiment's span tree as `trace_event` JSON — pipe it
//! to a file and open it at `ui.perfetto.dev`. `--slo` runs the
//! deterministic multi-tenant mix and prints its digest table. `--util`
//! prints each selected recorder's resource-utilization and blame tables
//! (E15 is the interesting one; others render what their plane tracked).
//! `--profile` runs the two reference eBPF programs under the hot-path
//! profiler and prints their ranked basic blocks — no selection needed.
//! An id outside e1..e15/f2 is an error: the report prints nothing and
//! exits with status 2.
//!
//! Every surface is a function of fixed seeds, so its output is exact:
//! `scripts/goldens.sh` writes each one into `goldens/` (the large ones
//! as content hashes) and `scripts/check.sh` fails on any byte that
//! differs from the committed files.

use hyperion_bench::{breakdown, experiments, observe, slo, Table};
use hyperion_telemetry::json::to_json;
use hyperion_telemetry::{to_perfetto, Recorder};

/// Every experiment id the report accepts (`figure2` is an alias of `f2`).
const IDS: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "f2", "figure2",
];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let json = raw.iter().any(|a| a == "--json");
    let trace = raw.iter().any(|a| a == "--trace");
    let slo_only = raw.iter().any(|a| a == "--slo");
    let util = raw.iter().any(|a| a == "--util");
    let profile = raw.iter().any(|a| a == "--profile");
    let args: Vec<String> = raw.into_iter().filter(|a| !a.starts_with('-')).collect();
    if let Some(bad) = args.iter().find(|a| !IDS.contains(&a.as_str())) {
        eprintln!("report: unknown experiment id `{bad}` (expected e1..e15 or f2)");
        std::process::exit(2);
    }
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    // E13/E14/E15 (fault injection, cluster failover, bottleneck sweep)
    // are explicit-only: the default report is the fault-free datapath the
    // paper's claims are about, and these three perturb it on purpose.
    // Each still has its own golden file (scripts/goldens.sh).
    let want_faults = |id: &str| args.iter().any(|a| a == id);

    if profile {
        for t in observe::profile_tables() {
            println!("{t}");
        }
        return;
    }

    if slo_only {
        let (table, rec) = slo::run();
        if json {
            println!("[{}]", to_json(&rec));
        } else if trace {
            print!("{}", to_perfetto(&rec));
        } else {
            println!("{table}");
        }
        return;
    }

    // Telemetry recorders for the instrumented experiments.
    let mut recs: Vec<Recorder> = Vec::new();
    if want("e1") {
        recs.push(experiments::e1::telemetry());
    }
    if want("e4") {
        recs.push(experiments::e4::telemetry());
    }
    if want("e6") {
        recs.push(experiments::e6::telemetry());
    }
    if want("e7") {
        recs.push(experiments::e7::telemetry());
    }
    if want_faults("e13") {
        recs.push(experiments::e13::telemetry());
    }
    if want_faults("e14") {
        recs.push(experiments::e14::telemetry());
    }
    if want_faults("e15") {
        recs.push(experiments::e15::telemetry());
    }

    if util {
        for rec in &recs {
            for t in observe::util_tables(rec) {
                println!("{t}");
            }
        }
        if recs.is_empty() {
            eprintln!("--util: no instrumented experiment selected (e1/e4/e6/e7/e13/e14/e15)");
        }
        return;
    }

    if trace {
        // One Perfetto process per export: trace the first selection.
        match recs.first() {
            Some(rec) => print!("{}", to_perfetto(rec)),
            None => eprintln!("--trace: no instrumented experiment selected (e1/e4/e6/e7)"),
        }
        return;
    }

    if json {
        let dumps: Vec<String> = recs.iter().map(to_json).collect();
        println!("[{}]", dumps.join(",\n"));
        return;
    }

    let mut tables: Vec<(&'static str, Vec<Table>)> = Vec::new();
    if want("e1") {
        tables.push(("e1", experiments::e1::run()));
    }
    if want("e2") {
        tables.push(("e2", experiments::e2::run()));
    }
    if want("e3") {
        tables.push(("e3", experiments::e3::run()));
    }
    if want("e4") {
        tables.push(("e4", experiments::e4::run()));
    }
    if want("e5") {
        tables.push(("e5", experiments::e5::run()));
    }
    if want("e6") {
        tables.push(("e6", experiments::e6::run()));
    }
    if want("e7") {
        tables.push(("e7", experiments::e7::run()));
    }
    if want("e8") {
        tables.push(("e8", experiments::e8::run()));
    }
    if want("e9") {
        tables.push(("e9", experiments::e9::run()));
    }
    if want("e10") {
        tables.push(("e10", experiments::e10::run()));
    }
    if want("e11") {
        tables.push(("e11", experiments::e11::run()));
    }
    if want("e12") {
        tables.push(("e12", experiments::e12::run()));
    }
    if want_faults("e13") {
        tables.push(("e13", experiments::e13::run()));
    }
    if want_faults("e14") {
        tables.push(("e14", experiments::e14::run()));
    }
    if want_faults("e15") {
        tables.push(("e15", experiments::e15::run()));
    }
    if want("f2") || want("figure2") {
        tables.push(("f2", experiments::figure2::run()));
    }

    println!("# Hyperion reproduction — experiment report");
    println!();
    for (_, group) in tables {
        for t in group {
            println!("{t}");
        }
    }

    if !recs.is_empty() {
        println!("## Where did the nanoseconds go");
        println!();
        for rec in &recs {
            for t in breakdown::tables(rec) {
                println!("{t}");
            }
        }
    }
}
