//! Prints every experiment table of the reproduction, followed by the
//! telemetry breakdown ("where did the nanoseconds go") for the
//! instrumented experiments (E1, E4, E6, E7, E13, E14, E15).
//!
//! Usage:
//! ```text
//! report              # all experiments + breakdowns
//! report e6 f2        # a subset by id (e1..e15, f2; figure2 = f2)
//! report --json e6    # machine-readable telemetry dumps only
//! report --trace e6   # Chrome/Perfetto trace of the first selection
//! report --slo        # per-tenant SLO digest table only
//! report --util e15   # utilization + bottleneck-blame tables
//! report --profile    # eBPF hot-path profile (fail2ban, pointer-chase)
//! ```
//!
//! The report makes one pass over [`REGISTRY`]: each selected experiment
//! runs once, and an instrumented one fills its recorder during that run
//! (the traced configuration is one its tables already run). Tables
//! print in registry order, then the breakdowns in registry order.
//! `e13` (fault injection), `e14` (cluster failover), and `e15`
//! (bottleneck sweep) only run when named explicitly, never in the
//! default selection.
//!
//! `--json` prints a JSON array of the selected instrumented experiments'
//! telemetry dumps (deterministic: same build + same selection →
//! byte-identical output) and skips the human-readable tables. `--trace`
//! prints the first selected instrumented experiment's span tree as
//! `trace_event` JSON — pipe it to a file and open it at
//! `ui.perfetto.dev`. `--util` prints each selected recorder's
//! resource-utilization and blame tables (E15 is the interesting one;
//! others render what their plane tracked). All three still run the
//! selected experiments' tables, which they do not print. `--slo` runs
//! the deterministic multi-tenant mix and prints its digest table.
//! `--profile` runs the two reference eBPF programs under the hot-path
//! profiler and prints their ranked basic blocks — no selection needed.
//! An id outside the registry, or `--trace`/`--util` with no
//! instrumented experiment selected, is an error: the report prints
//! nothing and exits with status 2.
//!
//! Every surface is a function of fixed seeds, so its output is exact:
//! `scripts/goldens.sh` writes each one into `goldens/` (the large ones
//! as content hashes) and `scripts/check.sh` fails on any byte that
//! differs from the committed files.

use hyperion_bench::experiments::{Experiment, REGISTRY};
use hyperion_bench::{breakdown, observe, slo};
use hyperion_telemetry::json::to_json;
use hyperion_telemetry::to_perfetto;

/// Space-separated ids of the registry entries `keep` accepts.
fn ids(keep: impl Fn(&Experiment) -> bool) -> String {
    let ids: Vec<&str> = REGISTRY.iter().filter(|e| keep(e)).map(|e| e.id).collect();
    ids.join(" ")
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let json = raw.iter().any(|a| a == "--json");
    let trace = raw.iter().any(|a| a == "--trace");
    let slo_only = raw.iter().any(|a| a == "--slo");
    let util = raw.iter().any(|a| a == "--util");
    let profile = raw.iter().any(|a| a == "--profile");
    // `figure2` is an alias of `f2`.
    let args: Vec<&str> = raw
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|a| if a == "figure2" { "f2" } else { a.as_str() })
        .collect();
    if let Some(bad) = args.iter().find(|&&a| REGISTRY.iter().all(|e| e.id != a)) {
        eprintln!(
            "report: unknown experiment id `{bad}` (expected one of: {} figure2)",
            ids(|_| true)
        );
        std::process::exit(2);
    }
    let selected: Vec<&Experiment> = REGISTRY
        .iter()
        .filter(|e| {
            if args.is_empty() {
                !e.explicit_only
            } else {
                args.contains(&e.id)
            }
        })
        .collect();

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

    let traced: Vec<&Experiment> = selected.iter().copied().filter(|e| e.traced()).collect();
    if (util || trace) && traced.is_empty() {
        let flag = if util { "--util" } else { "--trace" };
        eprintln!(
            "report: {flag} needs an instrumented experiment (one of: {})",
            ids(Experiment::traced)
        );
        std::process::exit(2);
    }
    let recs = || traced.iter().filter_map(|e| e.run().1);

    if util {
        for rec in recs() {
            for t in observe::util_tables(&rec) {
                println!("{t}");
            }
        }
        return;
    }

    if trace {
        // One Perfetto process per export: trace the first selection.
        let rec = recs().next().expect("a traced run fills a recorder");
        print!("{}", to_perfetto(&rec));
        return;
    }

    if json {
        let dumps: Vec<String> = recs().map(|rec| to_json(&rec)).collect();
        println!("[{}]", dumps.join(",\n"));
        return;
    }

    println!("# Hyperion reproduction — experiment report");
    println!();
    let mut recs = Vec::new();
    for e in selected {
        let (tables, rec) = e.run();
        for t in tables {
            println!("{t}");
        }
        recs.extend(rec);
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
