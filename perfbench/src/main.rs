//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A traced run also writes its spans to `out/trace-<workload>.tsv` in
//! this package's directory.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;

use hyperion_perfbench::{run, Config, Report, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <lb_zipf_spill|lb_new_flow_burst|dpu_services> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::FULL,
    })
}

fn json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, value, unit) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn write_trace(cfg: &Config, report: &Report) -> Result<(), String> {
    let Some(spans) = &report.spans else {
        return Ok(());
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.tsv", cfg.workload.name()));
    let file = File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    spans
        .write_tsv(&mut BufWriter::new(file))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg).and_then(|report| {
        write_trace(&cfg, &report)?;
        let line = json(&report)?;
        Ok((report, line))
    });
    match result {
        Ok((report, line)) => {
            println!(
                "{} seed={} trace={} attempted={} failed={} correct={}",
                cfg.workload.name(),
                cfg.seed,
                u8::from(cfg.trace),
                report.attempted,
                report.failed,
                report.correct
            );
            for (name, value, unit) in &report.metrics {
                println!("  {name:<32} {value:>16.6} {unit}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
