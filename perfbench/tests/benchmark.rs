//! Determinism, seed and smoke tests of the benchmark at a tiny size.

use hyperion_perfbench::{dpu, lb, run, Config, Report, Size, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Config {
        workload,
        seed,
        seconds: 0.01,
        trace,
        size: Size::TINY,
    })
    .expect("tiny run")
}

/// The `"name"` values listed under `section` in `BENCHMARK.json`.
fn declared(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(metrics: &[(&str, &str)]) -> Vec<String> {
    metrics.iter().map(|(n, _)| n.to_string()).collect()
}

#[test]
fn same_seed_repeats_every_model_output_traced_or_not() {
    for w in Workload::ALL {
        let traced = tiny(w, 7, true);
        let untraced = tiny(w, 7, false);
        assert!(traced.correct && untraced.correct, "{}", w.name());
        assert!(!traced.model.is_empty());
        assert_eq!(traced.model, untraced.model, "{}", w.name());
    }
}

#[test]
fn seeds_select_the_generated_inputs() {
    let s = Size::TINY;
    assert_eq!(lb::zipf_inputs(1, &s), lb::zipf_inputs(1, &s));
    assert_ne!(lb::zipf_inputs(1, &s), lb::zipf_inputs(2, &s));
    assert_eq!(lb::burst_inputs(1, &s), lb::burst_inputs(1, &s));
    assert_ne!(lb::burst_inputs(1, &s), lb::burst_inputs(2, &s));
    assert_eq!(dpu::inputs(1, &s), dpu::inputs(1, &s));
    assert_ne!(dpu::inputs(1, &s), dpu::inputs(2, &s));
}

#[test]
fn tiny_runs_emit_every_declared_metric_and_fail_no_op() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    assert_eq!(declared(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), names(&PER_LAYER));
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared(&json, "workloads"), workloads);
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = tiny(w, 3, trace);
            assert!(r.correct, "{} trace={trace}", w.name());
            assert_eq!(r.failed, 0);
            assert!(r.attempted > 0);
            let emitted: Vec<(&str, &str)> = r.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            let value = |name: &str| r.metrics.iter().find(|m| m.0 == name).expect(name).1;
            if trace {
                assert_eq!(emitted, PER_LAYER);
                assert_eq!(value("failed_op_frac"), 0.0);
            } else {
                assert_eq!(emitted, END_TO_END);
                assert_eq!(value("ok_op_frac"), 1.0);
                for &(name, v, _) in &r.metrics {
                    assert!(v > 0.0, "{} {name} = {v}", w.name());
                }
            }
        }
    }
}
