//! Command-line contract of the `report` binary.

use std::process::Command;

#[test]
fn unknown_experiment_ids_are_rejected_before_any_run() {
    // "e7b" names a table, not an experiment; "e16" is past the range.
    for args in [&["e16"][..], &["e1", "e7b"], &["--json", "x"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .output()
            .expect("report runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let bad = args.last().expect("non-empty args");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{bad}`")), "{args:?}: {stderr}");
    }
}

#[test]
fn trace_and_util_without_an_instrumented_experiment_are_rejected() {
    for args in [
        &["--trace", "e2"][..],
        &["--util", "e2", "f2"],
        &["--util", "--trace", "e11"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .output()
            .expect("report runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for id in ["e1", "e4", "e6", "e7", "e13", "e14", "e15"] {
            assert!(
                stderr.split([' ', ')']).any(|w| w == id),
                "{args:?}: {stderr}"
            );
        }
    }
}
