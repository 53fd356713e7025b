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
