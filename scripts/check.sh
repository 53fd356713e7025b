#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, rustdoc, the full test suite, and the
# golden files of every report surface and example.
#
# Run from the repository root:
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings
# perfbench is its own Cargo workspace; --workspace never reaches it.
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: broken intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
# Tier-1 host time is printed, not gated, like the goldens time below.
# The log is kept to count the tests at the end.
TESTLOG="$(mktemp)"
GOLDENS=""
trap 'rm -rf "$TESTLOG" "$GOLDENS"' EXIT
TIMEFORMAT='workspace tests: %R s wall'
time cargo test --workspace -q 2>&1 | tee "$TESTLOG"

echo "==> perfbench tests (own Cargo workspace, not covered by --workspace)"
cargo test --offline --manifest-path perfbench/Cargo.toml -q

echo "==> goldens: every report surface and example equals goldens/ byte for byte"
# The simulator is deterministic, so any diff is a code change: every
# experiment table (E13-E15 included), per-hop and critical-path
# breakdown, SLO digest, utilization, blame and profile table, the
# hashes of the full report, --json and the e6/e7 traces, and the stdout
# of every examples/*.rs, each of which drives one subsystem end to end
# (distributed.rs is the one caller of the raw NVMe-oF
# handle/encode/decode API outside the tests; an example that panics
# fails the gate). A host-timed value or a hash map's iteration order
# reaching the output shows up as a diff too. After an intentional model change, rerun ./scripts/goldens.sh
# and say in CHANGES.md why the numbers moved. The wall time is printed,
# not gated, like the test time above.
GOLDENS="$(mktemp -d)"
TIMEFORMAT='goldens: %R s wall'
time ./scripts/goldens.sh "$GOLDENS"
diff -ru goldens/ "$GOLDENS"

echo "==> size: Rust lines under crates/ and workspace tests passed (printed, not gated)"
echo "crates/ Rust lines: $(find crates -name '*.rs' | xargs cat | wc -l)"
echo "workspace tests passed: $(grep -o '[0-9]* passed' "$TESTLOG" | awk '{n += $1} END {print n}')"

echo "All checks passed."
