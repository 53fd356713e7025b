#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, rustdoc, and the full test suite.
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
cargo test --workspace -q

echo "==> perfbench tests (own Cargo workspace, not covered by --workspace)"
cargo test --offline --manifest-path perfbench/Cargo.toml -q

echo "==> fault-matrix smoke (e13: injected faults must recover deterministically)"
# E13 is explicit-only and never in the gated snapshot below; run it twice
# and require byte-identical output so fault injection stays deterministic.
FAULTS_A="$(mktemp)"
FAULTS_B="$(mktemp)"
trap 'rm -f "$FAULTS_A" "$FAULTS_B"' EXIT
cargo run --release -q -p hyperion-bench --bin report -- e13 > "$FAULTS_A"
cargo run --release -q -p hyperion-bench --bin report -- e13 > "$FAULTS_B"
diff -u "$FAULTS_A" "$FAULTS_B"
grep -q "gave up" "$FAULTS_A"

echo "==> availability smoke (e14: failover must replay byte-identically)"
# Same contract for the cluster-failover experiment: detection, epoch
# bumps, repair, and shedding are all on the virtual clock, so two runs
# must agree to the byte.
cargo run --release -q -p hyperion-bench --bin report -- e14 > "$FAULTS_A"
cargo run --release -q -p hyperion-bench --bin report -- e14 > "$FAULTS_B"
diff -u "$FAULTS_A" "$FAULTS_B"
grep -q "unavail" "$FAULTS_A"

echo "==> bottleneck smoke (e15: blame attribution must replay byte-identically)"
# The utilization plane and blame pass are pure functions of the virtual
# clock; two sweeps must agree to the byte, and the sweep table must
# actually attribute (a "top blamed" resource per load shape).
cargo run --release -q -p hyperion-bench --bin report -- --util e15 > "$FAULTS_A"
cargo run --release -q -p hyperion-bench --bin report -- --util e15 > "$FAULTS_B"
diff -u "$FAULTS_A" "$FAULTS_B"
grep -q "bottleneck attribution" "$FAULTS_A"
cargo run --release -q -p hyperion-bench --bin report -- e15 > "$FAULTS_A"
grep -q "top blamed" "$FAULTS_A"

echo "==> observability smoke (report --util / --profile render)"
# --util must be safe on a recorder that never enabled the plane, and
# --profile must rank blocks for both reference eBPF programs.
cargo run --release -q -p hyperion-bench --bin report -- --util e1 > "$FAULTS_A"
grep -q "resource utilization" "$FAULTS_A"
cargo run --release -q -p hyperion-bench --bin report -- --profile > "$FAULTS_A"
grep -q "profile: fail2ban" "$FAULTS_A"
grep -q "profile: pointer-chase" "$FAULTS_A"

echo "==> report --json -> BENCH_report.json + bench gate"
SNAPSHOT="$(mktemp)"
trap 'rm -f "$SNAPSHOT" "$FAULTS_A" "$FAULTS_B"' EXIT
cargo run --release -q -p hyperion-bench --bin report -- --json > "$SNAPSHOT"
./scripts/bench_gate.sh "$SNAPSHOT"

echo "All checks passed."
