#!/usr/bin/env bash
# Golden report files: every `report` surface, written as text.
#
# Run from the repository root:
#   ./scripts/goldens.sh [dir]    # default dir: goldens/
#
# The simulator is deterministic, so a fresh run must equal the committed
# goldens/ byte for byte; scripts/check.sh writes one into a temporary
# directory and diffs it against them. After an intentional model change,
# rerun this with no argument, commit the diff, and say in CHANGES.md why
# the numbers moved.
#
# Each experiment's tables go to report-<id>.txt (E13-E15 are explicit-only
# and not in the full report). Four outputs too large to review as text
# are pinned by content hash in SHA256SUMS, one "<sha256>  report <args>"
# line each. Each example's stdout goes to examples/<name>.txt; an example
# that panics stops the script.
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-goldens}"
mkdir -p "$dir/examples"
cargo build --release -q -p hyperion-bench --bin report
cargo build --release -q --examples
target="${CARGO_TARGET_DIR:-target}/release"
report="$target/report"

for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    "$target/examples/$name" > "$dir/examples/$name.txt"
done

for id in e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 f2; do
    "$report" "$id" > "$dir/report-$id.txt"
done
"$report" --slo > "$dir/slo.txt"
"$report" --util e1 > "$dir/util-e1.txt"
"$report" --util e15 > "$dir/util-e15.txt"
"$report" --profile > "$dir/profile.txt"

pin() {
    local sum
    sum="$("$report" "$@" | sha256sum)"
    echo "${sum%% *}  report${*:+ $*}"
}
{
    pin
    pin --json
    pin --trace e6
    pin --trace e7
} > "$dir/SHA256SUMS"
