#!/usr/bin/env bash
# Alternating before/after runs of perfbench workloads.
#
# Usage (from anywhere in the repository):
#   ./scripts/pairs.sh <workload|all> <pairs> <seconds> [base-rev]
#
# Builds the BENCHMARK.json command twice: at <base-rev> (default HEAD),
# extracted with `git archive` into a temporary directory, and in the
# working tree. Then runs <pairs> pairs of <seconds>-second runs, one run
# per side and one seed per pair (FIRST_SEED, FIRST_SEED+1, ...; FIRST_SEED
# defaults to 1), swapping which side runs first from pair to pair. With
# `all`, each pair runs every BENCHMARK.json workload in turn, all on the
# pair's seed. Prints every run's end-to-end metrics, then per workload,
# for each metric of BENCHMARK.json's `end_to_end` list: the median and
# quartiles of each side, the change of the medians, the median of the
# per-pair change/base ratios, and in how many pairs the working tree did
# better. The per-pair ratio compares runs made back to back, so it is the
# one to trust when the host's speed drifts during the runs. perfbench/
# is only built and run, never modified.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <workload|all> <pairs> <seconds> [base-rev]" >&2
    exit 2
fi
pairs=$2
seconds=$3
base_rev=${4:-HEAD}
first_seed=${FIRST_SEED:-1}

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$repo"
# Each side builds into its own checkout.
unset CARGO_TARGET_DIR

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base_rev" | tar -x -C "$work/base"

# The benchmark command, one word per line, as BENCHMARK.json gives it.
mapfile -t command < <(python3 -c '
import json, sys
print("\n".join(json.load(open(sys.argv[1]))["command"]))' BENCHMARK.json)

if [ "$1" = all ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json)
else
    workloads=("$1")
fi

# Runs the command in directory $1 with the remaining arguments; prints
# its last stdout line (the JSON result). The per-episode log on stderr
# is shown only if the run fails.
run() {
    local dir=$1
    shift
    (cd "$dir" && "${command[@]}" "$@" 2>"$work/stderr") | tail -n 1 ||
        { cat "$work/stderr" >&2; return 1; }
}

for side in "$work/base" "$repo"; do
    echo "==> building in $side" >&2
    run "$side" --workload "${workloads[0]}" --seed "$first_seed" --seconds 1 --trace 0 >/dev/null
done

results=$work/results.jsonl
: >"$results"
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order="base change"; else order="change base"; fi
    for workload in "${workloads[@]}"; do
        for side in $order; do
            if [ "$side" = base ]; then dir=$work/base; else dir=$repo; fi
            line=$(run "$dir" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
            python3 -c '
import json, sys
workload, side, pair, seed, line = sys.argv[1:]
print(json.dumps({"workload": workload, "side": side, "pair": int(pair),
                  "seed": int(seed), "result": json.loads(line)}))
' "$workload" "$side" "$i" "$seed" "$line" >>"$results"
        done
    done
done

python3 - "$results" BENCHMARK.json "$base_rev" <<'EOF'
import json, statistics, sys

results_path, bench_path, base_rev = sys.argv[1:]
runs = [json.loads(line) for line in open(results_path)]
metrics = json.load(open(bench_path))["end_to_end"]

def value(run, name):
    return run["result"]["metrics"][name]["value"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def change(new, old):
    """Relative change in percent (0 when the base is 0)."""
    return (new - old) / old * 100 if old else 0.0

for workload in dict.fromkeys(run["workload"] for run in runs):
    pairs = {}
    for run in runs:
        if run["workload"] == workload:
            pairs.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [pairs[k] for k in sorted(pairs)]

    print(f"## {workload}")
    print(f"pair seed side    " + " ".join(f"{m['name']:>20}" for m in metrics))
    for p in pairs:
        for side in ("base", "change"):
            run = p[side]
            cells = " ".join(f"{value(run, m['name']):>20.6g}" for m in metrics)
            print(f"{run['pair']:>4} {run['seed']:>4} {side:<7} {cells}")

    print()
    print(f"base = {base_rev}, change = working tree, {len(pairs)} pairs")
    print(f"{'metric':<22} {'base q1/median/q3':>36} {'change q1/median/q3':>36}"
          f" {'medians':>8} {'per-pair':>8} {'wins':>6}")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [value(p["base"], name) for p in pairs]
        new = [value(p["change"], name) for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, new))
        bq, cq = quartiles(base), quartiles(new)
        per_pair = statistics.median(change(c, b) for b, c in zip(base, new))
        fmt = lambda q: "/".join(f"{x:.5g}" for x in q)
        print(f"{name:<22} {fmt(bq):>36} {fmt(cq):>36} {change(cq[1], bq[1]):>+7.1f}%"
              f" {per_pair:>+7.1f}% {wins:>3}/{len(pairs)}")
    print()
EOF
