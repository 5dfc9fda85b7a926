#!/usr/bin/env bash
# Parent-vs-change pairs of the repo benchmark, as the markdown table
# CHANGES.md carries: for each workload, ten runs a side on ten
# consecutive fresh seeds, alternating which side goes first.
#
#   scripts/pairs.sh [--quick] [--layers] <parent-rev> <first-seed> [workload…]
#
# The parent is <parent-rev> exported under /.bench_build (ignored);
# the change is the working tree. Both are built from their own source
# and run with the BENCHMARK.json command
# (`--workload W --seed N --seconds <run_seconds> --trace 0`).
# Workloads default to every one BENCHMARK.json lists. `--quick` is the
# benchmark's own `--quick` shape and a single pair: a smoke for CI.
# `--layers` is where a saving sits rather than whether there is one:
# a single traced pair (`--trace 1`) per workload, printed as
# `metric: parent → change` for every per-layer name BENCHMARK.json
# lists.
# Reads BENCHMARK.json and runs benchmark/; edits neither. Exits
# non-zero if any run fails, has a failed op or a wrong answer.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

quick=()
pairs=10
trace=0
while [[ "${1:-}" == --* ]]; do
  case $1 in
  --quick) quick=(--quick) ;;
  --layers) trace=1 ;;
  *) break ;;
  esac
  pairs=1
  shift
done
if [[ $# -lt 2 ]]; then
  echo "usage: scripts/pairs.sh [--quick] [--layers] <parent-rev> <first-seed> [workload…]" >&2
  exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
first_seed=$2
shift 2

# First line: the command, tab-separated. Second: run_seconds. Rest:
# the workload names.
mapfile -t spec < <(python3 -c '
import json
spec = json.load(open("BENCHMARK.json"))
print("\t".join(spec["command"]), spec["run_seconds"], *(w["name"] for w in spec["workloads"]), sep="\n")')
IFS=$'\t' read -r -a command <<<"${spec[0]}"
seconds=${spec[1]}
workloads=("${@:-${spec[@]:2}}")

# A commit's tree never changes, so an export of it is reused.
parent=$root/.bench_build/parent-$rev
if [[ ! -d $parent ]]; then
  mkdir -p "$parent"
  git archive "$rev" | tar -x -C "$parent"
fi

out=$root/.bench_build/pairs
mkdir -p "$out"
: >"$out/runs.jsonl"

# Build both sides before anything is timed.
for side in "$parent" "$root"; do
  (cd "$side" && cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
done

run_side() { # <side-name> <dir> <workload> <seed>
  local line
  line=$(cd "$2" && "${command[@]}" --workload "$3" --seed "$4" \
    --seconds "$seconds" --trace "$trace" "${quick[@]}" | tail -n 1)
  printf '{"side": "%s", "workload": "%s", "seed": %s, "result": %s}\n' \
    "$1" "$3" "$4" "$line" >>"$out/runs.jsonl"
}

for workload in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    echo "pairs: $workload seed $seed" >&2
    if ((i % 2 == 0)); then
      run_side parent "$parent" "$workload" "$seed"
      run_side change "$root" "$workload" "$seed"
    else
      run_side change "$root" "$workload" "$seed"
      run_side parent "$parent" "$workload" "$seed"
    fi
  done
done

python3 - "$out/runs.jsonl" "$trace" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    size = abs(x)
    if size >= 10_000:
        return "{:.1f} k".format(x / 1000)
    return "{:.1f}".format(x) if size >= 100 else "{:.2f}".format(x) if size >= 1 else "{:.4f}".format(x)


workloads = list(dict.fromkeys(r["workload"] for r in runs))
if sys.argv[2] == "1":
    # One traced pair per workload: every per-layer metric, side by side.
    for workload in workloads:
        side = {r["side"]: r["result"]["metrics"] for r in runs if r["workload"] == workload}
        print("{} (--trace 1)".format(workload))
        for metric in spec["per_layer"]:
            name = metric["name"]
            p, c = (side[s][name]["value"] for s in ("parent", "change"))
            print("  {}: {} → {} {}".format(name, fmt(p), fmt(c), metric["unit"]))
    workloads = []
else:
    print("| workload | metric | parent | change | Δ median | change better in | verdict |")
    print("|---|---|---|---|---|---|---|")
for workload in workloads:
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        side = {
            s: [
                r["result"]["metrics"][name]["value"]
                for r in runs
                if r["workload"] == workload and r["side"] == s
            ]
            for s in ("parent", "change")
        }
        p, c = side["parent"], side["change"]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
        better = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        all_better = min(c) > max(p) if sign > 0 else max(c) < min(p)
        iqr = pq3 - pq1
        delta = (cm - pm) / pm
        if better * 10 >= 9 * len(p) and len(p) >= 10 and abs(cm - pm) > iqr:
            verdict = "gain: {}/{}, |Δ| {:.1f}× parent IQR".format(
                better, len(p), abs(cm - pm) / iqr if iqr else float("inf")
            )
        elif iqr / pm > bound and not all_better:
            verdict = "unresolved (parent IQR {:.0%} of median)".format(iqr / pm)
        elif -sign * delta > bound:
            verdict = "WORSE by more than {:.0%}".format(bound)
        else:
            verdict = "within {:.0%}".format(bound)
        print(
            "| {} | `{}` | {} ({}–{}) | {} ({}–{}) | {:+.1%} | {}/{} | {} |".format(
                workload, name, fmt(pm), fmt(pq1), fmt(pq3),
                fmt(cm), fmt(cq1), fmt(cq3), delta, better, len(p), verdict,
            )
        )
print()
print("seeds {}–{}; failed or incorrect runs: {} of {}".format(
    min(r["seed"] for r in runs), max(r["seed"] for r in runs), len(bad), len(runs)))
for r in bad:
    print("  {side} {workload} seed {seed}: {result}".format(**r))
sys.exit(1 if bad else 0)
EOF
