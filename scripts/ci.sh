#!/usr/bin/env bash
# The PR gate, runnable locally and from CI: formatting, lints (deny
# warnings), a release build of the whole workspace, and every test.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "######## deleted instruments stay deleted"
# ISSUE 21 removed the sampling profiler, the contention sites and the
# flight recorder with their options; nothing read them (DESIGN.md §8).
if grep -rnE 'ProfilerHandle|FlightRecorder|ContentionSite|profile_hz|recorder_capacity|storm_threshold' \
  crates tests examples; then
  echo "ci: a deleted instrument or its option is back (see above)" >&2
  exit 1
fi

echo "######## fmt"
cargo fmt --all --check

echo "######## clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "######## build (release)"
cargo build --workspace --release

echo "######## test"
cargo test --workspace --release --quiet
# The vendored channel stand-in is a path dependency, not a workspace
# member, and every replica pool shuts down through it.
cargo test --release --quiet -p crossbeam

echo "######## repo benchmark (build + quick run)"
# benchmark/ is a package of its own that the workspace build above
# never compiles, and it pins public API of dlhub-core and dlhub-queue
# (RpcClient::{connect, call_wait}, RpcServer::{bind, serve_one},
# Executor::execute, TaskManager::start, Repository::resolve_internal).
# `run --quick` drives every workload in both trace modes for two
# windows and fails on any wrong answer.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --quick
# A batch is one job per replica (DESIGN.md §7): on matminer-mixed a
# 32-input run_batch over 2 replicas is 2 jobs and the mix averages
# ≈ 1.6 jobs per op. One job per input read 4.6; anything above 2.5
# means batches went back to per-item jobs.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload matminer-mixed --trace 1 --quick | tail -n 1 | python3 -c '
import json, sys
jobs = json.load(sys.stdin)["metrics"]["executor.dispatched_per_op"]["value"]
if jobs > 2.5:
    sys.exit("ci: matminer-mixed executor.dispatched_per_op = {:.2f} > 2.5".format(jobs))
print("ci: matminer-mixed executor.dispatched_per_op = {:.2f} (one job per replica)".format(jobs))
'
# The parent-vs-change procedure every perf claim in CHANGES.md rests
# on, as one self-against-self pair in the benchmark's --quick shape so
# the script cannot rot.
scripts/pairs.sh --quick HEAD 7 noop-dispatch

echo "######## tensor kernels smoke (micro bench, kernels group)"
# The tensor rung of the layer ladder: the CIFAR GEMM shapes, the dense
# layer, ReLU, max-pool and both forward passes. A short window: this
# keeps the group building, running and printing every row DESIGN.md
# §16 cites.
scripts/kernels_smoke.sh

echo "######## chaos + analytics (fixed seed matrix)"
# The workspace test run above already exercises tests/chaos.rs and
# tests/analytics.rs on their built-in matrix; this loop re-runs them
# one pinned seed at a time so a failure names the seed that
# reproduces it (DESIGN.md §9). The analytics suite proves SLO alerts
# fire under replica slow/hang faults and stay quiet on clean runs.
for seed in 7 1848 3141; do
  echo "-- chaos seed ${seed}"
  CHAOS_SEED="${seed}" cargo test --release --quiet -p dlhub-bench --test chaos
  CHAOS_SEED="${seed}" cargo test --release --quiet -p dlhub-bench --test analytics
done

echo "######## control loop (fixed seed matrix)"
# The workspace test run already exercises tests/control_loop.rs on its
# built-in seed matrix; this loop re-runs the sim/chaos battery one
# pinned seed at a time so a failure names the seed that reproduces it
# (DESIGN.md §14). Each seed's autoscaler decision log must replay
# byte-identically, the steady-load scenario must not flap, and the
# fairness sim must hold its weighted shares and p99 SLO.
for seed in 7 1848 3141; do
  echo "-- control seed ${seed}"
  CONTROL_SEED="${seed}" cargo test --release --quiet -p dlhub-bench --test control_loop
done

echo "######## hotpath smoke"
# Short window; HOTPATH_MIRROR=0 keeps the smoke run from clobbering
# the committed full-length BENCH_hotpath.json at the workspace root.
HOTPATH_MS=100 HOTPATH_MIRROR=0 \
  cargo run --release -p dlhub-bench --bin hotpath >/dev/null
# What the embedded metrics snapshot must hold (series, latency
# buckets with exemplars, SLO entry observed and quiet) is asserted on
# the live snapshot by dlhub-core's ledger test; the run stays because
# bench_gate.py below reads its artifact.

echo "######## broker smoke (sharded rings + zero-copy path)"
# Short windows; BROKER_MIRROR=0 keeps the smoke run from clobbering
# the committed full-length BENCH_broker.json at the workspace root.
BROKER_MS=100 BROKER_MIRROR=0 \
  cargo run --release -p dlhub-bench --bin broker >/dev/null

echo "######## workloads smoke (open-loop observatory, seed matrix)"
# Short windows and a small catalog; WORKLOADS_MIRROR=0 keeps the
# smoke runs from clobbering the committed full-length
# BENCH_workloads.json. Seed 7 runs twice: the schedule fingerprints
# in the two artifacts must be byte-identical (the reproducibility
# contract), and a second seed proves the fingerprints actually
# depend on the seed.
for seed in 7 7 1848; do
  echo "-- workloads seed ${seed}"
  WORKLOADS_MS=300 WORKLOADS_FANOUT=120 WORKLOADS_SEED="${seed}" WORKLOADS_MIRROR=0 \
    cargo run --release -p dlhub-bench --bin workloads >/dev/null
  cp results/BENCH_workloads.json "results/BENCH_workloads.seed${seed}.run$((fp_run=${fp_run:-0}+1)).json"
done
python3 - <<'EOF'
import json, sys
def fingerprints(path):
    doc = json.load(open(path))
    return {s["name"]: s["schedule_fingerprint"] for s in doc["scenarios"]}
a = fingerprints("results/BENCH_workloads.seed7.run1.json")
b = fingerprints("results/BENCH_workloads.seed7.run2.json")
c = fingerprints("results/BENCH_workloads.seed1848.run3.json")
if a != b:
    sys.exit("ci: seed 7 schedules differ across runs: {} vs {}".format(a, b))
if a == c:
    sys.exit("ci: seed 7 and seed 1848 produced identical schedules")
doc = json.load(open("results/BENCH_workloads.json"))
names = {s["name"] for s in doc["scenarios"]}
want = {"steady-poisson", "diurnal", "bursty", "zipf-fanout", "hostile-tenant"}
if not want <= names:
    sys.exit("ci: workloads smoke missing scenarios: {}".format(want - names))
for s in doc["scenarios"]:
    ol = s["open_loop"]
    if not s.get("completed", 0) > 0:
        sys.exit("ci: scenario {} completed nothing".format(s["name"]))
    for q in ("p50", "p99", "p999"):
        if ol["corrected"][q] < ol["uncorrected"][q]:
            sys.exit(
                "ci: scenario {} corrected {} below uncorrected".format(s["name"], q)
            )
    if not (s.get("attribution") or {}).get("tail", {}).get("stages"):
        sys.exit("ci: scenario {} has no tail attribution".format(s["name"]))
print(
    "ci: workloads smoke OK (schedules replay byte-identically per "
    "seed; {} scenarios; bursty CO gap {:.2f} ms)".format(
        len(names),
        next(s for s in doc["scenarios"] if s["name"] == "bursty")["open_loop"][
            "gap_p99_ns"
        ]
        / 1e6,
    )
)
EOF

echo "######## bench regression gates"
# Compares the smoke runs against the committed BENCH_hotpath.json and
# BENCH_broker.json with generous noise floors (BENCH_GATE_RATIO /
# BENCH_GATE_SPEEDUP / BROKER_GATE_* tune, BENCH_GATE_RATIO=0
# disables). The broker gate also re-asserts the committed artifact's
# absolute contract: ≥2x the hot-path single-thread baseline on the
# memo-bypass path and ≥6x 1→8-client scaling on the RTT series.
python3 scripts/bench_gate.py

echo "######## ci OK"
