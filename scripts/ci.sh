#!/usr/bin/env bash
# The PR gate, runnable locally and from CI: formatting, lints (deny
# warnings), a release build of the whole workspace, and every test.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "######## deleted code stays deleted"
# ISSUE 21 removed the sampling profiler, the contention sites and the
# flight recorder with their options; nothing read them (DESIGN.md §8).
if grep -rnE 'ProfilerHandle|FlightRecorder|ContentionSite|profile_hz|recorder_capacity|storm_threshold' \
  crates tests examples; then
  echo "ci: a deleted instrument or its option is back (see above)" >&2
  exit 1
fi
# ISSUE 22 removed the two closed-loop bins that timed a client sleep
# with their gate script, artifacts and knobs, and a vendored stand-in.
if grep -rnE 'bench_gate|BENCH_hotpath|BENCH_broker|HOTPATH_|BROKER_GATE|BENCH_GATE|rayon' \
  crates tests examples scripts .github README.md DESIGN.md EXPERIMENTS.md Cargo.toml |
  grep -v '^scripts/ci.sh:.*grep -rnE'; then
  echo "ci: a deleted bench, its gate or a deleted stand-in is back (see above)" >&2
  exit 1
fi
# ISSUE 24: a tier takes the deployment's Obs and fault schedule in
# its constructor. Nothing attaches, enables or arms afterwards, so
# nothing holds a OnceLock to be filled in later (DESIGN.md §8; the
# process clock's EPOCH in obs/src/trace.rs is the one that stays).
if grep -rnE 'attach_obs|attach_faults|attach_autoscaler|with_observability|with_counter|start_with_faults|enable_telemetry|enable_with_tiers|ObsHooks' \
  crates tests examples; then
  echo "ci: a late-attach hook is back (see above)" >&2
  exit 1
fi
if grep -rn 'OnceLock' crates/core/src crates/queue/src crates/obs/src/lib.rs crates/obs/src/collect.rs; then
  echo "ci: a fill-in-later handle is back on the wiring path (see above)" >&2
  exit 1
fi

echo "######## docs name only bins and scripts that exist"
docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
cited=$(grep -ohE -e '--bin [a-z0-9_]+' -e 'scripts/[a-z_]+\.(sh|py)' "${docs[@]}" |
  sed 's|^--bin \(.*\)|crates/bench/src/bin/\1.rs|' | sort -u)
for path in $cited; do
  if [[ ! -f $path ]]; then
    echo "ci: the docs cite $path, which does not exist" >&2
    exit 1
  fi
done

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
# And its per-layer form: one traced pair, every per-layer metric.
scripts/pairs.sh --quick --layers HEAD 7 noop-dispatch

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

echo "######## workloads smoke (open-loop observatory, seed matrix)"
# Three short runs; the committed BENCH_workloads.json and each fresh
# artifact must hold the five-scenario coordinated-omission contract,
# and a seed must replay its schedules byte-identically.
scripts/workloads_check.py

echo "######## ci OK"
