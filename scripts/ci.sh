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
# process clock's EPOCH in the seam, crates/sync/src/time.rs, is the
# one that stays).
if grep -rnE 'attach_obs|attach_faults|attach_autoscaler|with_observability|with_counter|start_with_faults|enable_telemetry|enable_with_tiers|ObsHooks' \
  crates tests examples; then
  echo "ci: a late-attach hook is back (see above)" >&2
  exit 1
fi
# ISSUE 25: the paper's figures are served by the real dispatch path.
# The simulator's serving model, its per-system profiles, the kernel
# calibration and the bins the figures absorbed are gone (EXPERIMENTS.md).
if grep -rnE 'ServingProfile|CacheLocation|calibrate_servables|CalibratedServable|run_throughput|FifoServer|ablation_fig7_real|ablation_fig8_real|ablation_multitm' \
  crates tests examples scripts README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md |
  grep -v '^scripts/ci.sh:.*grep -rnE'; then
  echo "ci: a deleted serving model, calibration or figure bin is back (see above)" >&2
  exit 1
fi

# The time-series store, its sampler thread and the telemetry modes are
# gone: the Management Service's control pass differences the registry
# the request path writes (DESIGN.md §13), and `dlhub top` two snapshots.
if grep -rnE 'with_telemetry|TelemetryHandle|Telemetry::|SeriesStore|ControlSignals|sample_now|dlhub-telemetry' \
  crates tests examples README.md; then
  echo "ci: the time-series store or a caller of it is back (see above)" >&2
  exit 1
fi
# The seam's crossbeam-style channel is gone: replica pools, the async
# pool and the workloads bin queue on the broker's ShardedRing, the one
# blocking queue (DESIGN.md §7, "The seam").
if grep -rnE 'dlhub_sync::channel|channel::(bounded|unbounded)|send_past_bound|SendTimeoutError' \
  crates tests examples; then
  echo "ci: the deleted channel or a caller of it is back (see above)" >&2
  exit 1
fi
# One executor serves every model type: the inline TF-Serving and
# SageMaker stubs copied the real servers in crates/baselines, and the
# error no router raised went with them (DESIGN.md §2).
if grep -rnE 'TfServingExecutor|SageMakerExecutor|run_inline|NoExecutor' \
  crates tests examples; then
  echo "ci: a deleted inline executor or its error is back (see above)" >&2
  exit 1
fi

# Lines of non-test code in crates/*/src outside crates/sync that match
# the regex $1. Test modules (from a `#[cfg(test)]` module on) are
# skipped.
non_test() {
  find crates/*/src -name '*.rs' -not -path 'crates/sync/*' | sort |
    PATTERN="$1" xargs awk '
      FNR == 1 { skip = 0 }
      prev ~ /^[ \t]*#\[cfg\(test\)\]/ && /^[ \t]*(pub(\(crate\))? )?mod [a-z_]+/ { skip = 1 }
      !skip && $0 ~ ENVIRON["PATTERN"] { print FILENAME ":" FNR ": " $0 }
      { prev = $0 }'
}

# Every lock, channel, atomic, thread and clock read comes from the one
# concurrency seam, dlhub-sync (DESIGN.md §7, "The seam"); the vendored
# parking_lot and crossbeam stand-ins and dlhub-sim are gone. Test
# modules may use std directly.
seam_leaks=$(non_test 'std::sync::atomic|std::sync::\{[^}]*atomic|std::time::Instant|std::time::\{[^}]*Instant|std::thread|parking_lot|crossbeam|dlhub_sim')
if [[ -n $seam_leaks ]]; then
  echo "$seam_leaks"
  echo "ci: non-test code reaches past the dlhub-sync seam (see above)" >&2
  exit 1
fi
# Every one-shot wait for a value is the seam's fill-once Slot (DESIGN.md
# §7, "The seam"): no OnceLock, and no Condvar of its own, outside it. The
# condvars that stay wait on a condition over shared state, not for a
# value: the shard's park_cv and room_cv (an item to claim, room on a
# bounded ring) and the TaskTable's.
one_shots=$({
  non_test 'OnceLock'
  non_test 'Condvar' | grep -vE '^crates/(queue/src/shard|core/src/task)\.rs:'
} || true)
if [[ -n $one_shots ]]; then
  echo "$one_shots"
  echo "ci: a one-shot wait outside dlhub_sync::Slot (see above)" >&2
  exit 1
fi

# No request path may panic: in dlhub-core (the executor, the Task
# Manager, the serving layer, the memo, admission, the task codec...) and
# in dlhub-queue (the broker and the ring every request crosses), a bare
# unwrap, expect or panic! in non-test code sits under a comment naming
# the invariant that keeps it from firing (or, for the injected replica
# panic, what catches it).
# Anything else is a typed error.
bare_panics=$(find crates/core/src crates/queue/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { skip = 0; prev = "" }
    prev ~ /^[ \t]*#\[cfg\(test\)\]/ && /^[ \t]*(pub(\(crate\))? )?mod [a-z_]+/ { skip = 1 }
    !skip && /\.unwrap\(\)|\.expect\(|panic!\(/ && !/^[ \t]*\/\// && prev !~ /^[ \t]*\/\// {
      print FILENAME ":" FNR ": " $0
    }
    /[^ \t]/ { prev = $0 }')
if [[ -n $bare_panics ]]; then
  echo "$bare_panics"
  echo "ci: a request-path unwrap, expect or panic! without a comment naming its invariant (see above)" >&2
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

echo "######## soak (live heap flat per request and per thread served; allocations per request)"
# Its own binary with a counting global allocator, ignored by the run
# above: every entry point and a thread-churn case, each failing if the
# live heap grows between its 10 % and 100 % marks, and an allocation
# budget per entry point (noop run, the same run admitted with control
# passes between requests, matminer-util run, 3-step pipeline)
# that prints every entry point's count when one is over, a noop run
# held to two hand-offs (voluntary context switches) per request on one
# CPU, and a hub at rest holding no model it has not served (DESIGN.md
# §7, "What the hub keeps", "What a request allocates" and "Hand-offs
# per request").
cargo test --release --quiet -p dlhub-bench --test soak -- --ignored

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
# And its per-layer form: traced pairs, every per-layer metric's
# median and range per side.
scripts/pairs.sh --quick --layers 2 HEAD 7 noop-dispatch
# And its A/A form: one export as both sides.
scripts/pairs.sh --quick --aa HEAD 7 noop-dispatch

echo "######## kernels smoke (micro bench, kernels, matsci and memo groups; both memo key-hash rows)"
# The tensor, forest and memo rungs of the layer ladder: the CIFAR GEMM
# shapes, the dense layer, ReLU, max-pool, both forward passes, the
# forest's fit and predictions, and the memo's hit, miss and the key
# hashes of a CIFAR input and of an `Int`. A short window: this keeps the groups building, running and
# printing every row DESIGN.md §16 and §7 cite.
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

echo "######## paper tables and figures (real dispatch path, every shape check)"
# Each bin serves its requests through a TestHub or the real baselines;
# the script fails on any [FAIL] line (EXPERIMENTS.md).
scripts/run_experiments.sh

echo "######## workloads smoke (open-loop observatory, seed matrix)"
# Three short runs; the committed BENCH_workloads.json and each fresh
# artifact must hold the five-scenario coordinated-omission contract,
# and a seed must replay its schedules byte-identically.
scripts/workloads_check.py

echo "######## ci OK"
