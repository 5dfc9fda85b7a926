#!/usr/bin/env python3
"""Bench regression gates.

Compares the latest smoke runs under results/ against the committed
full-length artifacts at the workspace root. Windows and machines
differ, so the regression floors are deliberately coarse; the absolute
acceptance thresholds (the broker rework's 2x single-thread / 6x
scaling contract) are enforced on the *committed* artifacts, which were
produced by full-length runs and do not change between CI runs.

Checks:
  hotpath   single-thread hit-path throughput within a generous factor
            of the committed baseline, and the 1-to-8-thread scaling
            shape survives (the analytics layer must not serialize the
            hot path).
  broker    committed contract: memo-bypass single-thread req/s at
            least BROKER_GATE_MIN_X times the committed hot-path
            baseline, and the RTT series scales at least
            BROKER_GATE_MIN_SCALING from 1 to 8 clients. Fresh smoke
            runs are then held to noise-floored fractions of the
            committed numbers (raw ring throughput, memo-bypass
            single-thread, scaling shape).
  workloads committed contract: BENCH_workloads.json must carry all
            five open-loop scenarios (steady-poisson, diurnal, bursty,
            zipf-fanout, hostile-tenant), each with corrected and
            uncorrected p50/p99/p999, monotone corrected quantiles,
            corrected >= uncorrected at every reported quantile, shed
            and cold-start counts, a schedule fingerprint and a
            non-empty tail stage attribution; the bursty scenario must
            show a positive coordinated-omission gap at p99. A fresh
            smoke artifact under results/, when present, is held to a
            noise-floored p999 regression bound per scenario.

Usage: bench_gate.py [--check hotpath|broker|workloads|all]   (default: all)

Environment:
  BENCH_GATE_RATIO          throughput floor as a fraction of the
                            committed baseline (default 0.25; <=0
                            disables every gate)
  BENCH_GATE_SPEEDUP        minimum fresh 1-to-8-thread hotpath speedup
                            (default 1.5)
  BROKER_GATE_MIN_X         committed broker single-thread multiple of
                            the committed hotpath baseline (default 2.0)
  BROKER_GATE_MIN_SCALING   committed broker 1-to-8-client scaling
                            (default 6.0)
  BROKER_GATE_SPEEDUP       minimum fresh 1-to-8-client broker scaling,
                            noise floor for shared runners (default 2.0)
  WORKLOADS_GATE_FACTOR     fresh smoke corrected p999 may exceed the
                            committed p999 by at most this multiple
                            (default 5.0; <=0 disables the workloads
                            gate entirely)
  WORKLOADS_GATE_FLOOR_MS   additive noise floor on the p999 bound, ms
                            (default 25). Smoke windows are short and
                            shared runners are noisy; the bound is
                            committed_p999 * factor + floor.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def series_rate(doc, mode, threads, key):
    cells = doc["modes"][mode]
    return next(c[key] for c in cells if c["threads"] == threads)


def rtt_mode(doc):
    """The simulated-RTT serve series, whatever RTT it was run with."""
    names = [m for m in doc["modes"] if m.startswith("serve_rtt") and m != "serve_rtt0"]
    if not names:
        sys.exit("bench gate: broker artifact has no serve_rtt series")
    return names[0]


def check_hotpath(ratio):
    baseline = load("BENCH_hotpath.json")
    if baseline is None:
        print("bench gate: no committed BENCH_hotpath.json; skipping")
        return
    current = load("results/BENCH_hotpath.json")
    if current is None:
        sys.exit("bench gate: no results/BENCH_hotpath.json smoke run")

    base = series_rate(baseline, "hit100", 1, "req_per_s")
    cur = series_rate(current, "hit100", 1, "req_per_s")
    floor = base * ratio
    if cur < floor:
        sys.exit(
            "bench gate: hotpath regression — hit100 1-thread {:.0f} req/s "
            "vs committed {:.0f} (floor {:.0f}, ratio {})".format(
                cur, base, floor, ratio
            )
        )
    speedup = current.get("hit100_speedup_8t_over_1t", 0.0)
    speedup_floor = float(os.environ.get("BENCH_GATE_SPEEDUP", "1.5"))
    if speedup < speedup_floor:
        sys.exit(
            "bench gate: 1→8 thread speedup {:.2f}x < {}x "
            "(analytics layer may have serialized the hot path)".format(
                speedup, speedup_floor
            )
        )
    print(
        "bench gate: hotpath within noise ({:.0f} req/s vs committed {:.0f}, "
        "speedup {:.2f}x)".format(cur, base, speedup)
    )


def check_broker(ratio):
    committed = load("BENCH_broker.json")
    if committed is None:
        print("bench gate: no committed BENCH_broker.json; skipping")
        return

    # Absolute contract, enforced on the committed full-length run: the
    # memo-bypass broker path must beat the committed hot-path baseline
    # by the rework's factor, and the RTT series must scale.
    min_x = float(os.environ.get("BROKER_GATE_MIN_X", "2.0"))
    min_scaling = float(os.environ.get("BROKER_GATE_MIN_SCALING", "6.0"))
    hotpath = load("BENCH_hotpath.json")
    single = series_rate(committed, "serve_rtt0", 1, "per_s")
    if hotpath is not None:
        baseline = series_rate(hotpath, "hit100", 1, "req_per_s")
        if single < baseline * min_x:
            sys.exit(
                "bench gate: committed broker single-thread {:.0f} req/s "
                "< {}x the committed hot-path baseline {:.0f}".format(
                    single, min_x, baseline
                )
            )
    committed_scaling = committed.get("serve_rtt_speedup_8t_over_1t", 0.0)
    if committed_scaling < min_scaling:
        sys.exit(
            "bench gate: committed broker 1→8 client scaling {:.2f}x "
            "< {}x".format(committed_scaling, min_scaling)
        )

    current = load("results/BENCH_broker.json")
    if current is None:
        sys.exit("bench gate: no results/BENCH_broker.json smoke run")

    # Noise-floored regression checks on the fresh smoke run.
    for label, mode, threads in [
        ("raw ring", "raw", 1),
        ("memo-bypass single-thread", "serve_rtt0", 1),
    ]:
        base = series_rate(committed, mode, threads, "per_s")
        cur = series_rate(current, mode, threads, "per_s")
        if cur < base * ratio:
            sys.exit(
                "bench gate: broker regression — {} {:.0f} ops/s vs "
                "committed {:.0f} (floor {:.0f}, ratio {})".format(
                    label, cur, base, base * ratio, ratio
                )
            )
    fresh_scaling = current.get("serve_rtt_speedup_8t_over_1t", 0.0)
    scaling_floor = float(os.environ.get("BROKER_GATE_SPEEDUP", "2.0"))
    if fresh_scaling < scaling_floor:
        sys.exit(
            "bench gate: broker 1→8 client scaling {:.2f}x < {}x "
            "(sharded rings may have serialized)".format(
                fresh_scaling, scaling_floor
            )
        )
    print(
        "bench gate: broker within noise (committed {:.0f} req/s @1t "
        "{:.2f}x scaling; fresh {:.0f} req/s, {:.2f}x — raw ring "
        "{:.0f} ops/s vs committed {:.0f})".format(
            single,
            committed_scaling,
            series_rate(current, "serve_rtt0", 1, "per_s"),
            fresh_scaling,
            series_rate(current, "raw", 1, "per_s"),
            series_rate(committed, "raw", 1, "per_s"),
        )
    )


WORKLOAD_SCENARIOS = (
    "steady-poisson",
    "diurnal",
    "bursty",
    "zipf-fanout",
    "hostile-tenant",
)


def check_workloads():
    factor = float(os.environ.get("WORKLOADS_GATE_FACTOR", "5.0"))
    floor_ms = float(os.environ.get("WORKLOADS_GATE_FLOOR_MS", "25"))
    if factor <= 0:
        print("bench gate: workloads gate disabled (WORKLOADS_GATE_FACTOR<=0)")
        return
    committed = load("BENCH_workloads.json")
    if committed is None:
        sys.exit(
            "bench gate: no committed BENCH_workloads.json; run the "
            "workloads bench full-length and commit the artifact"
        )
    by_name = {s.get("name"): s for s in committed.get("scenarios", [])}
    missing = [n for n in WORKLOAD_SCENARIOS if n not in by_name]
    if missing:
        sys.exit(
            "bench gate: committed BENCH_workloads.json is missing "
            "scenarios: {}".format(", ".join(missing))
        )
    for name in WORKLOAD_SCENARIOS:
        sc = by_name[name]
        ol = sc.get("open_loop") or {}
        for side in ("corrected", "uncorrected"):
            summary = ol.get(side) or {}
            for q in ("p50", "p99", "p999"):
                if q not in summary:
                    sys.exit(
                        "bench gate: workloads scenario {} lacks {} {}".format(
                            name, side, q
                        )
                    )
        corr, uncorr = ol["corrected"], ol["uncorrected"]
        if not corr["p50"] <= corr["p99"] <= corr["p999"]:
            sys.exit(
                "bench gate: workloads scenario {} corrected quantiles "
                "are not monotone".format(name)
            )
        for q in ("p50", "p99", "p999"):
            if corr[q] < uncorr[q]:
                sys.exit(
                    "bench gate: workloads scenario {} corrected {} below "
                    "uncorrected — the intended-start stamp is broken".format(name, q)
                )
        if not sc.get("completed", 0) > 0:
            sys.exit("bench gate: workloads scenario {} completed nothing".format(name))
        for key in ("shed", "cold_starts", "schedule_fingerprint"):
            if key not in sc:
                sys.exit(
                    "bench gate: workloads scenario {} lacks {}".format(name, key)
                )
        tail = (sc.get("attribution") or {}).get("tail") or {}
        if not tail.get("stages"):
            sys.exit(
                "bench gate: workloads scenario {} has no tail stage "
                "attribution".format(name)
            )
    gap = by_name["bursty"]["open_loop"].get("gap_p99_ns", 0)
    if not gap > 0:
        sys.exit(
            "bench gate: committed bursty scenario shows no coordinated-"
            "omission gap at p99; the open-loop correction is not biting"
        )

    fresh = load("results/BENCH_workloads.json")
    if fresh is None:
        print(
            "bench gate: workloads committed artifact OK (5 scenarios, "
            "bursty CO gap {:.1f} ms); no fresh smoke to regress".format(gap / 1e6)
        )
        return
    fresh_by_name = {s.get("name"): s for s in fresh.get("scenarios", [])}
    for name in WORKLOAD_SCENARIOS:
        if name not in fresh_by_name:
            sys.exit("bench gate: fresh workloads smoke lacks scenario {}".format(name))
        got = fresh_by_name[name]["open_loop"]["corrected"]["p999"]
        base = by_name[name]["open_loop"]["corrected"]["p999"]
        bound = base * factor + floor_ms * 1e6
        if got > bound:
            sys.exit(
                "bench gate: workloads {} corrected p999 regressed — "
                "{:.1f} ms vs bound {:.1f} ms (committed {:.1f} ms * {} "
                "+ {} ms floor)".format(
                    name, got / 1e6, bound / 1e6, base / 1e6, factor, floor_ms
                )
            )
    print(
        "bench gate: workloads OK (5 scenarios; bursty CO gap {:.1f} ms; "
        "fresh p999s within {}x + {} ms of committed)".format(
            gap / 1e6, factor, floor_ms
        )
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--check",
        choices=[
            "hotpath",
            "broker",
            "workloads",
            "all",
        ],
        default="all",
    )
    opts = parser.parse_args()
    if opts.check in ("workloads", "all"):
        check_workloads()
    ratio = float(os.environ.get("BENCH_GATE_RATIO", "0.25"))
    if ratio <= 0:
        print("bench gate: disabled (BENCH_GATE_RATIO<=0)")
        return 0
    if opts.check in ("hotpath", "all"):
        check_hotpath(ratio)
    if opts.check in ("broker", "all"):
        check_broker(ratio)
    return 0


if __name__ == "__main__":
    sys.exit(main())
