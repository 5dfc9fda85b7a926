#!/usr/bin/env python3
"""The open-loop observatory's smoke: three short runs and the contract.

Runs `workloads` on seeds 7, 7 and 1848 (300 ms windows, a 120-servable
catalog, WORKLOADS_MIRROR=0 so the committed full-length
BENCH_workloads.json is not clobbered). Holds the committed artifact
and each fresh one to the open-loop contract below, then checks that
the two seed-7 runs carry byte-identical schedule fingerprints and that
seed 1848's differ. The committed artifact must also show the
correction biting: a positive coordinated-omission gap at p99 on the
bursty scenario (a 300 ms window is too short to promise one).
"""

import json
import os
import subprocess
import sys

os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SCENARIOS = {"steady-poisson", "diurnal", "bursty", "zipf-fanout", "hostile-tenant"}


def check(path):
    """The contract on one artifact; returns its scenarios by name."""
    scenarios = {s["name"]: s for s in json.load(open(path))["scenarios"]}

    def fail(scenario, what):
        sys.exit("workloads check: {}: scenario {} {}".format(path, scenario, what))

    if not SCENARIOS <= scenarios.keys():
        sys.exit("workloads check: {} lacks {}".format(path, SCENARIOS - scenarios.keys()))
    for name in SCENARIOS:
        s = scenarios[name]
        if not s["completed"] > 0:
            fail(name, "completed nothing")
        for key in ("shed", "cold_starts", "schedule_fingerprint"):
            if key not in s:
                fail(name, "lacks " + key)
        corrected, uncorrected = s["open_loop"]["corrected"], s["open_loop"]["uncorrected"]
        if not corrected["p50"] <= corrected["p99"] <= corrected["p999"]:
            fail(name, "corrected quantiles are not monotone")
        for q in ("p50", "p99", "p999"):
            if corrected[q] < uncorrected[q]:
                fail(name, "corrected {} below uncorrected: the intended-start stamp is broken".format(q))
        if not s["attribution"]["tail"]["stages"]:
            fail(name, "has no tail stage attribution")
    return scenarios


def fingerprints(scenarios):
    return {name: s["schedule_fingerprint"] for name, s in scenarios.items()}


committed = check("BENCH_workloads.json")
gap = committed["bursty"]["open_loop"]["gap_p99_ns"]
if not gap > 0:
    sys.exit("workloads check: committed bursty scenario shows no coordinated-omission gap at p99")


def smoke(seed):
    print("-- workloads seed {}".format(seed), flush=True)
    knobs = {"WORKLOADS_MS": "300", "WORKLOADS_FANOUT": "120", "WORKLOADS_SEED": str(seed), "WORKLOADS_MIRROR": "0"}
    subprocess.run(
        ["cargo", "run", "--release", "-p", "dlhub-bench", "--bin", "workloads"],
        env={**os.environ, **knobs},
        stdout=subprocess.DEVNULL,
        check=True,
    )
    return fingerprints(check("results/BENCH_workloads.json"))


a1, a2, b = smoke(7), smoke(7), smoke(1848)
if a1 != a2:
    sys.exit("workloads check: one seed, two schedules: {} vs {}".format(a1, a2))
if a1 == b:
    sys.exit("workloads check: two seeds produced identical schedules")
print(
    "workloads check OK ({} scenarios; schedules replay byte-identically per seed; "
    "committed bursty CO gap {:.1f} ms)".format(len(SCENARIOS), gap / 1e6)
)
