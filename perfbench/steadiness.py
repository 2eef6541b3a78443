"""Steadiness check: two sets of runs of one commit, judged by BENCHMARK.json's bounds.

    python3 perfbench/steadiness.py

Each of two sets runs every workload of BENCHMARK.json once per seed, ten
seeds per set (seeds 1-10, then 11-20), seed by seed so that slow phases
of the machine fall on all workloads.  For each end-to-end metric and
workload it prints the median and the spread, the distance between the
first and third quartile as a share of the median.  It fails when a
spread exceeds the metric's bound, or when the second set's median is
worse than the first set's by more than the bound.  A spread above a
third of the bound is flagged as not yet steady.  Runs are sequential:
one benchmark process at a time.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEEDS = 10


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                          proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {}  # (set, workload) -> list of results
    for s in range(SETS):
        for i in range(SEEDS):
            seed = 1 + s * SEEDS + i
            for name in names:
                res = run_once(bench, name, seed, bench["run_seconds"])
                runs.setdefault((s, name), []).append(res)
                print("set %d %-9s seed %-3d wall %5.1fs correct=%s %s" % (
                    s + 1, name, seed, res["wall_s"], res["correct"],
                    " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
                    file=sys.stderr, flush=True)

    ok = True
    print("%-9s %-12s %5s %10s %8s %8s %8s  %s" % ("workload", "metric", "set", "median",
                                                   "spread", "bound", "drift", "verdict"))
    for name in names:
        first = {}
        for s in range(SETS):
            results = runs[(s, name)]
            if not all(r["correct"] for r in results):
                ok = False
                print("%s set %d: a run reported correct=false" % (name, s + 1))
            for key, spec in metrics.items():
                sp, med = spread([r["metrics"][key]["value"] for r in results])
                first.setdefault(key, med)
                sign = 1.0 if spec["better"] == "lower" else -1.0
                drift = sign * (med - first[key]) / first[key]
                notes = []
                if sp > spec["bound"]:
                    notes.append("SPREAD ABOVE BOUND")
                elif sp > spec["bound"] / 3:
                    notes.append("spread above bound/3")
                if drift > spec["bound"]:
                    notes.append("MEDIAN WORSE BY MORE THAN BOUND")
                if any(n.isupper() for n in notes):
                    ok = False
                print("%-9s %-12s %5d %10.4g %8.4f %8.3f %+8.4f  %s" % (
                    name, key, s + 1, med, sp, spec["bound"], drift,
                    ", ".join(notes) or "ok"))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
