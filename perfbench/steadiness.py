#!/usr/bin/env python3
"""Steadiness record of the repository benchmark.

    python3 perfbench/steadiness.py

Runs every workload in BENCHMARK.json ten times in each of two sets, each
run with its own seed and BENCHMARK.json's run_seconds, alternating the
workload order from round to round, and writes perfbench/STEADINESS.md. For each end-to-end
metric and set it reports the median, quartiles, min/max and the spread
(interquartile range as a share of the median, as
statistics.quantiles(values, n=4) gives the quartiles), next to each
run's host covariate (pointer-chase latency at the start and end of the
run). With two sets it also reports how far the second set's median is
from the first's, against the metric's bound in BENCHMARK.json. Exits
non-zero when a spread exceeds its bound or a second median is worse than
the first by more than the bound.
"""

import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COVARIATE = re.compile(r"perf\.mem_latency_ns start ([\d.]+) end ([\d.]+)")
RUNS = 10
SETS = 2
OUT = os.path.join(HERE, "STEADINESS.md")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    cov = COVARIATE.search(proc.stdout)
    result["covariate_ns"] = (float(cov.group(1)), float(cov.group(2))) \
        if cov else (0.0, 0.0)
    result["seed"] = seed
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("%s seed %d failed: %s" % (workload, seed, result))
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med if med else 0.0}


def worse_share(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"]

    runs = {}  # (set, workload) -> list of results
    for s in range(SETS):
        for i in range(RUNS):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = 1000 * (s + 1) + i
                r = run_once(w, seed, seconds)
                runs.setdefault((s, w), []).append(r)
                print("set %d run %d %s seed %d: %s" % (
                    s + 1, i + 1, w, seed,
                    {k: round(v["value"], 4) for k, v in r["metrics"].items()}),
                    flush=True)

    ok = True
    out = ["# Benchmark steadiness record", "",
           "Generated by `python3 perfbench/steadiness.py`: %d runs per set, "
           "%d sets, %g s per run." % (RUNS, SETS, seconds),
           "Spread = (Q3 - Q1) / median over the runs of one set; "
           "Δmedian = how much worse set 2's median is than set 1's "
           "(negative = better). Bound from BENCHMARK.json.", ""]
    for w in workloads:
        out += ["## " + w, "",
                "| metric | set | median | Q1 | Q3 | min | max | spread | "
                "bound | Δmedian |",
                "|---|---|---|---|---|---|---|---|---|---|"]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in runs[(s, w)]]
                st = summarize(vals)
                delta = ""
                if s == 0:
                    first = st["median"]
                else:
                    d = worse_share(first, st["median"], m["better"])
                    delta = "%+.3f" % d
                    if d > bound:
                        ok = False
                        delta += " FAIL"
                spread = "%.3f" % st["spread"]
                if st["spread"] > bound:
                    ok = False
                    spread += " FAIL"
                out.append("| %s | %d | %.4f | %.4f | %.4f | %.4f | %.4f | "
                           "%s | %.2f | %s |" % (
                               name, s + 1, st["median"], st["q1"], st["q3"],
                               st["min"], st["max"], spread, bound, delta))
        out += ["", "Per run (host covariate = pointer-chase ns at start/end):",
                "", "| set | seed | " + " | ".join(m["name"] for m in metrics)
                + " | mem_latency_ns |",
                "|---" * (len(metrics) + 3) + "|"]
        for s in range(SETS):
            for r in runs[(s, w)]:
                out.append("| %d | %d | %s | %.1f / %.1f |" % (
                    s + 1, r["seed"],
                    " | ".join("%.4f" % r["metrics"][m["name"]]["value"]
                               for m in metrics),
                    r["covariate_ns"][0], r["covariate_ns"][1]))
        out.append("")
    out.append("Verdict: " + ("every spread and median shift within its bound"
                              if ok else "some metric exceeded its bound"))
    with open(OUT, "w") as f:
        f.write("\n".join(out) + "\n")
    print("wrote " + OUT)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
