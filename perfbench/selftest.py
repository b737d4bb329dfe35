#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size (small inputs, a fixed number of
operations) twice with one seed, traced, plus once untraced. It asserts:
  - every metric BENCHMARK.json names is printed by name with its unit;
  - fail_frac is 0 and every run reports correct results;
  - the exact counters repeat between the two traced runs:
    storage.bytes_written, storage.bytes_read, join.victim_spills and
    cache.lookups;
  - the counters a workload exists to exercise are non-zero there
    (spill I/O and victim spills on service_spill, cache lookups on
    service_reuse).
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
EXACT = ["storage.bytes_written", "storage.bytes_read", "join.victim_spills",
         "cache.lookups"]
MUST_BE_NONZERO = {
    "service_spill": ["storage.bytes_written", "storage.bytes_read",
                      "join.victim_spills"],
    "service_reuse": ["cache.lookups"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().split("\n")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("end_to_end", "per_layer"):
            printed[parts[1]] = (float(parts[2]), parts[3])
    return proc.returncode, json.loads(lines[-1]), printed


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    wanted = [(m["name"], m["unit"])
              for m in contract["end_to_end"] + contract["per_layer"]]
    for w in [x["name"] for x in contract["workloads"]]:
        code, result, _ = run(w, trace=0)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              "%s untraced smoke run failed: %s" % (w, result))
        check(sorted(result["metrics"]) ==
              sorted(m["name"] for m in contract["end_to_end"]),
              "%s untraced result lacks end-to-end metrics" % w)
        counts = []
        for rep in range(2):
            code, result, printed = run(w, trace=1)
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  "%s traced smoke run %d failed: %s" % (w, rep, result))
            for name, unit in wanted + [("fail_frac", "frac")]:
                check(name in printed and printed[name][1] == unit,
                      "%s did not print %s in %s" % (w, name, unit))
            check(printed["fail_frac"][0] == 0, "%s fail_frac != 0" % w)
            counts.append({n: printed[n][0] for n in EXACT})
        check(counts[0] == counts[1],
              "%s exact counters differ between runs: %s vs %s" %
              (w, counts[0], counts[1]))
        for name in MUST_BE_NONZERO.get(w, []):
            check(counts[0][name] > 0, "%s reports no %s" % (w, name))
        print("ok %-14s %s" % (w, counts[0]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
