#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload service_reuse --seed 1 --seconds 30 --trace 0

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds. The harness is built from source into
.bench_build/perfbench on first use. Each workload runs in its own process;
`--workload all` runs every workload in BENCHMARK.json one after another.

The harness checks every join's match count against the generator's
expected count. This script also checks that every metric BENCHMARK.json
names was reported with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics are
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
The exit code is 0 only when every result was correct.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# One run must end within 180 s; leave room for this script's own work.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness. Returns True on success."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out: " + " ".join(cmd))
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(contract, workload, seed, seconds, trace, smoke):
    """Runs one workload in its own process. Returns the contract result
    dict, or None when the harness produced no result."""
    cmd = [BINARY, "--workload=" + workload, "--seed=" + str(seed),
           "--seconds=" + str(seconds)]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", "--trace_out=" +
                os.path.join(trace_dir, workload + ".json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(workload + ": harness exceeded %d s" % RUN_TIMEOUT_S)
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        doc = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("%s: no result (exit code %d)" % (workload, proc.returncode))
        return None

    kind = "per_layer" if trace else "end_to_end"
    reported = doc.get(kind, {})
    metrics = {}
    correct = bool(doc.get("correct")) and proc.returncode == 0
    for spec in contract[kind]:
        m = reported.get(spec["name"])
        if (m is None or m.get("unit") != spec["unit"] or
                not isinstance(m.get("value"), (int, float)) or
                not math.isfinite(m["value"])):
            log("%s: metric %s missing, non-finite or not in %s" %
                (workload, spec["name"], spec["unit"]))
            correct = False
            continue
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    if doc.get("problems"):
        log("%s: %s" % (workload, doc["problems"]))
    return {"correct": correct,
            "attempted": int(doc.get("attempted", 0)),
            "failed": int(doc.get("failed", 0)),
            "metrics": metrics}


def main():
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and a fixed operation count")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")) or not build():
        log("cannot build the benchmark harness")
        return 2
    names = [w["name"] for w in contract["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log("unknown workload %s (known: %s)" % (args.workload,
                                                 ", ".join(names)))
        return 2
    workloads = names if args.workload == "all" else [args.workload]

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        result = run_workload(contract, w, args.seed, args.seconds,
                              args.trace == 1, args.smoke)
        if result is None:
            return 1
        if len(workloads) == 1:
            combined = result
            break
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
