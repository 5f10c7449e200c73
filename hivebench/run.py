#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 hivebench/run.py --workload bi_warm --seed 1 --seconds 35 --trace 0
    python3 hivebench/run.py --smoke     # build, then the benchmark's own test

The build goes to .bench_build/hivebench (configured once, then
incremental); run reports and span files go to .bench_build/out. Build
output goes to stderr. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics, where metrics are the
BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1) for a workload BENCHMARK.json lists, and every metric the run
produced for one it leaves out. Any failure exits non-zero without printing
that line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hivebench")
OUT = os.path.join(ROOT, ".bench_build", "out")
# A run is meant to end within 180 s: the binary stops its loop at the first
# deck boundary after --seconds, and set-up plus verification take well
# under the rest.
RUN_TIMEOUT_S = 170


def fail(message):
    print("hivebench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found at " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target", "hivebench"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="build and run the benchmark's own smoke test")
    args = parser.parse_args()

    build()
    if args.smoke:
        run_logged(["cmake", "--build", BUILD, "-j", "4"])
        run_logged(["ctest", "--test-dir", BUILD, "--output-on-failure"])
        return
    if not args.workload:
        fail("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = any(w["name"] == args.workload for w in spec["workloads"])
    declared = spec["per_layer" if args.trace else "end_to_end"]

    cmd = [os.path.join(BUILD, "hivebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # The binary reports every metric its workload produces. For a workload
    # BENCHMARK.json lists, the result carries exactly the declared set, each
    # with its declared unit; one it leaves out (scan_cold) keeps them all.
    if listed:
        metrics = {}
        for metric in declared:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                fail("metric %s missing or not in %s" % (metric["name"], metric["unit"]))
            metrics[metric["name"]] = got
        result["metrics"] = metrics
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
