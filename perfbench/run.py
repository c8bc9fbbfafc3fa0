#!/usr/bin/env python3
"""Benchmark of the MP-DASH packet-level simulator.

Builds perfbench/ (the simulator library from src/ plus the benchmark
program in perfbench/main.cpp) into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload field --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 its per-layer metrics (and only then runs
the layer drivers); each metric is also printed above that line as
"name value unit". The exit status is 0 when every output check held and
1 otherwise.

    python3 perfbench/run.py --selftest

runs every workload once for one second and fails unless each passes its
output checks, including the trace-versus-registry count cross-checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Extra processes per run that only set up, probe the machine's speed and
# exit; setup_s is the median over them and the measuring process, each
# scaled to the reference machine speed by its own probe (the measuring
# process by its speed over the run).
SETUP_SAMPLES = 40
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "fleet.h")):
        die("simulator sources (src/) not found beside perfbench/")
    steps = [
        ["cmake", "-S", PACKAGE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            die("build failed: " + " ".join(cmd))


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def setup_sample(workload, seed):
    start = time.monotonic()
    done = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S, check=False)
    out = last_json_line(done.stdout)
    if done.returncode != 0 or out is None:
        die(f"set-up of {workload} failed")
    return (out["setup_done"] - start) * out["speed"]


def measure(workload, seed, seconds, layers):
    """Runs the program once; returns its result with setup_s added."""
    setups = [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES)]
    start = time.monotonic()
    done = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)] + (["--layers"] if layers else []),
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S, check=False)
    result = last_json_line(done.stdout)
    if result is None:
        die(f"{workload} printed no result (exit {done.returncode})")
    speed = result["diagnostics"]["machine_speed"]["value"]
    setups.append((result["setup_done"] - start) * speed)
    result["metrics"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s"}
    result["exit"] = done.returncode
    return result


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    build()
    result = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = got
        print(f"{m['name']} {got['value']:.9g} {got['unit']}")
    for name, got in result["diagnostics"].items():
        print(f"perfbench: {name} {got['value']:.9g} {got['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and result["exit"] == 0 else 1


def selftest():
    build()
    bad = 0
    for w in load_spec()["workloads"]:
        result = measure(w["name"], 1, 1, True)
        ok = result["correct"] and result["exit"] == 0 and result["failed"] == 0
        print(f"{w['name']}: {'ok' if ok else 'FAILED'} "
              f"({result['attempted']} attempted)")
        bad += 0 if ok else 1
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
