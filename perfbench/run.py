#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe with dune (the
first build compiles the whole library tree), runs the workload in a
fresh process and prints its result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. Without --workload, every workload is
run once untraced and its end-to-end metrics are printed by name with
their units. Exits non-zero, without a result line, if the build or the
run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig5-overhead", "pathdyn-soak", "traffic-congested"]
# Wall-clock limit for one run of bench.exe.
RUN_TIMEOUT_S = 150


def build():
    """Compile the benchmark inside the checkout; return the executable."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    if proc.returncode != 0 or not os.path.exists(exe):
        raise SystemExit("perfbench: build failed")
    return exe


def run_one(exe, workload, seed, seconds, trace):
    """Run one workload in a fresh bench.exe process; return its result."""
    work = os.path.join(HERE, "_work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [
        exe, "run",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work-dir", work,
    ]
    if trace:
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--spans", os.path.join(out, "spans-%s-%d.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["attempted"] < 1:
        raise SystemExit("perfbench: malformed result line from %s" % workload)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    exe = build()
    if args.workload:
        result = run_one(exe, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return
    for w in WORKLOADS:
        result = run_one(exe, w, args.seed, args.seconds, args.trace)
        print("%s: correct=%s attempted=%d failed=%d" % (
            w, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))


if __name__ == "__main__":
    main()
