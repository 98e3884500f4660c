#!/usr/bin/env python3
"""Steadiness report: run each workload N times, one seed per run.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--seconds S]
                                [--trace 0|1] [--first-seed K]

Run from the repository root. For every metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median. An end-to-end metric whose spread exceeds its bound
in BENCHMARK.json is flagged, as is one above a third of its bound (the
steadiness target); setup_s is exempt from the spread rule. The raw
results are appended to perfbench/_out/steady.jsonl. Exits 1 if any run
is incorrect or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    exe = run.build()
    out = os.path.join(run.HERE, "_out")
    os.makedirs(out, exist_ok=True)
    bad = False
    for w in args.workload or run.WORKLOADS:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run.run_one(exe, w, seed, seconds, args.trace)
            with open(os.path.join(out, "steady.jsonl"), "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                    "result": result}) + "\n")
            if not result["correct"]:
                print("%s seed %d: INCORRECT (%d of %d checks failed)" % (
                    w, seed, result["failed"], result["attempted"]))
                bad = True
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("%s (%d runs, seeds %d..%d, %gs each)" % (
            w, args.runs, args.first_seed, args.first_seed + args.runs - 1, seconds))
        print("  %-36s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                                 "spread", "bound"))
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, bad = "OVER BOUND", True
                elif spread > bound / 3:
                    flag = "over bound/3"
            print("  %-36s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
                name + " [" + units[name] + "]", med, q1, q3, spread,
                "" if bound is None else "%g" % bound, flag))
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
