#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 e2ebench/spread.py [--workloads a,b] [--seeds 1,2,...] [--seconds 20]
                               [--trace 0] [--json FILE]

Runs the benchmark once per (workload, seed), then prints for each
metric its median and its spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.
With --json the raw values and the summary are written to FILE.
"""

import argparse
import json
import os
import statistics
import sys

from run import run_bench

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    code, result, err = run_bench(workload, seed, seconds, trace)
    if code != 0 or result is None:
        sys.stderr.write(err)
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, code))
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = {}
    for w in args.workloads.split(","):
        results = [run(w, s, args.seconds, args.trace) for s in seeds]
        metrics = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med, sp = spread(vals) if len(vals) >= 2 else (vals[0], 0.0)
            metrics[name] = {"values": vals, "median": med, "spread": sp,
                             "unit": results[0]["metrics"][name]["unit"]}
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                flag = "  ok" if sp < bound / 3 else ("  WIDE (< bound)" if sp <= bound else "  OVER BOUND")
            print("%-13s %-34s median %14.6g %-8s spread %6.3f%s"
                  % (w, name, med, metrics[name]["unit"], sp, flag), flush=True)
        out[w] = {"seeds": seeds, "correct": [r["correct"] for r in results],
                  "failed": [r["failed"] for r in results], "metrics": metrics}
        if args.json:
            with open(args.json, "w") as f:
                json.dump(out, f, indent=1)


if __name__ == "__main__":
    main()
