#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

    python3 e2ebench/selfcheck.py [--workloads a,b] [--seed N]

Checks, from the root of a checkout:
  1. every metric name in BENCHMARK.json is unique and matches
     [A-Za-z0-9_.-]+ (starting with a letter or digit), every unit is
     well formed;
  2. a --trace 0 run prints exactly the end_to_end metrics and a
     --trace 1 run exactly the per_layer metrics, each with the unit
     BENCHMARK.json gives it;
  3. exact counts repeat between two traced runs of one seed: the
     verdict of every unit, the verdict counts, encode.assertions,
     smt.sat_clauses and serve.replayed_frac.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import re
import sys

from run import run_bench

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    sys.stderr.write("selfcheck: FAIL: %s\n" % msg)
    sys.exit(1)


def run(workload, seed, trace, counts=None):
    code, result, err = run_bench(workload, seed, 1, trace, ["--counts", counts] if counts else [])
    if code != 0 or result is None:
        sys.stderr.write(err)
        fail("%s --trace %d exited %d" % (workload, trace, code))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    return result


def check_names(bench):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        fail("duplicate names %s" % dup)
    for n in names:
        if not NAME.match(n):
            fail("bad name %r" % n)
    for key in ("end_to_end", "per_layer"):
        for m in bench[key]:
            if not UNIT.match(m["unit"]):
                fail("bad unit %r of %s" % (m["unit"], m["name"]))


def check_printed(workload, result, expected):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail("%s prints missing %s, extra %s, wrong units %s" % (workload, missing, extra, wrong))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    check_names(bench)
    print("names and units: ok", flush=True)
    os.makedirs(".e2ebench", exist_ok=True)
    for w in args.workloads.split(","):
        check_printed(w, run(w, args.seed, 0), bench["end_to_end"])
        counts = []
        for i in (1, 2):
            path = os.path.join(".e2ebench", "counts-%s-%d.json" % (w, i))
            check_printed(w, run(w, args.seed, 1, path), bench["per_layer"])
            with open(path) as f:
                counts.append(json.load(f))
        if counts[0] != counts[1]:
            diff = sorted(k for k in set(counts[0]) | set(counts[1])
                          if counts[0].get(k) != counts[1].get(k))
            fail("%s: exact counts differ between two runs of seed %d: %s" % (w, args.seed, diff))
        print("%s: metric names, units and exact counts: ok (%s)"
              % (w, json.dumps(counts[0]["verdict_counts"], sort_keys=True)), flush=True)


if __name__ == "__main__":
    main()
