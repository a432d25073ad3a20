#!/usr/bin/env python3
"""Repeats one workload over several seeds and prints each metric's spread.

    python3 servebench/repeat.py --workload cold_mixed --runs 10
    python3 servebench/repeat.py --workload hot_repeats --runs 5 --trace 1

Seeds run from --first-seed upwards, one run per seed, each through
servebench/run.py with BENCHMARK.json's run length (or --seconds). For
every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the interquartile range as a share of the
median, next to the metric's bound in BENCHMARK.json; the bounds there
were set from this output. Exits nonzero if a run fails or reports an
incorrect answer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: seed %d exit %d" % (seed, proc.returncode))
    steal = [line.rsplit(":", 1)[1].strip() for line in proc.stderr.splitlines()
             if "host steal during the timed phase" in line]
    return json.loads(lines[-1]), (steal[-1] if steal else "?")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    units = {}
    failed_shares = set()  # exact failed/attempted fractions seen
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        result, steal = run_once(args.workload, seed, seconds, args.trace)
        ok = ok and result["correct"]
        failed_shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %-4d correct=%s attempted=%d failed=%d steal=%s  %s" % (
            seed, result["correct"], result["attempted"], result["failed"], steal,
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("\n%-28s %14s %14s %14s %8s %7s %s" % (
        "metric", "median", "q1", "q3", "iqr/med", "bound", "unit"))
    for name in values:
        vals = values[name]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
        print("%-28s %14.6g %14.6g %14.6g %8.4f %7s %s%s" % (
            name, median, q1, q3, spread, "-" if bound is None else bound, units[name], flag))
    print("\nshare of failed operations per run: %s" % sorted(failed_shares))
    if not ok:
        raise SystemExit("some run reported an incorrect answer")


if __name__ == "__main__":
    main()
