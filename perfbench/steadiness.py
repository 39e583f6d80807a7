#!/usr/bin/env python3
"""Measures how steady each end-to-end metric of the benchmark is.

    python3 perfbench/steadiness.py --runs 10 --seed-base 1

Runs every workload (or those named with --workloads) --runs times, each
with another seed, through perfbench/run.py with BENCHMARK.json's
run_seconds, and prints for every end-to-end metric the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median. A spread is marked "ok" when it stays below a third of
the metric's bound in BENCHMARK.json. The share of failed ops must be the
same in every run. --json writes the raw results. Exit status is 1 when a
spread (other than setup_s's) reaches its bound or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     p.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--json", help="write the raw results here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    raw, bad = {}, False
    for w in args.workloads:
        runs = [run_once(w, args.seed_base + i, args.seconds)
                for i in range(args.runs)]
        raw[w] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok_runs = all(r["correct"] for r in runs)
        print("\n%s: %d runs, seeds %d..%d, failed share %s, correct %s" %
              (w, len(runs), args.seed_base, args.seed_base + len(runs) - 1,
               sorted(shares), ok_runs))
        bad |= len(shares) != 1 or not ok_runs
        print("| metric | unit | median | q1 | q3 | spread | bound | |")
        print("|---|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread < bound / 3 else (
                "wide" if spread < bound else "OVER")
            if name != "setup_s" and spread >= bound:
                bad = True
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %s |" %
                  (name, units[name], med, q1, q3, spread, bound, verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
