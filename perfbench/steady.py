#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Run every workload N times, each with another seed, and print the median,
quartiles and spread (q3 - q1 over the median) of each end-to-end metric
next to its bound in BENCHMARK.json:

    python3 perfbench/steady.py --runs 10 --out .bench_build/set-a.json
    python3 perfbench/steady.py --runs 10 --seed0 1000 --out .bench_build/set-b.json

Compare two such sets: a metric whose second median is worse than the first
by more than its bound, or a workload whose share of failed operations
differs, is reported and makes the exit code 1:

    python3 perfbench/steady.py --compare .bench_build/set-a.json .bench_build/set-b.json
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_sets(args, spec):
    results = {}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit(f"steady: {name} seed {seed} exited "
                         f"{out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"steady: {name} seed {seed} failed its checks")
            runs.append(res)
            print(f"  {name} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
        results[name] = runs
    return results


def report(results, spec):
    ok = True
    for name, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{name}: {len(runs)} runs, {failed}/{attempted} failed")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, spread = summarise(values)
            # A spread over the bound fails; one over a third of it leaves
            # little margin for a noisier host.
            note = ""
            if spread > m["bound"]:
                note, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3:
                note = "  over a third of the bound"
            print(f"  {m['name']:<18} median {med:<12.5g} q1 {q1:<12.5g} "
                  f"q3 {q3:<12.5g} spread {spread:6.3f} bound {m['bound']:.2f}"
                  f"{note}")
    return ok


def compare(a, b, spec):
    ok = True
    for name in a:
        if name not in b:
            continue
        share = [sum(r["failed"] for r in s[name]) /
                 sum(r["attempted"] for r in s[name]) for s in (a, b)]
        if share[0] != share[1]:
            ok = False
            print(f"{name}: failed share {share[0]} != {share[1]}")
        for m in spec["end_to_end"]:
            meds = [statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in s[name]) for s in (a, b)]
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            flag = worse > m["bound"]
            ok = ok and not flag
            print(f"{name:<20} {m['name']:<18} {meds[0]:<12.5g} "
                  f"{meds[1]:<12.5g} worse by {worse:+.3f} "
                  f"(bound {m['bound']:.2f}){'  REGRESSED' if flag else ''}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", default="", help="write the runs as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(*sets, spec) else 1)
    results = run_sets(args, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)
    sys.exit(0 if report(results, spec) else 1)


if __name__ == "__main__":
    main()
