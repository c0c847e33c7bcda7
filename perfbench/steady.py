#!/usr/bin/env python3
"""Steadiness self-check for the benchmark in BENCHMARK.json.

Runs every workload (or those named with --workloads) --runs times per
set, each run with its own seed, for --sets sets of runs. For each
workload and end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, and it checks that

  * every spread stays within the metric's bound,
  * each later set's median is no worse than the first set's by more
    than the bound (setup_s included),
  * the share of failed operations is the same in every set.

Run it from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2

It exits 1 when a check fails. The raw results go to
.bench_build/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace=0):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct is false")
    res["wall_s"] = wall
    return res


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs to compare")
    ap.add_argument("--workloads", default="", help="comma-separated subset of workloads")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first run; later runs count up")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    raw = {}
    ok = True
    seed = args.first_seed
    for s in range(args.sets):
        for w in names:
            for _ in range(args.runs):
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                raw.setdefault(w, []).append({"set": s, "seed": seed, **res})
                print(f"set {s} {w} seed {seed}: {res['wall_s']:.1f}s wall, "
                      f"{res['attempted']} attempted, {res['failed']} failed", flush=True)
                seed += 1

    print()
    print(f"{'workload':14} {'metric':18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in names:
        runs = raw[w]
        first_med = {}
        shares = set()
        for s in range(args.sets):
            rs = [r for r in runs if r["set"] == s]
            att = sum(r["attempted"] for r in rs)
            shares.add(round(sum(r["failed"] for r in rs) / att, 12))
            for name, m in bounds.items():
                vals = [r["metrics"][name]["value"] for r in rs]
                med, q1, q3, spread = summarize(vals)
                verdict = []
                if spread > m["bound"]:
                    verdict.append("SPREAD>BOUND")
                    ok = False
                elif spread > m["bound"] / 3:
                    verdict.append("spread>bound/3")
                if s == 0:
                    first_med[name] = med
                else:
                    base = first_med[name]
                    worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                    if worse > m["bound"]:
                        verdict.append(f"MEDIAN-WORSE-{worse:.3f}")
                        ok = False
                print(f"{w:14} {name:18} {s:>3} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {m['bound']:6.2f}  {' '.join(verdict) or 'ok'}")
        if len(shares) > 1:
            print(f"{w}: failed-operation share differs between sets: {sorted(shares)}")
            ok = False

    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
