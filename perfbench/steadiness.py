#!/usr/bin/env python3
"""Steadiness runs for the cb end-to-end benchmark.

Runs every workload of BENCHMARK.json once per seed for run_seconds, the
workloads taking turns seed by seed, in two sets of ten seeds (301-310, then
311-320) five minutes apart. Reports per set each end-to-end metric's median,
quartiles and spread (interquartile distance over the median), and how far
the second set's median moved from the first's (drift).

    python3 perfbench/steadiness.py [--json FILE]

Run it from the checkout root; --json keeps every run's result, rewritten
after each run so a cut-short series keeps its data. The verdict is "steady"
when no run failed a job or a check, every spread is within its metric's
bound and every drift too. setup_s is the exception for spread: each run
times one cold set-up, so its within-set spread is shown but not held to the
bound; its drift is.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = 10
FIRST_SEED = 301
GAP_S = 300


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}, no result")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--json")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = []  # (set, workload, seed, result)
    for s in range(SETS):
        if s:
            print(f"# waiting {GAP_S} s before set {s + 1}", flush=True)
            time.sleep(GAP_S)
        # Workloads take turns seed by seed, so a slow spell of the machine
        # falls on all of them alike rather than on whichever ran then.
        for i in range(SEEDS):
            seed = FIRST_SEED + s * SEEDS + i
            for w in workloads:
                r = run_once(w, seed, seconds)
                runs.append((s, w, seed, r))
                ok = "ok" if r["correct"] else "INCORRECT"
                print(f"set {s + 1} {w} seed {seed}: {ok} attempted {r['attempted']} "
                      f"failed {r['failed']} wall {r['wall_s']:.1f} s", flush=True)
                if args.json:
                    with open(args.json, "w") as f:
                        json.dump([{"set": s, "workload": w, "seed": seed, "result": r}
                                   for s, w, seed, r in runs], f, indent=1)

    verdict = True
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>7}{'drift':>8}")
        for s, ww, seed, r in runs:
            if ww == w and (not r["correct"] or r["failed"]):
                print(f"seed {seed}: correct {r['correct']}, {r['failed']} failed job(s)")
                verdict = False
        for name, bound in bounds.items():
            first = None
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for ss, ww, _, r in runs
                        if ss == s and ww == w and name in r["metrics"]]
                if len(vals) < 2:
                    print(f"{name:<14}{s + 1:>4}  too few results")
                    verdict = False
                    continue
                med, q1, q3, sp = spread(vals)
                first = med if first is None else first
                drift = (med - first) / first
                flag = ""
                if sp > bound:
                    flag = "  spread>bound (not held)" if name == "setup_s" else "  SPREAD>BOUND"
                    verdict &= name == "setup_s"
                elif sp > bound / 3:
                    flag = "  spread>bound/3"
                if abs(drift) > bound:
                    flag += "  DRIFT>BOUND"
                    verdict = False
                print(f"{name:<14}{s + 1:>4}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{sp:>9.3f}"
                      f"{bound:>7.2f}{drift:>+8.3f}{flag}")
    print("\nsteady" if verdict else "\nNOT steady")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
