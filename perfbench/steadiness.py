#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs every workload (or the ones named) once per seed, then prints, for
every end-to-end metric the benchmark prints, the median and quartiles of
the per-run values and their spread: (Q3 - Q1) / median, with quartiles as
Python's statistics.quantiles(values, n=4) gives them. A gated metric is
flagged when its spread exceeds its bound, and warned when it exceeds a
third of it. With --sets 2 the seeds are run twice and the second median
is compared with the first. Runs last BENCHMARK.json's run_seconds. Also
reported: each run's determinism verdict, failed ops, and for the UDP
round trip each run's fast-mode batch share (its minimum and maximum over
runs) and the per-batch p50 modes.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [workload ...]

Run from the repository root. The benchmark builds on first use.
"""

import argparse
import collections
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINE = re.compile(r"^  ([a-z][a-z0-9_]*)\s+(-?[0-9.]+(?:e-?[0-9]+)?)\s+(\S+)")
MODES = re.compile(r"p50 per batch \(us\): (.*)$")
FAST_SHARE = re.compile(r"fast-mode batch share: ([0-9.]+)")
SEED0 = 1000
# Wall-clock metrics the benchmark prints but does not gate; flagged
# against this share when they spread wider.
UNGATED_WALL_BOUND = 0.25
UNGATED_WALL = ("wall_op_p50_us", "wall_op_p99_us")


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, cwd=ROOT, capture_output=True,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed, modes, share, verdict = {}, [], None, "?"
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = float(m.group(2))
        m = MODES.search(line)
        if m:
            modes = m.group(1).split()
        m = FAST_SHARE.search(line)
        if m:
            share = float(m.group(1))
        if line.startswith("check: determinism"):
            verdict = line.split()[2]
    return result, printed, modes, verdict, share


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    a = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in workloads:
        sets = []
        for s in range(a.sets):
            runs = []
            for i in range(a.runs):
                seed = SEED0 + i
                r = run_once(bench["command"], w, seed, seconds)
                runs.append(r)
                res = r[0]
                print(f"# {w} set {s + 1} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} determinism={r[3]} "
                      + (f"fast_share={r[4]:.3f} " if r[4] is not None else "")
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      flush=True)
            sets.append(runs)
        print(f"\n== {w}: {a.runs} seeds x {a.sets} set(s), {seconds} s per run")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound  verdict")
        first = sets[0]
        names = list(first[0][1].keys())
        for name in names:
            vals = [r[1][name] for r in first if name in r[1]]
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if sp > bound:
                    verdict = "FLAG: spread exceeds bound"
                elif sp > bound / 3:
                    verdict = "warn: spread above bound/3"
                else:
                    verdict = "ok"
                worst = max(worst, sp / bound)
                for k, later in enumerate(sets[1:], start=2):
                    lv = [r[1][name] for r in later if name in r[1]]
                    lmed = statistics.median(lv)
                    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                    worse = (lmed - med) / med if better == "lower" else (med - lmed) / med
                    verdict += f"; set {k} median {lmed:.6g} ({'FLAG' if worse > bound else 'ok'}: {100 * worse:+.1f}% worse)"
            elif name in UNGATED_WALL and sp > UNGATED_WALL_BOUND:
                verdict = f"FLAG: wall spread above {UNGATED_WALL_BOUND}"
            b = f"{bound:.2f}" if bound is not None else "  -  "
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>8.4f}  {b}  {verdict}")
        runs = [r for st in sets for r in st]
        verdicts = collections.Counter(r[3] for r in runs)
        print(f"  determinism verdicts: {dict(verdicts)}; failed ops: {sum(r[0]['failed'] for r in runs)}"
              f"; all correct: {all(r[0]['correct'] for r in runs)}")
        shares = [r[4] for r in runs if r[4] is not None]
        if shares:
            print(f"  fast-mode batch share per run: min {min(shares):.3f} max {max(shares):.3f}; "
                  f"runs without a fast mode: {sum(s == 0 for s in shares)} of {len(shares)}")
        modes = collections.Counter()
        for r in runs:
            for m in r[2]:
                rng, count = m.split("x")
                modes[rng] += int(count)
        if modes:
            total = sum(modes.values())
            print("  round-trip p50 modes over all batches (us bin: share): "
                  + " ".join(f"{k}: {v / total:.1%}" for k, v in sorted(modes.items(), key=lambda kv: float(kv[0][1:].split(",")[0]))))
    print(f"\nworst gated spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
