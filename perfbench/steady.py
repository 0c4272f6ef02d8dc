#!/usr/bin/env python3
"""Steadiness of the end-to-end TBMD benchmark.

    python3 perfbench/steady.py [--runs 10] [--workload W ...]

Runs every workload of BENCHMARK.json (or the ones named) --runs times at
its run_seconds, untraced, with seeds 1..runs, through perfbench/run.py,
and prints for every end-to-end metric the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound, plus the attempted and failed operation
counts.  With --runs 1 it is the one command that runs every workload
once.  The bounds in BENCHMARK.json are set from this command's output.

Each run's stderr (build output and the [ok]/[FAIL] check lines) is kept
in <build dir>/work/logs/<workload>-<seed>.log, and failed checks are
echoed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
from run import build_dir  # noqa: E402


def run_once(workload, seed, seconds, log_dir):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    with open(os.path.join(log_dir, f"{workload}-{seed}.log"), "w") as f:
        f.write(proc.stderr)
    for line in proc.stderr.splitlines():
        if "[FAIL]" in line:
            print(f"{workload} seed {seed}: {line}", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    args = p.parse_args()
    log_dir = os.path.join(build_dir(), "work", "logs")
    os.makedirs(log_dir, exist_ok=True)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:  # interleaved, so slow phases hit every workload
            r = run_once(w, seed, bench["run_seconds"], log_dir)
            results[w].append(r)
            print(f"run {seed}/{args.runs} {w}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr)

    print(f"{'workload':20} {'metric':26} {'unit':>13} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:20} {name:26} {unit:>13} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {bounds[name]:>6}")
        attempted = [r["attempted"] for r in runs]
        failed = [r["failed"] for r in runs]
        correct = all(r["correct"] for r in runs)
        print(f"{w:20} correct={correct} attempted={attempted} "
              f"failed={failed}")


if __name__ == "__main__":
    main()
