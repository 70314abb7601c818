#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the root of the repository):

    python3 perfbench/spread.py [--runs N] [--seconds S] [--trace 0|1] [workload ...]

Runs each workload N times (default 10), each with another seed, and
prints per metric the median, and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, beside the metric's bound from BENCHMARK.json, and each run's
values with the share of CPU time the host stole from this machine
during the run (from /proc/stat, where the kernel reports it). Exits
non-zero when a run fails or a spread (other than setup_s's) exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_ticks():
    """(steal, total) CPU ticks of the machine, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {}
        steals = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            before = cpu_ticks()
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            after = cpu_ticks()
            if before and after and after[1] > before[1]:
                steals.append((after[0] - before[0]) / (after[1] - before[1]))
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if run.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                ok = False
                continue
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"== {name} ({args.runs} runs)")
        if steals:
            print("  stolen CPU share per run: " + " ".join(f"{x:.3f}" for x in steals))
        for metric, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {metric:32s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
            print("      " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
