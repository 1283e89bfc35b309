#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarises each metric per workload.

    python3 perfbench/repeat.py [--workloads serve-warm,trace-export]
        [--seeds 1,2,3,4,5] [--seconds N] [--trace 0|1] [--sets N]

Run from the repository root. The command, workloads, run length and
bounds come from BENCHMARK.json. For every metric, and for the
host.probe_ms diagnostic, it prints the median, quartiles, min and max
over the runs, and the spread: the distance between the quartiles
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound. With --sets N it runs the same seeds N times over and
also prints each set's median and its shift from the first set's, in the
metric's worse direction, against the bound. A run that exits nonzero or
reports incorrect output stops the script.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_set(bench, args, workload):
    values = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", seed,
            "--seconds", str(args.seconds), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # The host-speed diagnostic: a fixed CPU loop timed at the start
        # and end of the run. It tells host drift from a program change.
        probe = re.search(r"host\.probe_ms start ([\d.]+) end ([\d.]+)", run.stdout)
        if probe and "host.probe_ms" not in result["metrics"]:
            values.setdefault("host.probe_ms", []).append(
                (float(probe.group(1)) + float(probe.group(2))) / 2)
        print(f"{workload} seed {seed}: done", file=sys.stderr)
    return values


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    for workload in args.workloads.split(","):
        sets = [run_set(bench, args, workload) for _ in range(args.sets)]
        for k, values in enumerate(sets, 1):
            print(f"\n{workload} set {k}: {len(args.seeds.split(','))} runs")
            print(f"{'metric':<28}{'median':>16}{'q1':>16}{'q3':>16}{'min':>16}{'max':>16}"
                  f"{'spread':>9}{'bound':>7}")
            for name, v in values.items():
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                bound = metrics.get(name, {}).get("bound")
                flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
                print(f"{name:<28}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{min(v):>16.6g}"
                      f"{max(v):>16.6g}{spread:>9.4f}{'' if bound is None else bound:>7}{flag}")
        if args.sets > 1:
            print(f"\n{workload}: set medians and worsening from set 1 (bound)")
            for name in sets[0]:
                meds = [statistics.median(s[name]) for s in sets]
                sign = 1 if metrics.get(name, {}).get("better") == "lower" else -1
                shifts = [sign * (m - meds[0]) / meds[0] if meds[0] else float("nan")
                          for m in meds[1:]]
                bound = metrics.get(name, {}).get("bound")
                print(f"{name:<28}" + "".join(f"{m:>16.6g}" for m in meds)
                      + "".join(f"{s:>+9.4f}" for s in shifts)
                      + f"  ({'' if bound is None else bound})")


if __name__ == "__main__":
    main()
