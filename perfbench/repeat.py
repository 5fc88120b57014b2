#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload explore --seeds 1-10 --trace 0

For every metric prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and their spread (q3 - q1) / median,
next to a third of the metric's bound from BENCHMARK.json, the steadiness
target. Each run's result line is appended to --log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--log")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, units, bad = {}, {}, 0
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        line = run.stdout.strip().splitlines()[-1]
        res = json.loads(line)
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **res}) + "\n")
        bad += not res["correct"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'target':>8s}")
    for name in sorted(values):
        v = values[name]
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("nan")
        target = f"{bounds[name] / 3:.3f}" if name in bounds else ""
        print(f"{name:40s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {target:>8s}  {units[name]}")
    if bad:
        sys.exit(f"{bad} run(s) reported correct=false")


if __name__ == "__main__":
    main()
