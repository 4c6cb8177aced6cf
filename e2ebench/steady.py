#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Runs the benchmark command from BENCHMARK.json several times on one
workload, each time with another seed, and prints for every metric the
median, the quartiles and the spread (Q3 - Q1) / median next to the
metric's bound. A bound rests on measured spread when the spread stays
below a third of it.

    python3 e2ebench/steady.py --workload paper [--runs 10] [--trace 0]
        [--first-seed 1] [--json out.json]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        start = time.monotonic()
        result = run_once(bench["command"], args.workload, seed,
                          bench["run_seconds"], args.trace)
        wall = time.monotonic() - start
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed} ({wall:.1f} s): " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr, flush=True)

    summary = {}
    print(f"{args.workload} ({args.runs} runs, trace {args.trace})")
    print(f"{'metric':32} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  steady")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        steady = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        summary[name] = {"unit": units[name], "median": med, "q1": q1,
                         "q3": q3, "spread": spread, "bound": bound,
                         "values": vals}
        print(f"{name:32} {units[name]:>6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}  {steady}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "metrics": summary}, f, indent=1)


if __name__ == "__main__":
    main()
