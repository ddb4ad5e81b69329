#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs the benchmark command from BENCHMARK.json several times on one
workload, each time with another seed, and prints for every metric the
median, the quartiles and the spread (interquartile range as a share of
the median) next to the metric's bound from BENCHMARK.json. It also
prints the op-mix shares of every run, so a median sitting between two
modes of the mix is visible.

Run it from the repository root:

    python3 perfbench/steady.py --workload fleet_flows --runs 10
    python3 perfbench/steady.py --workload testbed_day --runs 5 --trace 1
    python3 perfbench/steady.py --workload fleet_churn --save perfbench/out/a.json
    python3 perfbench/steady.py --workload fleet_churn --seed-base 21 \
        --compare perfbench/out/a.json

Exits non-zero when a run fails (a failed output check or a percentile
with fewer than ten samples beyond it makes the benchmark itself exit
non-zero), when a spread exceeds its bound, or when --compare finds a
median worse than the saved one by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return detail, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write the medians to this JSON file")
    ap.add_argument("--compare", help="JSON file from an earlier --save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}

    values = {}
    for i in range(args.runs):
        seed = args.seed_base + i
        detail, result = run_once(bench["command"], args.workload, seed, seconds, args.trace)
        mix = json.dumps(detail.get("mix", {}))
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} mix {mix}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        units = {name: m["unit"] for name, m in result["metrics"].items()}

    ok = True
    medians = {}
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        medians[name] = med
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  SPREAD ABOVE BOUND"
            ok = False
        elif bound is not None and spread > bound / 3:
            flag = "  (above a third of the bound)"
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{bound if bound is not None else '-':>6} {units[name]}{flag}")
        print(f"{'':34} runs: " + " ".join(f"{v:.4g}" for v in vals))

    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
        print(f"\nagainst {args.compare}:")
        lower_better = {m["name"]: m.get("better") == "lower" for m in bench[kind]}
        for name, med in medians.items():
            old = before.get(name)
            bound = bounds.get(name)
            if old is None or not old:
                continue
            worse = (med - old) / old if lower_better.get(name, True) else (old - med) / old
            flag = "  WORSE THAN BOUND" if bound is not None and worse > bound else ""
            ok &= not flag
            print(f"{name:34} {old:14.6g} -> {med:14.6g}  worse by {worse:+.3f}{flag}")

    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
