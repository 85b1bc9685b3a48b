#!/usr/bin/env python3
"""Repeat the benchmark and report each metric's median and spread.

Runs `bash benchmark/run.sh --workload W --seed S --seconds N --trace 0`
once per seed for every workload (from the repository root), then prints,
per workload and end-to-end metric, the median, the quartiles and the
interquartile range as a share of the median, next to the metric's bound
from BENCHMARK.json. Use --same-seed to repeat one seed instead of
counting seeds up, and --json FILE to keep the values with their
medians and quartiles.

    python3 benchmark/spread.py --runs 10
    python3 benchmark/spread.py --runs 5 --same-seed --workload web-tcp
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {res}")
    return {name: m["value"] for name, m in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="write the raw values here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    raw, summary = {}, {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + i
            runs.append(run_once(w, seed, bench["run_seconds"]))
            print(f"{w} run {i + 1}/{args.runs} done", file=sys.stderr)
        raw[w] = runs
        summary[w] = {}
        print(f"{w}:")
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:14s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} bound {bound}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "same_seed": args.same_seed,
                       "summary": summary, "runs": raw}, f, indent=1)


if __name__ == "__main__":
    main()
