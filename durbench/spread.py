#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on one workload and prints, for every
metric, the median of the runs and the distance between the first and
third quartile as a share of that median (statistics.quantiles, n=4) --
the spread a metric's bound in BENCHMARK.json has to cover.

    python3 durbench/spread.py --workload firehose --seeds 1-5 [--seconds 10]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(a.seeds):
        out = subprocess.run(
            cmd + ["--workload", a.workload, "--seed", str(seed),
                   "--seconds", a.seconds, "--trace", a.trace],
            capture_output=True, text=True, check=False)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            sys.exit(f"seed {seed}: no result (exit {out.returncode})\n{out.stderr}")
        if not res["correct"] or out.returncode != 0:
            sys.exit(f"seed {seed}: incorrect run\n{out.stdout}")
        row = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    print(f"{'metric':<28} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(k)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{k:<28} {med:>12.5g} {spread:>10.4f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
