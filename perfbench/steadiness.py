#!/usr/bin/env python3
"""Measure how steady the benchmark's gated metrics are.

    python3 perfbench/steadiness.py --workloads batch-pollen live-dengue \
        --seeds 1-10 [--seconds 20] [--out runs.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric of BENCHMARK.json its median over the
runs and its spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound. Writes the raw results only when --out is given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = [(m["name"], m["bound"]) for m in bench["end_to_end"]]
    results = {}
    for w in args.workloads:
        for seed in args.seeds:
            r = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(r.stdout.splitlines()[-1])
            results.setdefault(w, []).append({"seed": seed, **res})
            vals = " ".join(f"{n}={res['metrics'][n]['value']:.4g}" for n, _ in metrics)
            print(f"{w} seed {seed}: correct={res['correct']} {vals}", flush=True)
    for w, runs in results.items():
        print(f"\n{w}: {len(runs)} runs")
        for name, bound in metrics:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else float("nan")
            print(f"  {name:18s} median {statistics.median(values):10.4g}  "
                  f"IQR/median {s:.3f}  (bound {bound}, a third {bound / 3:.3f})")
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")


if __name__ == "__main__":
    main()
