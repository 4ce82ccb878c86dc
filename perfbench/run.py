#!/usr/bin/env python3
"""Run one workload of the stkde end-to-end benchmark and print its result.

    python3 perfbench/run.py --workload batch-pollen --seed 1 --seconds 40
    python3 perfbench/run.py --workload live-dengue --seed 3 --seconds 40 --trace 1

Builds the library and the benchmark binary from source into .bench_build/perfbench
(first run only; later runs rebuild what changed), then:

  --trace 0  three fresh processes each time a cold set-up and read peak
             memory at a fixed operation count (medians: setup_s,
             peak_rss_mb), then one process runs the timed closed loop and
             reports the workload's latencies;
  --trace 1  one traced process reports the per-layer metrics.

Every output the program produces in the run is checked; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Nothing is written anywhere else unless --out is given.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("batch-pollen", "batch-flu", "live-dengue")
PROBES = 3
ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_run"
BUILD_TIMEOUT_S = 840
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the stkde benchmark.",
        allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=40,
                   help="length of the timed loop (default 40)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run printing the per-layer metrics")
    p.add_argument("--out", type=Path,
                   help="also write the full result (report lines included) here")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be between 1 and 120")
    if args.out is not None and args.out.exists() and args.out.is_dir():
        p.error(f"--out {args.out} is a directory")
    return args


def run_quiet(cmd, timeout):
    """Run a build step; its output goes to stderr, never to stdout."""
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}") from e
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        raise BenchError(f"failed ({r.returncode}): {' '.join(map(str, cmd))}")


def build():
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        home = [l for l in cache.read_text(errors="replace").splitlines()
                if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or Path(home[0].split("=", 1)[1]) != ROOT / "perfbench":
            shutil.rmtree(BUILD)  # a build tree of another checkout
    if not (BUILD / "CMakeCache.txt").exists():
        log("configuring (first run builds the library from source)")
        cmd = ["cmake", "-S", "perfbench", "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench_run",
               "-j", jobs], BUILD_TIMEOUT_S)
    if not BINARY.exists():
        raise BenchError(f"build produced no {BINARY}")


def run_phase(args, phase, timeout):
    """Run perfbench_run; returns (report lines, parsed result)."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--phase", phase, "--trace", str(args.trace)]
    if phase == "run":
        cmd += ["--seconds", str(args.seconds)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{phase} of {args.workload} timed out") from e
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError(f"{phase} of {args.workload} exited {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"{phase} of {args.workload} printed no result") from e
    return lines[:-1], result


def main(argv):
    args = parse_args(argv)
    build()

    report = []
    runs = []
    if not args.trace:
        for _ in range(PROBES):
            runs.append(run_phase(args, "probe", PROBE_TIMEOUT_S)[1])
    lines, res = run_phase(args, "run", args.seconds + 150)
    runs.append(res)
    report += lines

    metrics = dict(res["metrics"])
    if not args.trace:
        probes = runs[:-1]
        for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
            values = [p["metrics"][name]["value"] for p in probes]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            report.append(f"{name}: median {statistics.median(values):.4g} {unit} "
                          f"over {len(values)} fresh processes "
                          f"({', '.join(f'{v:.4g}' for v in values)})")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and attempted > 0 and all(r["correct"] for r in runs)
    report.append(f"fail_ratio of all {len(runs)} processes "
                  f"{failed / attempted if attempted else 1.0:.4g} "
                  f"({failed} of {attempted} attempted)")
    for line in report:
        print(line)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out is not None:
        full = dict(result, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, report=report)
        args.out.write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # A terminated benchmark raises SystemExit in the main thread, and
    # subprocess.run kills and reaps the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(str(e))
        sys.exit(1)
