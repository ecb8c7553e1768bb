#!/usr/bin/env python3
"""StarShare benchmark: builds the engine from this checkout and runs one workload.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 20 --trace 0

Workloads: paper_batch, cube_maintain, server_open (perfbench/README.md says
why each exists and what it stresses). --trace 0 measures the end-to-end
metrics with tracing off; --trace 1 runs the workload again with the
benchmark's spans on and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 0 only when every output check passed.

Steadiness mode runs every workload on several seeds and prints, per metric,
the median and the quartile spread as a share of the median:

    python3 perfbench/run.py --steadiness 5 [--workloads server_open] [--seconds 20]

The first run in a checkout configures and builds perfbench/ (which compiles
../src) into .bench_build/perfbench. Counts that must repeat exactly for a
seed (executed plan shape, page counts) are kept in
.bench_build/perfbench/fingerprints/, keyed by the seed and a hash of the
source tree, and checked on every later run of the same seed and sources.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
FINGERPRINT_DIR = BUILD_DIR / "fingerprints"
WORKLOADS = ("paper_batch", "cube_maintain", "server_open")
# Workloads whose page counts and plan shapes repeat exactly for a seed.
DETERMINISTIC = ("paper_batch", "cube_maintain")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: engine sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"run.py: build step failed: {error}")
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(step)}")
            return False
    return RUNNER.is_file()


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns the runner's JSON report or None."""
    command = [str(RUNNER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run.py: {workload} exited with {done.returncode} and no report")
        return None


def source_hash():
    """Hash of every file the runner is built from: src/, perfbench/ and
    tests/test_util.h."""
    files = [ROOT / "tests" / "test_util.h"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_fingerprints(report):
    """Compares the run's exact counts with earlier runs of the same seed on
    the same sources; changed sources start a new record."""
    if report["workload"] not in DETERMINISTIC:
        return []
    path = FINGERPRINT_DIR / (f"{report['workload']}-{report['seed']}-"
                              f"{source_hash()}.json")
    known = json.loads(path.read_text()) if path.is_file() else {}
    problems = [f"{key}: {known[key]} in an earlier run, {value} now"
                for key, value in report["fingerprints"].items()
                if key in known and known[key] != value]
    FINGERPRINT_DIR.mkdir(parents=True, exist_ok=True)
    merged = dict(report["fingerprints"])
    merged.update(known)
    path.write_text(json.dumps(merged, indent=1, sort_keys=True))
    return problems


def print_report(report, problems):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}")
    for section in ("metrics", "info"):
        for name, entry in report[section].items():
            print(f"  {name:40s} {entry['value']!s:>24} {entry['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'error_frac':40s} {failed / max(1, attempted)!s:>24} ratio"
          f"  ({failed} of {attempted} requests)")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")


def run_once(args):
    if not build():
        return 2
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if report is None:
        return 1
    problems = report["problems"] + check_fingerprints(report)
    print_report(report, problems)
    correct = report["correct"] and not problems
    metrics = {name: entry for name, entry in report["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def steadiness(args):
    """Runs each workload on args.steadiness seeds and prints spreads."""
    if not build():
        return 2
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        for metric in json.loads(spec.read_text()).get("end_to_end", []):
            bounds[metric["name"]] = metric["bound"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    status = 0
    for workload in workloads:
        values = {}
        for seed in range(1, args.steadiness + 1):
            report = run_workload(workload, seed, args.seconds, args.trace)
            if report is None or not report["correct"]:
                log(f"run.py: {workload} seed {seed} failed")
                status = 1
                continue
            for name, entry in report["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={e['value']:.4g}" for n, e in report["metrics"].items()))
        print(f"{workload}: seeds 1-{args.steadiness}, {args.seconds} s each")
        for name, series in values.items():
            median = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound}  " + (
                    "ok" if spread < bound / 3 else "WIDE")
            print(f"  {name:40s} median {median:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}  {verdict}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run every workload on RUNS seeds and print "
                             "each metric's median and quartile spread")
    parser.add_argument("--workloads", help="comma-separated subset for "
                                            "--steadiness")
    args = parser.parse_args()
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
