#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke.py [--seconds 2]

Runs every workload the benchmark binary knows, at reduced size (a short
timed window), untraced and traced, through perfbench/run.py, and checks
that each run exits 0 and that its last line carries exactly the
result keys, a passing correctness gate, and every end-to-end or
per-layer metric with its unit.  Then checks that the benchmark fails,
without printing a result, in a directory holding only BENCHMARK.json
and the benchmark's own files.  Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# BENCHMARK.json gates a subset of these; see README.md.
WORKLOADS = ("serve_open", "serve_burst", "train_tcp", "robust_train")


def run(args, cwd, timeout=900):
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout, check=False)


def check_result(workload, trace, process, benchmark):
    problems = []
    if process.returncode != 0:
        return [f"exit code {process.returncode}: {process.stderr[-400:]}"]
    lines = [line for line in process.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    section = benchmark["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')} != {unit}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not > 0")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        benchmark = json.load(spec)
    command = benchmark["command"]

    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            process = run(command + ["--workload", workload, "--seed", "1",
                                     "--seconds", str(args.seconds),
                                     "--trace", str(trace)], ROOT)
            problems = check_result(workload, trace, process, benchmark)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}", flush=True)
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)

    # Without the program's sources the benchmark must fail cleanly.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in benchmark["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        process = subprocess.run(
            command + ["--workload", "serve_open", "--seed", "1", "--seconds",
                       "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env,
            check=False)
        bare_ok = process.returncode != 0 and '"metrics"' not in process.stdout
        print(f"{'ok' if bare_ok else 'FAIL'} sources absent -> exit "
              f"{process.returncode}, no result")
        failures += not bare_ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke: all checks passed" if failures == 0
          else f"smoke: {failures} check(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
