#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload,
print the result as the last line of standard output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later runs only re-check the build.  Every TRUSTDDL_*
variable is removed from the benchmark binary's environment so the
program runs
with its defaults.  Temporary files live in a per-run directory under
the build directory and are removed afterwards.

With --trace 0 the metrics are the end-to-end figures of BENCHMARK.json;
with --trace 1 they are its per-layer figures: the program's registry
counters and the benchmark's timers (both from the binary) plus span
self times computed here from the binary's JSONL trace.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BINARY = "perfbench"
RUN_LIMIT_S = 175.0
BUILD_LIMIT_S = 850.0
PARTIES = 3

# Each workload's headline figures under the names perfbench/README.md
# uses for them: (alias, end-to-end metric, unit).
METRIC_ALIASES = {
    "serve_open": [("serve_p50_ms", "op_p50_ms", "ms"),
                   ("serve_p90_ms", "op_p90_ms", "ms")],
    "serve_burst": [("serve_rps", "ops_per_s", "1/s"),
                    ("serve_mb_per_req", "mb_per_op", "MiB")],
    "train_tcp": [("train_step_ms", "op_p50_ms", "ms"),
                  ("train_mb_per_step", "mb_per_op", "MiB")],
    "robust_train": [("robust_rounds_per_s", "ops_per_s", "1/s"),
                     ("robust_mb_per_round", "mb_per_op", "MiB")],
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(command, limit_s, deadline):
    """Run a build step with its output on stderr; False on failure."""
    timeout = max(1.0, min(limit_s, deadline - time.monotonic()))
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"perfbench: {' '.join(command)}: {error}")
        return False
    return result.returncode == 0


def build(build_dir, deadline):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", PACKAGE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           BUILD_LIMIT_S, deadline):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_checked(["cmake", "--build", build_dir, "-j", jobs],
                       BUILD_LIMIT_S, deadline):
        return None
    binary = os.path.join(build_dir, BINARY)
    return binary if os.path.isfile(binary) else None


def span_self_times(path, begin_us, end_us):
    """Per span name: summed self time (µs) of spans that start inside
    [begin_us, end_us], and of all spans.  Self time is a span's
    duration minus its direct children's, nesting being reconstructed
    per party from the intervals.  Spans without a party id cannot be
    nested, so they contribute their inclusive time."""
    by_party = defaultdict(list)
    with open(path, encoding="utf-8") as trace:
        for line in trace:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a record torn at shutdown
            if record.get("kind") != "span":
                continue
            start = int(record["ts_us"])
            by_party[int(record["party"])].append(
                (start, start + int(record["dur_us"]), record["name"]))
    window = defaultdict(float)
    total = defaultdict(float)

    def add(name, start, self_us):
        total[name] += self_us
        if begin_us <= start <= end_us:
            window[name] += self_us

    for party, spans in by_party.items():
        if not 0 <= party < PARTIES:
            for start, end, name in spans:
                add(name, start, end - start)
            continue
        spans.sort(key=lambda span: (span[0], -span[1]))
        stack = []  # [start, end, name, child time]

        def close(node):
            add(node[2], node[0], max(0, node[1] - node[0] - node[3]))

        for start, end, name in spans:
            while stack and stack[-1][1] <= start:
                close(stack.pop())
            if stack and end <= stack[-1][1]:
                stack[-1][3] += end - start
            stack.append([start, end, name, 0])
        while stack:
            close(stack.pop())
    return window, total


def per_layer(result, wanted):
    values = dict(result.get("layer", {}))
    trace = result.get("trace", {})
    path = trace.get("path", "")
    if path and os.path.isfile(path):
        window, total = span_self_times(path, trace["begin_us"],
                                        trace["end_us"])
        ops = max(trace.get("ops") or 0, 1e-9)
        sessions = max(trace.get("sessions") or 0, 1e-9)
        for name in wanted:
            if name == "span.triple.warm.us":
                # The warm phase runs during set-up: per party, per session.
                values[name] = total.get("triple.warm", 0.0) / (
                    PARTIES * sessions)
            elif name.startswith("span.") and name.endswith(".us"):
                span = name[len("span."):-len(".us")]
                values[name] = window.get(span, 0.0) / (PARTIES * ops)
    # A layer the workload does not exercise reads 0.
    return {name: values.get(name, 0.0) for name in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUILD_LIMIT_S + RUN_LIMIT_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        benchmark = json.load(spec)
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in benchmark[section]}

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir, deadline)
    if binary is None:
        log("perfbench: build failed")
        return 1

    workdir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("TRUSTDDL_")}
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                   stderr=sys.stderr, env=env, cwd=ROOT,
                                   text=True)
        try:
            stdout, _ = process.communicate(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            log(f"perfbench: run exceeded {RUN_LIMIT_S:.0f}s, killed")
            return 1
        if process.returncode != 0:
            log(f"perfbench: benchmark binary exited with {process.returncode}")
            return 1
        lines = [line for line in stdout.splitlines() if line.strip()]
        if not lines:
            log("perfbench: benchmark binary printed no result")
            return 1
        result = json.loads(lines[-1])
        if args.trace:
            values = per_layer(result, list(units))
        else:
            values = {name: result["e2e"][name] for name in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in result.get("errors", []):
        log(f"perfbench: {args.workload}: {error}")
    if not args.trace:
        named = " ".join(f"{alias}={result['e2e'][key]:.4g} {unit}"
                         for alias, key, unit in
                         METRIC_ALIASES.get(args.workload, []))
        print(f"perfbench {args.workload} seed={args.seed}: {named} "
              f"setup_s={result['e2e']['setup_s']:.4g} s (samples "
              f"{' '.join(f'{x:.3g}' for x in result['setup_samples'])}) "
              f"samples={result['samples']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
