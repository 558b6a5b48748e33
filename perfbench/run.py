#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <paper-rpc|lossy-bulk|fleet-16k|all>
                           --seed <n> --seconds <s> --trace <0|1> [--smoke]

The library and the benchmark program are built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Result and span files land in
<build dir>/results. Exit status: 0 when every output check passed, 1 when
one failed or the build failed, 2 on bad usage, 3 when the memory pre-flight
skipped the workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-rpc", "lossy-bulk", "fleet-16k")
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Build and run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-sized cells (self-test only)")
    # Unknown flags are errors (exit 2), never positional outputs.
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found (expected src/ next to perfbench/)")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(out_dir, "perfbench")


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not itself a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def run_one(binary, workload, args, results_dir, commit):
    """Runs one workload; returns (exit status, stdout lines, result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", results_dir, "--commit", commit]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(workload + ": timed out after %d s" % RUN_TIMEOUT_S)
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log(workload + ": last line is not a JSON result")
    return proc.returncode, lines, result


def main(argv):
    args = parse_args(argv)
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    commit = git_commit()

    if args.workload != "all":
        code, lines, result = run_one(binary, args.workload, args, results_dir, commit)
        print("\n".join(lines), flush=True)
        return code if result is not None else max(code, 1)

    # Each workload in its own process; the last line merges their results
    # with metric names prefixed by the workload.
    results = {}
    status = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, workload, args, results_dir, commit)
        print("\n".join(lines[:-1] if result is not None else lines), flush=True)
        if result is None:
            return max(code, 1)
        results[workload] = result
        status = max(status, code)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w + "." + k: v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
