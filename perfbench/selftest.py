#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark.

Runs every workload with --smoke in both trace modes and checks that:
  * the last stdout line parses as JSON with exactly the keys correct,
    attempted, failed and metrics, and reports correct outputs;
  * the metrics are exactly BENCHMARK.json's end_to_end (trace 0) or
    per_layer (trace 1) names, each with its declared unit and a finite
    number;
  * the result and span files parse;
  * an unknown flag exits 2 and writes no file named after it.

Usage, from the root of a checkout: python3 perfbench/selftest.py
"""

import glob
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    bogus = subprocess.run(RUN + ["--workload", "paper-rpc", "--seed", "1", "--seconds",
                                  "1", "--trace", "0", "--bogus-flag"],
                           cwd=ROOT, capture_output=True, text=True)
    expect(bogus.returncode == 2 and not os.path.exists(os.path.join(ROOT, "--bogus-flag")),
           "unknown flag exits 2 and writes no file")

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = "%s trace=%d" % (workload, trace)
            proc = subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--seconds",
                                         "1", "--trace", str(trace), "--smoke"],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                expect(False, tag + ": last line parses as JSON")
                continue
            expect(proc.returncode == 0, tag + ": exit 0")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   tag + ": result keys")
            expect(result.get("correct") is True and result.get("attempted", 0) >= 1
                   and result.get("failed") == 0, tag + ": outputs correct")
            metrics = result.get("metrics", {})
            expect(sorted(metrics) == sorted(m["name"] for m in declared),
                   tag + ": metric names match BENCHMARK.json")
            for m in declared:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                expect(got.get("unit") == m["unit"] and isinstance(value, (int, float))
                       and math.isfinite(value), tag + ": " + m["name"] + " [" + m["unit"] + "]")

    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench",
                           "results")
    files = glob.glob(os.path.join(ROOT, out_dir, "*.json"))
    for path in sorted(files):
        try:
            with open(path) as f:
                json.load(f)
            expect(True, os.path.basename(path) + " parses")
        except ValueError:
            expect(False, os.path.basename(path) + " parses")
    expect(len(files) >= 2 * len(spec["workloads"]), "result files written")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
