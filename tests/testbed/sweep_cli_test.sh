#!/bin/sh
# Every sweep bench rejects a bad command line with exit 2 before it runs
# or creates any file (DESIGN.md §12). Usage: sweep_cli_test.sh <bench dir>
bench_dir=$1
failures=0

# expect_usage_error <bench> <args...>: runs the bench in an empty
# directory and requires exit 2 and that the directory stays empty.
expect_usage_error() {
  bench=$1
  shift
  dir=$(mktemp -d)
  # The timeout bounds a bench that wrongly starts its sweep.
  (cd "$dir" && timeout 20 "$bench_dir/$bench" "$@" > /dev/null 2>&1)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $bench $*: exit $status, want 2"
    failures=$((failures + 1))
  fi
  if [ -n "$(ls -A "$dir")" ]; then
    echo "FAIL: $bench $*: created $(ls -A "$dir" | tr '\n' ' ')"
    failures=$((failures + 1))
  fi
  rm -rf "$dir"
}

for bench in buffer_sizing_sweep diagnosis_sweep fleet_sweep impairment_sweep recovery_sweep \
             robustness_sweep; do
  expect_usage_error "$bench" --bogus-flag
done
# --smoke keeps engine_perf small should it wrongly start measuring.
expect_usage_error engine_perf --smoke --bogus-flag
expect_usage_error engine_perf --smoke --out=x.json
# Flags that exist but that these benches do not declare.
expect_usage_error recovery_sweep --smoke --shards=4
expect_usage_error impairment_sweep --smoke
expect_usage_error buffer_sizing_sweep --smoke --trace=t.json
# Malformed values, empty paths and a second positional.
expect_usage_error fleet_sweep --smoke --jobs=banana
expect_usage_error fleet_sweep --smoke --shards=0
expect_usage_error robustness_sweep --smoke --series=
expect_usage_error diagnosis_sweep --smoke a.json b.json

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "all sweep command-line checks passed"
