// SweepExecutor contract tests (DESIGN.md §12): bodies may run on any
// worker in any order, but commits run on the calling thread, strictly in
// cell-index order, exactly once per cell — which is what makes --jobs=N
// output byte-identical to --jobs=1. The jobs=1-vs-jobs=4 identity is
// checked here at the result level on a real robustness grid; the
// byte-level stdout/JSON comparison lives in CI (parallel-identity job).
// The sweep command-line parser (sweep_main.h) is tested here too; the
// sweep_cli test drives the real binaries' exit codes.

#include "src/testbed/sweep/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/testbed/robustness.h"
#include "src/testbed/sweep/sweep_main.h"

namespace e2e {
namespace {

// The sweep command line (src/testbed/sweep/sweep_main.h): a bench that
// declares every common flag, and two that declare fewer.
const SweepSpec kAllFlags{.bench = "all_sweep", .smoke = true, .jobs = true, .shards = true,
                          .trace = true, .series = true};
const SweepSpec kRecovery{.bench = "recovery_sweep", .smoke = true, .jobs = true};
const SweepSpec kEnginePerf{.bench = "engine_perf", .smoke = true, .jobs = true, .shards = true,
                            .default_jobs = 4, .default_shards = 4,
                            .default_out = "BENCH_engine.json"};

// Parses `args` (argv[0] is supplied) against `spec`.
bool Parse(const SweepSpec& spec, std::vector<const char*> args, SweepOptions* options,
           std::string* error = nullptr) {
  args.insert(args.begin(), spec.bench);
  std::string ignored;
  return ParseSweepOptions(spec, static_cast<int>(args.size()), args.data(), options,
                           error != nullptr ? error : &ignored);
}

TEST(ParseJobsFlagTest, ParsesWellFormedValues) {
  SweepOptions options;
  ASSERT_TRUE(Parse(kAllFlags, {"--jobs=4"}, &options));
  EXPECT_EQ(options.jobs, 4);

  ASSERT_TRUE(Parse(kAllFlags, {"--jobs=1"}, &options));
  EXPECT_EQ(options.jobs, 1);

  // 0 = "use all cores"; always resolves to at least one worker.
  ASSERT_TRUE(Parse(kAllFlags, {"--jobs=0"}, &options));
  EXPECT_GE(options.jobs, 1);
}

TEST(ParseJobsFlagTest, RejectsMalformedValues) {
  for (const char* arg : {"--jobs=banana", "--jobs=", "--jobs=-2", "--jobs=99999999999"}) {
    SweepOptions options;
    options.jobs = 7;
    std::string error;
    EXPECT_FALSE(Parse(kAllFlags, {arg}, &options, &error)) << arg;
    EXPECT_EQ(options.jobs, 7) << arg;  // Left untouched on rejection.
    EXPECT_EQ(error, std::string("invalid ") + arg);
  }
  // Not a --jobs flag at all: the output path and --smoke leave jobs alone.
  SweepOptions options;
  ASSERT_TRUE(Parse(kAllFlags, {"--smoke", "out.json"}, &options));
  EXPECT_TRUE(options.smoke);
  EXPECT_STREQ(options.out_path, "out.json");
  EXPECT_EQ(options.jobs, 1);
}

TEST(ParseJobsFlagTest, RejectsUnknownAndUndeclaredFlags) {
  // --shards and --trace exist, but recovery_sweep does not declare them.
  for (const char* arg : {"--bogus-flag", "--shards=4", "--trace=t.json", "--out=x.json",
                          "--leafspine", "-", "--smoke=1"}) {
    SweepOptions options;
    std::string error;
    EXPECT_FALSE(Parse(kRecovery, {"--smoke", arg}, &options, &error)) << arg;
    EXPECT_EQ(error, std::string("unknown flag ") + arg);
  }
  SweepOptions options;
  EXPECT_FALSE(Parse(kEnginePerf, {"--out=x.json"}, &options));
  // A bench's own switches are accepted by that bench only.
  const SweepSpec fleet{.bench = "fleet_sweep", .smoke = true, .switches = {"--leafspine"}};
  ASSERT_TRUE(Parse(fleet, {"--leafspine", "--smoke"}, &options));
  EXPECT_TRUE(options.Switch("--leafspine"));
  ASSERT_TRUE(Parse(fleet, {"--smoke"}, &options));
  EXPECT_FALSE(options.Switch("--leafspine"));
}

TEST(ParseJobsFlagTest, RejectsSecondPositionalAndEmptyPaths) {
  SweepOptions options;
  std::string error;
  EXPECT_FALSE(Parse(kAllFlags, {"a.json", "b.json"}, &options, &error));
  EXPECT_EQ(error, "unexpected second output path b.json");
  for (const char* arg : {"", "--trace=", "--series="}) {
    EXPECT_FALSE(Parse(kAllFlags, {arg}, &options)) << arg;
  }
  ASSERT_TRUE(Parse(kAllFlags, {"--trace=t.json", "--series=s.csv", "o.json"}, &options));
  EXPECT_STREQ(options.trace_path, "t.json");
  EXPECT_STREQ(options.series_path, "s.csv");
  EXPECT_STREQ(options.out_path, "o.json");
}

TEST(ParseShardsFlagTest, AcceptsPositiveWorkerCounts) {
  SweepOptions options;
  ASSERT_TRUE(Parse(kAllFlags, {"--shards=1"}, &options));
  EXPECT_EQ(options.shards, 1);

  ASSERT_TRUE(Parse(kAllFlags, {"--shards=4"}, &options));
  EXPECT_EQ(options.shards, 4);
}

TEST(ParseShardsFlagTest, RejectsZeroNegativeAndMalformedValues) {
  for (const char* arg : {"--shards=0", "--shards=-1", "--shards=banana", "--shards="}) {
    SweepOptions options;
    options.shards = 7;
    std::string error;
    EXPECT_FALSE(Parse(kAllFlags, {arg}, &options, &error)) << arg;
    EXPECT_EQ(options.shards, 7) << arg;  // Left untouched on rejection.
    EXPECT_EQ(error, std::string("invalid ") + arg);
  }
  // Not a --shards flag at all: shards keeps its default.
  SweepOptions options;
  ASSERT_TRUE(Parse(kAllFlags, {"--jobs=4", "out.json"}, &options));
  EXPECT_EQ(options.shards, 1);
}

TEST(ParseShardsFlagTest, AppliesBenchDefaults) {
  SweepOptions options;
  ASSERT_TRUE(Parse(kEnginePerf, {}, &options));
  EXPECT_EQ(options.jobs, 4);
  EXPECT_EQ(options.shards, 4);
  EXPECT_STREQ(options.out_path, "BENCH_engine.json");
  EXPECT_FALSE(options.smoke);

  ASSERT_TRUE(Parse(kEnginePerf, {"--shards=2", "x.json"}, &options));
  EXPECT_EQ(options.jobs, 4);
  EXPECT_EQ(options.shards, 2);
  EXPECT_STREQ(options.out_path, "x.json");

  ASSERT_TRUE(Parse(kAllFlags, {}, &options));
  EXPECT_EQ(options.jobs, 1);
  EXPECT_EQ(options.shards, 1);
  EXPECT_EQ(options.out_path, nullptr);  // JSON goes to stdout.
  EXPECT_EQ(options.trace_path, nullptr);
  EXPECT_EQ(options.series_path, nullptr);

  EXPECT_EQ(SweepUsage(kEnginePerf),
            "usage: engine_perf [--smoke] [--jobs=N] [--shards=N] [out.json]");
}

TEST(SweepExecutorTest, CommitsInIndexOrderOnCallerThread) {
  const std::thread::id caller = std::this_thread::get_id();
  constexpr size_t kCells = 64;
  std::vector<int> body_runs(kCells, 0);
  std::vector<size_t> commit_order;

  SweepExecutor executor(4);
  executor.Run(
      kCells,
      [&](size_t i) {
        // Uneven cell durations so completion order differs from index
        // order under parallelism.
        if (i % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ++body_runs[i];
      },
      [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        commit_order.push_back(i);
      });

  ASSERT_EQ(commit_order.size(), kCells);
  for (size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(body_runs[i], 1);
  }
}

TEST(SweepExecutorTest, SerialAndDegenerateShapes) {
  std::vector<size_t> order;
  SweepExecutor serial(1);
  serial.Run(
      3, [&](size_t i) { order.push_back(i * 10); }, [&](size_t i) { order.push_back(i); });
  // jobs=1 interleaves body/commit per cell, in order.
  EXPECT_EQ(order, (std::vector<size_t>{0, 0, 10, 1, 20, 2}));

  // Zero cells: no calls, no hang.
  SweepExecutor parallel(4);
  parallel.Run(
      0, [&](size_t) { FAIL() << "body on empty sweep"; },
      [&](size_t) { FAIL() << "commit on empty sweep"; });
}

// Stress shape for TSan: many tiny cells, more workers than cores, shared
// counters touched only through the documented contract (body writes its
// own cell's state; commit reads it on the caller thread).
TEST(SweepExecutorTest, StressManyCellsExactlyOnce) {
  constexpr size_t kCells = 512;
  std::atomic<size_t> bodies{0};
  std::vector<uint64_t> cell_value(kCells, 0);
  size_t commits = 0;
  uint64_t checksum = 0;

  SweepExecutor executor(8);
  executor.Run(
      kCells,
      [&](size_t i) {
        cell_value[i] = i * 2654435761u;
        bodies.fetch_add(1, std::memory_order_relaxed);
      },
      [&](size_t i) {
        ++commits;
        checksum ^= cell_value[i] + i;
      });

  EXPECT_EQ(bodies.load(), kCells);
  EXPECT_EQ(commits, kCells);
  uint64_t expected = 0;
  for (size_t i = 0; i < kCells; ++i) {
    expected ^= i * 2654435761u + i;
  }
  EXPECT_EQ(checksum, expected);
}

// End-to-end identity on a real grid: four robustness cells (tiny windows)
// produce bitwise-identical results under jobs=1 and jobs=4. This is the
// behavioral half of the byte-identity acceptance bar.
TEST(SweepExecutorTest, RobustnessGridIdenticalAcrossJobs) {
  const auto make_cell = [](size_t i) {
    RobustnessConfig config;
    config.seed = 42 + i;
    config.rate_rps = 20000;
    config.warmup = Duration::Millis(20);
    config.measure = Duration::Millis(60);
    config.fallback_enabled = (i % 2) == 0;
    if (i >= 2) {
      config.faults.Add(FaultKind::kMetaWithhold,
                        TimePoint::Zero() + config.warmup + Duration::Millis(20),
                        Duration::Millis(15));
    }
    return config;
  };

  const auto run_grid = [&](int jobs) {
    std::vector<RobustnessResult> results(4);
    SweepExecutor executor(jobs);
    executor.Run(
        results.size(), [&](size_t i) { results[i] = RunRobustnessExperiment(make_cell(i)); },
        [](size_t) {});
    return results;
  };

  const std::vector<RobustnessResult> serial = run_grid(1);
  const std::vector<RobustnessResult> parallel = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const RobustnessResult& a = serial[i];
    const RobustnessResult& b = parallel[i];
    EXPECT_EQ(a.requests_completed, b.requests_completed) << "cell " << i;
    // Bitwise double comparison: determinism means identical, not close.
    EXPECT_EQ(std::memcmp(&a.measured_mean_us, &b.measured_mean_us, sizeof(double)), 0)
        << "cell " << i;
    EXPECT_EQ(std::memcmp(&a.measured_p99_us, &b.measured_p99_us, sizeof(double)), 0)
        << "cell " << i;
    EXPECT_EQ(a.controller_switches, b.controller_switches) << "cell " << i;
    EXPECT_EQ(a.frozen_ticks, b.frozen_ticks) << "cell " << i;
    EXPECT_EQ(a.health.demotions, b.health.demotions) << "cell " << i;
    EXPECT_EQ(a.faults.meta_windows, b.faults.meta_windows) << "cell " << i;
  }
}

}  // namespace
}  // namespace e2e
