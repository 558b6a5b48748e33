// The command line and output scaffolding the seven sweep benches share
// (DESIGN.md §12): strict flag parsing, the JSON envelope, the --trace
// recorder, the --series re-run and the same-seed twin. Grids, gates,
// tables and JSON bodies stay in each bench.
//
// A bench declares which of `--smoke`, `--jobs=N` (0 = all cores),
// `--shards=N` (N >= 1), `--trace=FILE` and `--series=FILE` it takes, plus
// its own switches; at most one positional output path follows. Anything
// else — an unknown or undeclared flag, a malformed value, an empty path,
// a second positional — prints the reason and one usage line to stderr and
// exits 2 before the bench runs or creates a file.

#ifndef SRC_TESTBED_SWEEP_SWEEP_MAIN_H_
#define SRC_TESTBED_SWEEP_SWEEP_MAIN_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"
#include "src/testbed/report.h"

namespace e2e {

// What a bench accepts: the bools declare the common flags.
struct SweepSpec {
  const char* bench = "";  // Usage-line program name and the JSON "bench".
  bool smoke = false;      // --smoke; the JSON then records "smoke".
  bool jobs = false;       // --jobs=N
  bool shards = false;     // --shards=N
  bool trace = false;      // --trace=FILE
  bool series = false;     // --series=FILE
  std::vector<std::string> switches{};  // Bench-specific boolean flags.
  int default_jobs = 1;
  int default_shards = 1;
  const char* default_out = nullptr;  // nullptr: JSON goes to stdout.
};

struct SweepOptions {
  SweepSpec spec;
  bool smoke = false;
  int jobs = 1;
  int shards = 1;
  const char* out_path = nullptr;     // nullptr: stdout.
  const char* trace_path = nullptr;   // Set iff --trace was given.
  const char* series_path = nullptr;  // Set iff --series was given.
  std::vector<std::string> switches;  // The bench switches given.

  bool Switch(const std::string& name) const;
};

// One line: "usage: <bench> [--smoke] [--jobs=N] ... [out.json]".
std::string SweepUsage(const SweepSpec& spec);

// Parses argv[1..argc) against `spec`. On a bad command line returns false
// with the reason in *error, leaving *options untouched.
bool ParseSweepOptions(const SweepSpec& spec, int argc, const char* const* argv,
                       SweepOptions* options, std::string* error);

// ParseSweepOptions for main(): a bad command line exits 2.
SweepOptions ParseSweepOptionsOrExit(const SweepSpec& spec, int argc, const char* const* argv);

// The JSON envelope: opens the output path (stdout when none; exits 1
// after printing "cannot open" when that fails) and writes "bench", then
// "seed" when given, then "smoke" when the bench takes --smoke, leaving
// the object open for the bench's body.
class SweepJson {
 public:
  SweepJson(const SweepOptions& options, std::optional<uint64_t> seed);
  ~SweepJson();
  SweepJson(const SweepJson&) = delete;
  SweepJson& operator=(const SweepJson&) = delete;

  JsonWriter& json() { return json_; }
  // Closes the envelope object, terminates the output and closes the file.
  void Close();

 private:
  FILE* out_;
  JsonWriter json_;
};

// The --trace recorder, present iff --trace was given. The observed
// cell's body binds it in the main pass — `ScopedTrace bind(trace.For(
// observed))` — which works under --jobs > 1: the binding is thread-local.
class SweepTrace {
 public:
  explicit SweepTrace(const SweepOptions& options);

  TraceRecorder* For(bool observed) {
    return observed && recorder_.has_value() ? &*recorder_ : nullptr;
  }
  // Writes the Chrome trace and a summary line on stderr, so stdout stays
  // byte-identical; exits 1 after printing "cannot write". No-op without
  // --trace.
  void Write() const;

 private:
  const char* path_;
  std::optional<TraceRecorder> recorder_;
};

// --series: re-runs the observed cell's `config` sampling its gauges every
// `interval`, and writes the series (CSV, or JSON for a .json path) with a
// summary line on stderr; exits 1 after printing "cannot write". No-op
// without --series. The main pass never samples: on a multi-domain fabric
// the sampler's global events can reorder same-instant events.
void WriteSeriesFile(const TimeSeries* series, const char* path);
template <typename Run, typename Config>
void WriteSweepSeries(const SweepOptions& options, Run run, Config config, Duration interval) {
  if (options.series_path != nullptr) {
    config.series_interval = interval;
    WriteSeriesFile(run(config).series.get(), options.series_path);
  }
}

// The same-seed twin: runs `run(config)` twice, aborts unless `same(a, b)`,
// and prints "determinism check: two same-seed <what> runs identical"
// (`what` may be empty).
void RequireSameSeedTwin(const char* what, bool same);
template <typename Run, typename Config, typename Same>
void CheckSameSeedTwin(const char* what, Run run, const Config& config, Same same) {
  const auto a = run(config);
  const auto b = run(config);
  RequireSameSeedTwin(what, same(a, b));
}

}  // namespace e2e

#endif  // SRC_TESTBED_SWEEP_SWEEP_MAIN_H_
