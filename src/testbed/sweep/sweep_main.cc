#include "src/testbed/sweep/sweep_main.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

namespace e2e {
namespace {

// The value of `arg` when it is `prefix` + value, else nullptr.
const char* FlagValue(const char* arg, const char* prefix) {
  const size_t len = std::strlen(prefix);
  return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
}

// A whole decimal number in [min, INT_MAX].
bool ParseCount(const char* value, long min, int* out) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (*value == '\0' || *end != '\0' || errno != 0 || parsed < min || parsed > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

}  // namespace

bool SweepOptions::Switch(const std::string& name) const {
  return std::find(switches.begin(), switches.end(), name) != switches.end();
}

std::string SweepUsage(const SweepSpec& spec) {
  std::string usage = std::string("usage: ") + spec.bench;
  const std::pair<bool, const char*> common[] = {
      {spec.smoke, "--smoke"},      {spec.jobs, "--jobs=N"},         {spec.shards, "--shards=N"},
      {spec.trace, "--trace=FILE"}, {spec.series, "--series=FILE"}};
  for (const auto& [declared, flag] : common) {
    if (declared) {
      usage += std::string(" [") + flag + "]";
    }
  }
  for (const std::string& name : spec.switches) {
    usage += " [" + name + "]";
  }
  return usage + " [out.json]";
}

bool ParseSweepOptions(const SweepSpec& spec, int argc, const char* const* argv,
                       SweepOptions* options, std::string* error) {
  SweepOptions parsed;
  parsed.spec = spec;
  parsed.jobs = spec.default_jobs;
  parsed.shards = spec.default_shards;
  parsed.out_path = spec.default_out;
  bool have_positional = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    bool ok = true;
    if (arg[0] != '-') {
      if (have_positional) {
        *error = std::string("unexpected second output path ") + arg;
        return false;
      }
      have_positional = true;
      ok = arg[0] != '\0';
      parsed.out_path = arg;
    } else if (spec.smoke && std::strcmp(arg, "--smoke") == 0) {
      parsed.smoke = true;
    } else if (spec.jobs && (value = FlagValue(arg, "--jobs=")) != nullptr) {
      ok = ParseCount(value, 0, &parsed.jobs);
      if (ok && parsed.jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        parsed.jobs = hw > 0 ? static_cast<int>(hw) : 1;
      }
    } else if (spec.shards && (value = FlagValue(arg, "--shards=")) != nullptr) {
      // No "pick for me" value: output is byte-identical for every N >= 1.
      ok = ParseCount(value, 1, &parsed.shards);
    } else if (spec.trace && (value = FlagValue(arg, "--trace=")) != nullptr) {
      ok = *value != '\0';
      parsed.trace_path = value;
    } else if (spec.series && (value = FlagValue(arg, "--series=")) != nullptr) {
      ok = *value != '\0';
      parsed.series_path = value;
    } else if (std::find(spec.switches.begin(), spec.switches.end(), arg) !=
               spec.switches.end()) {
      parsed.switches.emplace_back(arg);
    } else {
      *error = std::string("unknown flag ") + arg;
      return false;
    }
    if (!ok) {
      *error = std::string("invalid ") + (arg[0] == '\0' ? "empty output path" : arg);
      return false;
    }
  }
  *options = std::move(parsed);
  return true;
}

SweepOptions ParseSweepOptionsOrExit(const SweepSpec& spec, int argc, const char* const* argv) {
  SweepOptions options;
  std::string error;
  if (!ParseSweepOptions(spec, argc, argv, &options, &error)) {
    std::fprintf(stderr, "%s: %s\n%s\n", spec.bench, error.c_str(), SweepUsage(spec).c_str());
    std::exit(2);
  }
  return options;
}

SweepJson::SweepJson(const SweepOptions& options, std::optional<uint64_t> seed)
    : out_(options.out_path != nullptr ? std::fopen(options.out_path, "w") : stdout),
      json_(out_) {
  if (out_ == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", options.out_path);
    std::exit(1);
  }
  json_.BeginObject();
  json_.KV("bench", std::string(options.spec.bench));
  if (seed.has_value()) {
    json_.KV("seed", *seed);
  }
  if (options.spec.smoke) {
    json_.KV("smoke", static_cast<uint64_t>(options.smoke ? 1 : 0));
  }
}

SweepJson::~SweepJson() {
  if (out_ != nullptr && out_ != stdout) {
    std::fclose(out_);
  }
}

void SweepJson::Close() {
  json_.EndObject();
  json_.Finish();
  if (out_ != stdout) {
    std::fclose(out_);
  }
  out_ = nullptr;
}

SweepTrace::SweepTrace(const SweepOptions& options) : path_(options.trace_path) {
  if (path_ != nullptr) {
    recorder_.emplace(/*capacity=*/1 << 18);
  }
}

void SweepTrace::Write() const {
  if (!recorder_.has_value()) {
    return;
  }
  if (!recorder_->WriteChromeTraceFile(path_)) {
    std::fprintf(stderr, "cannot write %s\n", path_);
    std::exit(1);
  }
  std::fprintf(stderr, "trace: %llu events recorded (%llu overwritten) -> %s\n",
               static_cast<unsigned long long>(recorder_->recorded()),
               static_cast<unsigned long long>(recorder_->overwritten()), path_);
}

void WriteSeriesFile(const TimeSeries* series, const char* path) {
  if (series == nullptr || !series->WriteFile(path)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(stderr, "series: %zu samples -> %s\n", series->num_rows(), path);
}

void RequireSameSeedTwin(const char* what, bool same) {
  const char* sep = *what != '\0' ? " " : "";
  if (!same) {
    std::fprintf(stderr, "FATAL: same-seed %s%sruns diverged\n", what, sep);
    std::abort();
  }
  std::printf("determinism check: two same-seed %s%sruns identical\n", what, sep);
}

}  // namespace e2e
