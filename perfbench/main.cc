// perfbench: the repository benchmark. Runs one named workload against the
// library's public drivers (RunRedisExperiment, RunRecoveryExperiment,
// RunFleetExperiment, FabricTopology, SweepExecutor), checks its outputs and
// prints its metrics. See perfbench/README.md for the workloads, the metric
// map and the reference numbers.
//
// Usage:
//   perfbench --workload <paper-rpc|lossy-bulk|fleet-16k> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//             [--smoke]
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints the
// per-layer metrics from a traced run. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 all
// checks passed, 1 a check failed, 2 bad usage, 3 skipped (memory
// pre-flight; no result line).

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "src/core/endpoint_queues.h"
#include "src/core/estimator.h"
#include "src/core/queue_state.h"
#include "src/net/impair/loss_model.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/tcp/segment.h"
#include "src/tcp/segment_codec.h"
#include "src/testbed/experiment.h"
#include "src/testbed/fabric_topology.h"
#include "src/testbed/fleet.h"
#include "src/testbed/recovery.h"
#include "src/testbed/sweep/executor.h"

namespace perfbench {
namespace {

using e2e::BatchMode;
using e2e::Duration;
using e2e::TimePoint;

// ---------------------------------------------------------------------------
// Host clock, memory and machine facts.

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Reads "<key>: <n> kB" from a /proc file; 0 when absent.
uint64_t ReadProcKb(const char* path, const char* key) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  uint64_t kb = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtoull(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Anonymous resident memory: heap and mappings, not the binary's code pages
// faulted in on first use.
uint64_t AnonRssBytes() { return ReadProcKb("/proc/self/status", "RssAnon") * 1024; }
uint64_t PeakRssBytes() { return ReadProcKb("/proc/self/status", "VmHWM") * 1024; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// FNV-1a over 64-bit words: fingerprints of what a cell computed.
class Fingerprint {
 public:
  Fingerprint& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Fingerprint& Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return Add(bits);
  }
  Fingerprint& Add(const std::optional<double>& v) {
    return v.has_value() ? Add(uint64_t{1}).Add(*v) : Add(uint64_t{0});
  }
  Fingerprint& Add(const std::string& s) {
    for (char c : s) {
      Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Host-time spans recorded around each call into a layer. Kept in memory and
// written out at the end of a traced run; spans of one cell share its id.

struct Span {
  std::string name;
  uint64_t cell = 0;
  int parent = -1;
  double start = 0;
  double end = 0;
};

class SpanLog {
 public:
  int Begin(const std::string& name, uint64_t cell) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, cell, parent, Now() - origin_, 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  double End(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = Now() - origin_;
    stack_.pop_back();
    return s.end - s.start;
  }
  // The enclosing span's cell id, for children that do not name one.
  uint64_t CurrentCell() const {
    return stack_.empty() ? 0 : spans_[static_cast<size_t>(stack_.back())].cell;
  }
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"unit\": \"s\", \"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"cell\": %" PRIu64
                      ", \"parent\": %d, \"start\": %s, \"end\": %s}",
                   i == 0 ? "" : ",", i, JsonEscape(s.name).c_str(), s.cell, s.parent,
                   Num(s.start).c_str(), Num(s.end).c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double origin_ = Now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Times a scope; also records it as a span when a log is attached.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, std::optional<uint64_t> cell = std::nullopt)
      : log_(log), start_(Now()) {
    if (log_ != nullptr) {
      id_ = log_->Begin(name, cell.value_or(log_->CurrentCell()));
    }
  }
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      elapsed_ = Now() - start_;
      if (log_ != nullptr) {
        log_->End(id_);
      }
    }
    return elapsed_;
  }

 private:
  SpanLog* log_;
  int id_ = -1;
  double start_;
  double elapsed_ = 0;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Metrics and output checks.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Cell-level accounting: every cell run that produces outputs is attempted;
// a cell with any violated check is failed.
class Checks {
 public:
  void Cell(const std::string& label, const std::vector<std::string>& violations) {
    ++attempted_;
    if (!violations.empty()) {
      ++failed_;
      for (const std::string& v : violations) {
        failures_.push_back(label + ": " + v);
      }
    }
  }
  // A check on an already-counted cell (shape, twin, identity): a failure
  // marks one more failed cell.
  void Expect(bool ok, const std::string& what) {
    checks_.emplace_back(what, ok);
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return std::min(failed_, attempted_); }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::pair<std::string, bool>>& checks() const { return checks_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, bool>> checks_;
};

void ExpectFinite(std::vector<std::string>* v, const char* what, double x) {
  if (!std::isfinite(x) || x < 0) {
    v->push_back(std::string(what) + " is negative or not finite");
  }
}
void ExpectFinite(std::vector<std::string>* v, const char* what, const std::optional<double>& x) {
  if (x.has_value()) {
    ExpectFinite(v, what, *x);
  }
}

// ---------------------------------------------------------------------------
// Workloads.

struct CellRun {
  uint64_t fingerprint = 0;
  std::vector<std::string> violations;
};

// Engine counters of one cell, where the driver exposes them.
struct EngineCounters {
  uint64_t events = 0;
  double wall_s = 0;  // The driver's own simulate-phase wall time.
  uint64_t queue_peak_max = 0;
  double queue_peak_mean = 0;
  uint64_t domains = 0;
};

// What a traced run measures about set-up: the cell's topology built and
// connected by the benchmark itself, outside the driver.
struct SetupProbe {
  e2e::FabricConfig fabric;
  e2e::TcpConfig client_tcp;
  e2e::TcpConfig server_tcp;
};

// Segment option mix for the codec unit-cost loop.
struct OptionMix {
  bool e2e = false;
  bool timestamps = false;
  size_t sack_blocks = 0;
};

class Workload {
 public:
  Workload(uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}
  virtual ~Workload() = default;

  virtual size_t num_cells() const = 0;
  virtual std::string CellLabel(size_t i) const = 0;
  virtual double CellSimSeconds(size_t i) const = 0;
  virtual int connections() const = 0;
  // Canonical text of every cell's configuration (hashed into the manifest).
  virtual std::string ConfigText() const = 0;
  virtual int shards() const { return 0; }
  // Runs cell i and keeps its result for the metric derivations. zero_time
  // runs the same configuration for zero simulated time (set-up only; the
  // result is not kept). shards >= 1 overrides the engine worker count of a
  // workload that names one (shards() > 0).
  virtual CellRun Run(size_t i, bool zero_time, int shards = 0) = 0;
  virtual SetupProbe Probe() const = 0;
  virtual OptionMix CodecMix() const = 0;
  // Engine counters of cell 0 (paper-rpc runs a kDirect fleet twin for them).
  virtual std::optional<EngineCounters> Engine() { return std::nullopt; }
  // est_abs_err_pct (percent) and goodput_mbps, from the kept results (and,
  // where the workload's own cells carry no estimate, a fidelity probe
  // that counts as one more checked cell).
  virtual std::pair<double, double> Fidelity(Checks* checks) = 0;
  virtual void WorkloadChecks(Checks* checks) const { (void)checks; }
  // Per-layer counters from the kept results (the tcp/net/core/cpu/apps set).
  virtual void LayerCounters(Metrics* m) const = 0;

 protected:
  uint64_t CellSeed(size_t i) const { return e2e::DeriveSeed(seed_, 0x70657266, i); }

  uint64_t seed_;
  bool smoke_;
};

// Application payload goodput of an RPC cell: completed 16 KiB SET values.
double SetGoodputMbps(double achieved_krps) { return achieved_krps * 1e3 * 16384 * 8 / 1e6; }

// The paper's two-host Redis/Lancet cell (§4): {20,40,60} kRPS x
// {nodelay, nagle, dynamic}, 16 KiB SET, DESIGN.md §5 calibration, default
// windows and engine.
class PaperRpc : public Workload {
 public:
  using Workload::Workload;
  static constexpr double kRates[3] = {20000, 40000, 60000};
  static constexpr BatchMode kModes[3] = {BatchMode::kStaticOff, BatchMode::kStaticOn,
                                          BatchMode::kDynamic};

  size_t num_cells() const override { return 9; }
  std::string CellLabel(size_t i) const override {
    return std::to_string(static_cast<int>(kRates[i / 3] / 1000)) + "k/" +
           e2e::BatchModeName(kModes[i % 3]);
  }
  double CellSimSeconds(size_t i) const override {
    const e2e::RedisExperimentConfig c = Config(i, false);
    return (c.warmup + c.measure + c.drain).ToSeconds();
  }
  int connections() const override { return 1; }
  std::string ConfigText() const override {
    std::string s;
    for (size_t i = 0; i < num_cells(); ++i) {
      const e2e::RedisExperimentConfig c = Config(i, false);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "rpc rate=%g mode=%s seed=%" PRIu64 " warmup=%g measure=%g drain=%g "
                    "collect=%g exchange=%g slo=%g conns=%d;",
                    c.rate_rps, e2e::BatchModeName(c.batch_mode), c.seed, c.warmup.ToSeconds(),
                    c.measure.ToSeconds(), c.drain.ToSeconds(), c.collect_interval.ToSeconds(),
                    c.exchange_interval.ToSeconds(), c.slo.ToSeconds(), c.num_connections);
      s += buf;
    }
    return s;
  }

  // Two-host cells run on the library's default engine; `shards` is unused.
  CellRun Run(size_t i, bool zero_time, int) override {
    const e2e::RedisExperimentResult r = e2e::RunRedisExperiment(Config(i, zero_time));
    CellRun run;
    if (zero_time) {
      return run;
    }
    results_.resize(num_cells());
    results_[i] = r;
    run.fingerprint = Fingerprint()
                          .Add(r.requests_completed)
                          .Add(r.measured_mean_us)
                          .Add(r.measured_p99_us)
                          .Add(r.est_bytes_us)
                          .Add(r.online_est_us)
                          .Add(r.server_wire_packets)
                          .Add(r.exchanges)
                          .Add(r.retransmits)
                          .Add(r.controller_switches)
                          .value();
    if (r.requests_completed == 0) {
      run.violations.push_back("requests_completed == 0");
    }
    ExpectFinite(&run.violations, "measured_mean_us", r.measured_mean_us);
    ExpectFinite(&run.violations, "est_bytes_us", r.est_bytes_us);
    ExpectFinite(&run.violations, "online_est_us", r.online_est_us);
    if (!r.est_bytes_us.has_value()) {
      run.violations.push_back("no byte-mode estimate");
    }
    return run;
  }

  SetupProbe Probe() const override {
    return SetupProbe{e2e::RedisExperimentConfig::DefaultRedisTopology().ToFabric(),
                      e2e::RedisExperimentConfig::DefaultClientTcp(),
                      e2e::RedisExperimentConfig::DefaultServerTcp()};
  }
  OptionMix CodecMix() const override { return OptionMix{true, false, 0}; }

  // RunRedisExperiment does not expose its simulator; the fleet driver on
  // the same kDirect topology, load and windows as cell 0 does.
  std::optional<EngineCounters> Engine() override {
    const e2e::RedisExperimentConfig c = Config(0, false);
    e2e::FleetExperimentConfig f;
    f.fabric = c.topology.ToFabric();
    f.total_rate_rps = c.rate_rps;
    f.batch_mode = c.batch_mode;
    f.client_profiles = {c.client_costs};
    f.server_costs = c.server_costs;
    f.warmup = c.warmup;
    f.measure = c.measure;
    f.drain = c.drain;
    f.collect_interval = c.collect_interval;
    f.exchange_interval = c.exchange_interval;
    f.seed = c.seed;
    const e2e::FleetExperimentResult r = e2e::RunFleetExperiment(f);
    return EngineCounters{r.events_fired, r.wall_seconds, r.queue_peak_max, r.queue_peak_mean,
                          r.queue_domains};
  }

  std::pair<double, double> Fidelity(Checks*) override {
    double err = 0;
    double goodput = 0;
    for (const e2e::RedisExperimentResult& r : results_) {
      err += std::fabs(r.EstimateErrorPct(e2e::UnitMode::kBytes).value_or(0));
      goodput += SetGoodputMbps(r.achieved_krps);
    }
    const double n = static_cast<double>(results_.size());
    return {err / n, goodput / n};
  }

  // The paper's headline: at 60 kRPS Nagle meets the 500 µs SLO and
  // TCP_NODELAY does not (mean send->response latency).
  void WorkloadChecks(Checks* checks) const override {
    const e2e::RedisExperimentResult& nodelay = results_[6];
    const e2e::RedisExperimentResult& nagle = results_[7];
    const double slo_us = 500;
    char what[160];
    std::snprintf(what, sizeof(what),
                  "headline shape at 60k: nagle %.1f us <= %.0f < nodelay %.1f us",
                  nagle.measured_mean_us, slo_us, nodelay.measured_mean_us);
    checks->Expect(nagle.measured_mean_us <= slo_us && nodelay.measured_mean_us > slo_us, what);
  }

  void LayerCounters(Metrics* m) const override {
    double sends = 0, wire = 0, segs = 0, acks = 0, delack = 0, holds = 0, rpp = 0;
    double exchanges = 0, switches = 0, duty = 0, sim_s = 0, completed = 0;
    double s_app = 0, s_soft = 0, c_app = 0, req_leg = 0, srv = 0, resp_leg = 0;
    for (size_t i = 0; i < results_.size(); ++i) {
      const e2e::RedisExperimentResult& r = results_[i];
      const auto& cs = r.client_endpoint_stats;
      const auto& ss = r.server_endpoint_stats;
      sends += static_cast<double>(cs.sends);
      wire += static_cast<double>(cs.wire_packets_sent + ss.wire_packets_sent);
      segs += static_cast<double>(cs.data_segments_sent + ss.data_segments_sent);
      acks += static_cast<double>(cs.pure_acks_sent + ss.pure_acks_sent);
      delack += static_cast<double>(r.client_delack_fires + r.server_delack_fires);
      holds += static_cast<double>(r.server_nagle_holds);
      rpp += r.responses_per_packet;
      exchanges += static_cast<double>(cs.exchanges_received + ss.exchanges_received);
      switches += static_cast<double>(r.controller_switches);
      duty += r.duty_cycle_on;
      sim_s += CellSimSeconds(i);
      completed += static_cast<double>(r.requests_completed);
      s_app += r.server_app_util;
      s_soft += r.server_softirq_util;
      c_app += r.client_app_util;
      req_leg += r.comp_request_leg_us;
      srv += r.comp_server_us;
      resp_leg += r.comp_response_leg_us;
    }
    const double n = static_cast<double>(results_.size());
    m->Set("net.wire_packets_per_request", wire / sends, "1/req");
    m->Set("net.responses_per_packet", rpp / n, "1/pkt");
    m->Set("tcp.segments_per_request", segs / sends, "1/req");
    m->Set("tcp.pure_acks_per_request", acks / sends, "1/req");
    m->Set("tcp.delack_fires", delack, "count");
    m->Set("tcp.nagle_holds", holds, "count");
    m->Set("core.exchanges_per_sim_s", exchanges / sim_s, "1/s");
    m->Set("core.controller_switches", switches, "count");
    m->Set("core.duty_cycle_on", duty / n, "ratio");
    m->Set("cpu.server_app_util", s_app / n, "ratio");
    m->Set("cpu.server_softirq_util", s_soft / n, "ratio");
    m->Set("cpu.client_app_util", c_app / n, "ratio");
    m->Set("apps.comp_request_leg_us", req_leg / n, "us");
    m->Set("apps.comp_server_us", srv / n, "us");
    m->Set("apps.comp_response_leg_us", resp_leg / n, "us");
    m->Set("apps.requests_completed", completed, "count");
  }

 private:
  e2e::RedisExperimentConfig Config(size_t i, bool zero_time) const {
    e2e::RedisExperimentConfig c;
    c.rate_rps = kRates[i / 3];
    c.batch_mode = kModes[i % 3];
    c.seed = CellSeed(i);
    if (smoke_) {
      c.warmup = Duration::Millis(50);
      c.measure = Duration::Millis(150);
    }
    if (zero_time) {
      c.warmup = c.measure = c.drain = Duration::Zero();
    }
    return c;
  }

  std::vector<e2e::RedisExperimentResult> results_;
};

// Gilbert-Elliott bursty loss: mean burst 3 packets, 1% stationary.
e2e::ImpairmentConfig BurstLoss() {
  e2e::ImpairmentConfig imp;
  imp.gilbert_elliott = e2e::GilbertElliottConfig::FromBurstAndRate(3.0, 0.01);
  return imp;
}

// Two-host bulk transfer over bursty loss in both directions; timestamps,
// SACK and RACK-TLP on; cc in {reno, cubic}.
class LossyBulk : public Workload {
 public:
  using Workload::Workload;
  static constexpr e2e::CcAlgorithm kCcs[2] = {e2e::CcAlgorithm::kReno, e2e::CcAlgorithm::kCubic};
  // Loss patterns per cc, each from its own seed, so a pass's work does not
  // hinge on one pattern.
  static constexpr size_t kReplicas = 3;

  size_t num_cells() const override { return 2 * kReplicas; }
  std::string CellLabel(size_t i) const override {
    return std::string("bulk/") + e2e::CcAlgorithmName(kCcs[i % 2]) + "/" +
           std::to_string(i / 2);
  }
  double CellSimSeconds(size_t i) const override { return Config(i, false).run.ToSeconds(); }
  int connections() const override { return 1; }
  std::string ConfigText() const override {
    std::string s;
    for (size_t i = 0; i < num_cells(); ++i) {
      const e2e::RecoveryConfig c = Config(i, false);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "bulk cc=%s seed=%" PRIu64 " run=%g bps=%g prop=%g ge=3/0.01 both "
                    "ts=%d sack=%d rack=%d exchange=%g;",
                    e2e::CcAlgorithmName(c.cc), c.seed, c.run.ToSeconds(), c.link_bps,
                    c.propagation.ToSeconds(), c.features.timestamps, c.features.sack,
                    c.features.rack, c.exchange_interval.ToSeconds());
      s += buf;
    }
    return s + FidelityConfigText();
  }

  CellRun Run(size_t i, bool zero_time, int) override {
    const e2e::RecoveryResult r = e2e::RunRecoveryExperiment(Config(i, zero_time));
    CellRun run;
    if (zero_time) {
      return run;
    }
    results_.resize(num_cells());
    results_[i] = r;
    run.fingerprint = Fingerprint()
                          .Add(r.bytes_delivered)
                          .Add(r.retransmits)
                          .Add(r.sack_retransmits)
                          .Add(r.rack_marked_lost)
                          .Add(r.tlp_probes)
                          .Add(r.rto_fires)
                          .Add(r.srtt_us)
                          .Add(r.exchanges_received)
                          .Add(r.health_demotions)
                          .Add(r.c2s_dropped)
                          .Add(r.s2c_dropped)
                          .value();
    if (!(r.goodput_mbps > 0)) {
      run.violations.push_back("goodput_mbps <= 0");
    }
    ExpectFinite(&run.violations, "srtt_us", r.srtt_us);
    ExpectFinite(&run.violations, "recovery_mean_us", r.recovery_mean_us);
    return run;
  }

  SetupProbe Probe() const override {
    const e2e::RecoveryConfig c = Config(0, false);
    e2e::TopologyConfig topo;
    topo.link.bandwidth_bps = c.link_bps;
    topo.link.propagation = c.propagation;
    topo.c2s_impairment = c.c2s_impairment;
    topo.s2c_impairment = c.s2c_impairment;
    topo.seed = c.seed;
    e2e::TcpConfig tcp;
    tcp.nodelay = true;
    tcp.features = c.features;
    tcp.cc.algorithm = c.cc;
    tcp.e2e_exchange_interval = c.exchange_interval;
    return SetupProbe{topo.ToFabric(), tcp, tcp};
  }
  OptionMix CodecMix() const override { return OptionMix{true, true, 3}; }

  // The bulk cells carry no latency ground truth, so the estimator's
  // accuracy on this path comes from 64-connection Redis/Lancet star fleets
  // (Nagle, 20 kRPS) over the same bursty loss: the fleet-aggregate
  // byte-mode estimate against measured latency, mean over kFidelityReplicas
  // seeds.
  static constexpr size_t kFidelityReplicas = 8;
  std::pair<double, double> Fidelity(Checks* checks) override {
    double err = 0;
    for (size_t k = 0; k < kFidelityReplicas; ++k) {
      const e2e::FleetExperimentResult r = e2e::RunFleetExperiment(FidelityConfig(k));
      std::vector<std::string> violations;
      ExpectFinite(&violations, "measured_mean_us", r.measured_mean_us);
      ExpectFinite(&violations, "fleet_est_bytes_us", r.fleet_est_bytes_us);
      if (!r.fleet_est_bytes_us.has_value() || r.requests_completed == 0) {
        violations.push_back("fidelity cell produced no estimate");
      }
      checks->Cell("fidelity fleet/64 over burst loss #" + std::to_string(k), violations);
      err += std::fabs(r.FleetEstimateErrorPct().value_or(0));
    }
    double goodput = 0;
    for (const e2e::RecoveryResult& b : results_) {
      goodput += b.goodput_mbps;
    }
    return {err / kFidelityReplicas, goodput / static_cast<double>(results_.size())};
  }

  void LayerCounters(Metrics* m) const override {
    double retx = 0, sack_retx = 0, rack = 0, tlp = 0, rto = 0, spurious = 0, delivered = 0;
    double sheds = 0, dropped = 0, demotions = 0, static_ms = 0;
    for (const e2e::RecoveryResult& r : results_) {
      retx += static_cast<double>(r.retransmits);
      sack_retx += static_cast<double>(r.sack_retransmits);
      rack += static_cast<double>(r.rack_marked_lost);
      tlp += static_cast<double>(r.tlp_probes);
      rto += static_cast<double>(r.rto_fires);
      spurious += static_cast<double>(r.spurious_loss_reverts);
      delivered += static_cast<double>(r.bytes_delivered);
      sheds += static_cast<double>(r.sack_blocks_trimmed + r.exchange_deferrals + r.ts_omitted);
      dropped += static_cast<double>(r.c2s_dropped + r.s2c_dropped);
      demotions += static_cast<double>(r.health_demotions);
      static_ms += r.time_in_static_ms;
    }
    // RunRecoveryExperiment reports delivered bytes and retransmitted segments, not
    // bytes sent; each retransmission is charged one MSS.
    const double mss = e2e::TcpConfig{}.mss;
    m->Set("tcp.retransmits", retx, "count");
    m->Set("tcp.sack_retransmits", sack_retx, "count");
    m->Set("tcp.rack_marked_lost", rack, "count");
    m->Set("tcp.tlp_probes", tlp, "count");
    m->Set("tcp.rto_fires", rto, "count");
    m->Set("tcp.spurious_loss_reverts", spurious, "count");
    m->Set("tcp.useful_byte_ratio", delivered / (delivered + retx * mss), "ratio");
    m->Set("tcp.option_sheds", sheds, "count");
    m->Set("net.impair_dropped", dropped, "count");
    m->Set("core.health_demotions", demotions, "count");
    m->Set("core.time_in_static_ms", static_ms, "ms");
  }

 private:
  e2e::RecoveryConfig Config(size_t i, bool zero_time) const {
    e2e::RecoveryConfig c;
    c.features.timestamps = true;
    c.features.sack = true;
    c.features.rack = true;
    c.cc = kCcs[i % 2];
    c.c2s_impairment = BurstLoss();
    c.s2c_impairment = BurstLoss();
    c.run = smoke_ ? Duration::Millis(300) : Duration::Seconds(2);
    if (zero_time) {
      c.run = Duration::Zero();
    }
    c.seed = CellSeed(i);
    return c;
  }

  e2e::FleetExperimentConfig FidelityConfig(size_t k) const {
    e2e::FleetExperimentConfig c;
    c.fabric = e2e::FleetExperimentConfig::DefaultFleetFabric(64);
    c.fabric.c2s_impairment = BurstLoss();
    c.fabric.s2c_impairment = BurstLoss();
    c.fabric.seed = CellSeed(200 + k);
    c.total_rate_rps = 20000;
    c.batch_mode = BatchMode::kStaticOn;
    c.seed = CellSeed(100 + k);
    if (smoke_) {
      c.measure = Duration::Millis(100);
    }
    return c;
  }
  std::string FidelityConfigText() const {
    std::string s;
    for (size_t k = 0; k < kFidelityReplicas; ++k) {
      const e2e::FleetExperimentConfig c = FidelityConfig(k);
      s += "fidelity star clients=64 rate=20000 nagle ge=3/0.01 both seed=" +
           std::to_string(c.seed) + " measure=" + std::to_string(c.measure.ToSeconds()) + ";";
    }
    return s;
  }

  std::vector<e2e::RecoveryResult> results_;
};

// A lean leaf-spine fleet: 16,384 client hosts, 4 servers, 3 leaves x 2
// spines, ~1 rps per connection, exchanges every 10 ms, no collectors.
class Fleet16k : public Workload {
 public:
  Fleet16k(uint64_t seed, bool smoke, int shards) : Workload(seed, smoke), shards_(shards) {}

  size_t num_cells() const override { return 1; }
  std::string CellLabel(size_t) const override { return "fleet/" + std::to_string(Clients()); }
  double CellSimSeconds(size_t) const override {
    const e2e::FleetExperimentConfig c = Config(false, shards_);
    return (c.warmup + c.measure + c.drain).ToSeconds();
  }
  int connections() const override { return Clients(); }
  int shards() const override { return shards_; }
  std::string ConfigText() const override {
    const e2e::FleetExperimentConfig c = Config(false, shards_);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "fleet clients=%d servers=%d leaves=%d spines=%d rate=%g seed=%" PRIu64
                  " warmup=%g measure=%g drain=%g collect=%g exchange=%g shards=%d;",
                  c.fabric.num_clients, c.fabric.num_servers, c.fabric.num_leaves,
                  c.fabric.num_spines, c.total_rate_rps, c.seed, c.warmup.ToSeconds(),
                  c.measure.ToSeconds(), c.drain.ToSeconds(), c.collect_interval.ToSeconds(),
                  c.exchange_interval.ToSeconds(), c.fabric.shards);
    std::string s = buf;
    for (size_t k = 0; k < kFidelityReplicas; ++k) {
      const e2e::FleetExperimentConfig f = FidelityConfig(k);
      s += "fidelity clients=" + std::to_string(f.fabric.num_clients) +
           " rate=" + std::to_string(f.total_rate_rps) + " seed=" + std::to_string(f.seed) +
           " collect=" + std::to_string(f.collect_interval.ToSeconds()) + ";";
    }
    return s;
  }

  CellRun Run(size_t, bool zero_time, int shards) override {
    const e2e::FleetExperimentResult r =
        e2e::RunFleetExperiment(Config(zero_time, shards > 0 ? shards : shards_));
    CellRun run;
    if (zero_time) {
      return run;
    }
    run.fingerprint = FleetFingerprint(r);
    if (r.requests_completed == 0) {
      run.violations.push_back("requests_completed == 0");
    }
    if (r.forwarding_misses != 0) {
      run.violations.push_back("forwarding_misses != 0");
    }
    ExpectFinite(&run.violations, "measured_mean_us", r.measured_mean_us);
    ExpectFinite(&run.violations, "fleet_est_bytes_us", r.fleet_est_bytes_us);
    ExpectFinite(&run.violations, "online_est_us", r.online_est_us);
    result_ = r;
    return run;
  }

  SetupProbe Probe() const override {
    return SetupProbe{Config(false, shards_).fabric,
                      e2e::RedisExperimentConfig::DefaultClientTcp(),
                      e2e::RedisExperimentConfig::DefaultServerTcp()};
  }
  OptionMix CodecMix() const override { return OptionMix{true, false, 0}; }

  std::optional<EngineCounters> Engine() override {
    return EngineCounters{result_.events_fired, result_.wall_seconds, result_.queue_peak_max,
                          result_.queue_peak_mean, result_.queue_domains};
  }

  // The lean cell keeps no per-connection collectors and, at ~1 rps per
  // connection, few windows with departures; the estimator's accuracy on
  // this fabric comes from 64-client replicas with collectors on at 100 rps
  // per connection (mean over kFidelityReplicas seeds).
  static constexpr size_t kFidelityReplicas = 3;
  e2e::FleetExperimentConfig FidelityConfig(size_t k) const {
    e2e::FleetExperimentConfig c = Config(false, 1);
    c.fabric.num_clients = 64;
    c.total_rate_rps = 6400;
    c.collect_interval = Duration::Millis(1);
    c.seed = CellSeed(100 + k);
    c.fabric.seed = CellSeed(200 + k);
    return c;
  }
  std::pair<double, double> Fidelity(Checks* checks) override {
    double err = 0;
    for (size_t k = 0; k < kFidelityReplicas; ++k) {
      const e2e::FleetExperimentResult r = e2e::RunFleetExperiment(FidelityConfig(k));
      std::vector<std::string> violations;
      ExpectFinite(&violations, "fleet_est_bytes_us", r.fleet_est_bytes_us);
      if (!r.fleet_est_bytes_us.has_value() || r.requests_completed == 0) {
        violations.push_back("fidelity cell produced no estimate");
      }
      checks->Cell("fidelity fleet/64 #" + std::to_string(k), violations);
      err += std::fabs(r.FleetEstimateErrorPct().value_or(0));
    }
    return {err / kFidelityReplicas, SetGoodputMbps(result_.achieved_krps)};
  }

  void LayerCounters(Metrics* m) const override {
    m->Set("net.switch_drops", static_cast<double>(result_.switch_tail_drops), "count");
    m->Set("net.ecn_marked", static_cast<double>(result_.switch_ecn_marked), "count");
    m->Set("net.forwarding_misses", static_cast<double>(result_.forwarding_misses), "count");
    m->Set("tcp.retransmits", static_cast<double>(result_.retransmits), "count");
    m->Set("net.server_port_max_queue_bytes",
           static_cast<double>(result_.server_port_max_queue_bytes), "B");
    m->Set("cpu.server_app_util", result_.server_app_util, "ratio");
    m->Set("cpu.server_softirq_util", result_.server_softirq_util, "ratio");
    m->Set("cpu.client_app_util", result_.mean_client_app_util, "ratio");
    m->Set("apps.requests_completed", static_cast<double>(result_.requests_completed), "count");
  }

  static uint64_t FleetFingerprint(const e2e::FleetExperimentResult& r) {
    return Fingerprint()
        .Add(r.requests_completed)
        .Add(r.measured_mean_us)
        .Add(r.measured_p99_us)
        .Add(r.retransmits)
        .Add(r.switch_tail_drops)
        .Add(r.switch_ecn_marked)
        .Add(r.server_port_max_queue_bytes)
        .Add(r.events_fired)
        .value();
  }

 private:
  int Clients() const { return smoke_ ? 1024 : 16384; }

  e2e::FleetExperimentConfig Config(bool zero_time, int shards) const {
    e2e::FleetExperimentConfig c;
    c.fabric = e2e::FleetExperimentConfig::DefaultFleetFabric(Clients());
    c.fabric.shape = e2e::FabricShape::kLeafSpine;
    c.fabric.num_leaves = 3;
    c.fabric.num_spines = 2;
    c.fabric.num_servers = 4;
    c.fabric.shards = shards;
    c.total_rate_rps = Clients();
    c.warmup = Duration::Millis(10);
    c.measure = Duration::Millis(200);
    c.drain = Duration::Millis(10);
    c.collect_interval = Duration::Zero();
    c.exchange_interval = Duration::Millis(10);
    c.prefill_store = false;
    c.seed = CellSeed(0);
    c.fabric.seed = CellSeed(1);
    if (zero_time) {
      c.warmup = c.measure = c.drain = Duration::Zero();
    }
    return c;
  }

  int shards_;
  e2e::FleetExperimentResult result_;
};

// ---------------------------------------------------------------------------
// Isolated unit costs (host ns per operation), median of several reps.

template <typename F>
double UnitNs(int reps, uint64_t ops, F&& body) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    body();
    ns.push_back((Now() - t0) * 1e9 / static_cast<double>(ops));
  }
  return Median(ns);
}

volatile uint64_t g_sink = 0;

// EventQueue held at `depth` live events: Pop + Push per op (hold model),
// and Push + Cancel pairs on top of the same depth.
std::pair<double, double> QueueUnitNs(uint64_t depth) {
  constexpr uint64_t kOps = 400000;
  const double push_pop = UnitNs(5, kOps, [depth] {
    e2e::EventQueue q;
    e2e::Rng rng(7);
    for (uint64_t i = 0; i < depth; ++i) {
      q.Push(TimePoint::FromNanos(static_cast<int64_t>(rng.NextU64() % 1000000)), [] {});
    }
    for (uint64_t i = 0; i < kOps; ++i) {
      e2e::EventQueue::Entry e = q.Pop();
      q.Push(e.when + Duration::Nanos(static_cast<int64_t>(1 + rng.NextU64() % 1000000)), [] {});
    }
    g_sink = g_sink + q.size();
  });
  const double cancel = UnitNs(5, kOps, [depth] {
    e2e::EventQueue q;
    e2e::Rng rng(9);
    for (uint64_t i = 0; i < depth; ++i) {
      q.Push(TimePoint::FromNanos(static_cast<int64_t>(rng.NextU64() % 1000000)), [] {});
    }
    for (uint64_t i = 0; i < kOps; ++i) {
      const e2e::EventId id =
          q.Push(TimePoint::FromNanos(static_cast<int64_t>(rng.NextU64() % 1000000)), [] {});
      g_sink = g_sink + static_cast<uint64_t>(q.Cancel(id));
    }
  });
  return {push_pop, cancel};
}

// EncodeSegmentHeader / DecodeSegmentHeader on the workload's option mix.
std::pair<double, double> CodecUnitNs(const OptionMix& mix) {
  e2e::TcpSegment seg;
  seg.conn_id = 7;
  seg.seq = 123456;
  seg.ack = 654321;
  seg.len = 1448;
  seg.flags = e2e::kFlagAck;
  seg.window = 1 << 20;
  if (mix.e2e) {
    e2e::WirePayload p;
    p.unacked = e2e::WireCounters{1000, 2000, 3000};
    p.unread = e2e::WireCounters{1000, 2100, 3100};
    p.ackdelay = e2e::WireCounters{1000, 2200, 3200};
    seg.e2e_option = p;
  }
  if (mix.timestamps) {
    seg.ts = e2e::TsOption{11111, 22222};
  }
  for (size_t i = 0; i < mix.sack_blocks; ++i) {
    seg.sack.push_back(e2e::SackBlock{static_cast<uint32_t>(1000 * (i + 2)),
                                      static_cast<uint32_t>(1000 * (i + 2) + 500)});
  }
  const std::optional<e2e::EncodedSegment> enc = e2e::EncodeSegmentHeader(seg, true);
  constexpr uint64_t kOps = 200000;
  const double encode = UnitNs(5, kOps, [&seg] {
    for (uint64_t i = 0; i < kOps; ++i) {
      g_sink = g_sink + e2e::EncodeSegmentHeader(seg, true)->header.size();
    }
  });
  const double decode = UnitNs(5, kOps, [&enc] {
    for (uint64_t i = 0; i < kOps; ++i) {
      g_sink = g_sink + e2e::DecodeSegmentHeader(enc->header.data(), enc->header.size(),
                                                 enc->payload_len)
                            ->len;
    }
  });
  return {encode, decode};
}

// QueueState::Track, and one metadata exchange: both sides build their
// payload and ingest the peer's.
std::pair<double, double> CoreUnitNs() {
  constexpr uint64_t kOps = 1000000;
  const double track = UnitNs(5, kOps, [] {
    e2e::QueueState q;
    int64_t t = 0;
    for (uint64_t i = 0; i < kOps; ++i) {
      t += 100;
      q.Track(TimePoint::FromNanos(t), (i & 1) != 0 ? -1448 : 1448);
    }
    g_sink = g_sink + static_cast<uint64_t>(q.integral());
  });
  constexpr uint64_t kExchanges = 100000;
  const double exchange = UnitNs(5, kExchanges, [] {
    e2e::EndpointQueues qa;
    e2e::EndpointQueues qb;
    e2e::ConnectionEstimator ea;
    e2e::ConnectionEstimator eb;
    int64_t t = 0;
    for (uint64_t i = 0; i < kExchanges; ++i) {
      for (int k = 0; k < 4; ++k) {
        t += 10000;
        const TimePoint now = TimePoint::FromNanos(t);
        qa.Track(e2e::QueueKind::kUnacked, e2e::UnitMode::kBytes, now, (k & 1) ? -16384 : 16384);
        qb.Track(e2e::QueueKind::kUnread, e2e::UnitMode::kBytes, now, (k & 1) ? -16384 : 16384);
      }
      const TimePoint now = TimePoint::FromNanos(t);
      const e2e::WirePayload pa = ea.BuildLocalPayload(qa, nullptr, now);
      const e2e::WirePayload pb = eb.BuildLocalPayload(qb, nullptr, now);
      g_sink = g_sink + static_cast<uint64_t>(eb.OnRemotePayload(pa, qb, nullptr, now)) +
               static_cast<uint64_t>(ea.OnRemotePayload(pb, qa, nullptr, now));
    }
  });
  return {track, exchange};
}

// ---------------------------------------------------------------------------
// Runs.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
  bool smoke = false;
  bool setup_only = false;  // Print one set-up pass's seconds and exit.
};

// Memory the fleet cell is projected to need: HEAD's measured per-connection
// resident cost at 16,384 connections (191 KB), rounded up.
constexpr uint64_t kProjectedBytesPerConn = 200 * 1024;

struct Pass {
  double wall_s = 0;
  std::vector<double> cell_wall_s;
  std::vector<uint64_t> fingerprints;
};

Pass RunPass(Workload& w, Checks* checks, SpanLog* log, uint64_t pass_id,
             const std::string& tag) {
  Pass pass;
  pass.cell_wall_s.resize(w.num_cells());
  std::vector<CellRun> runs(w.num_cells());
  ScopedSpan pass_span(log, "pass" + tag, pass_id * 1000);
  // One cell at a time on the calling thread (jobs = 1).
  e2e::SweepExecutor(1).Run(
      w.num_cells(),
      [&](size_t i) {
        ScopedSpan cell(log, "cell " + w.CellLabel(i) + tag, pass_id * 1000 + i);
        runs[i] = w.Run(i, false);
        pass.cell_wall_s[i] = cell.Stop();
      },
      [&](size_t i) {
        checks->Cell(w.CellLabel(i) + tag, runs[i].violations);
        pass.fingerprints.push_back(runs[i].fingerprint);
      });
  pass.wall_s = pass_span.Stop();
  return pass;
}

// Host seconds from config to the first simulated event, summed over the
// cells: each cell run for zero simulated time.
double SetupPassSeconds(Workload& w, SpanLog* log) {
  ScopedSpan span(log, "setup_pass");
  for (size_t i = 0; i < w.num_cells(); ++i) {
    w.Run(i, true);
  }
  return span.Stop();
}

// Runs this binary again with `args`, waits for it, and returns its stdout;
// nullopt when it could not run or exited non-zero.
std::optional<std::string> RunSelf(std::vector<std::string> args) {
  // argv is built before fork: the child only calls async-signal-safe
  // functions until exec.
  std::string self = "/proc/self/exe";
  std::vector<char*> argv = {self.data()};
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    return std::nullopt;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(self.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[512];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  pid_t waited;
  while ((waited = waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
  }
  if (waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return out;
}

// The workload's topology built and connected by the benchmark itself,
// outside the driver: host time of the FabricTopology constructor and the
// Connect loop, and anonymous RSS growth across each. Run first in a fresh
// process, so the allocator has nothing freed to reuse.
struct SetupCost {
  int hosts = 0;
  int conns = 0;
  double build_s = 0;
  double connect_s = 0;
  double fabric_bytes = 0;
  double endpoint_bytes = 0;
};

SetupCost MeasureSetup(const Workload& w, SpanLog* log) {
  const SetupProbe probe = w.Probe();
  SetupCost cost;
  cost.hosts = probe.fabric.num_clients + probe.fabric.num_servers;
  cost.conns = probe.fabric.num_clients;
  ScopedSpan cell(log, "setup_probe", 900000);
  const uint64_t rss0 = AnonRssBytes();
  ScopedSpan build(log, "topology_build");
  auto topo = std::make_unique<e2e::FabricTopology>(probe.fabric);
  cost.build_s = build.Stop();
  const uint64_t rss1 = AnonRssBytes();
  ScopedSpan connect(log, "connect_loop");
  for (int i = 0; i < cost.conns; ++i) {
    topo->Connect(i, i % probe.fabric.num_servers, static_cast<uint64_t>(i + 1), probe.client_tcp,
                  probe.server_tcp);
  }
  cost.connect_s = connect.Stop();
  const uint64_t rss2 = AnonRssBytes();
  ScopedSpan teardown(log, "teardown");
  topo.reset();
  teardown.Stop();
  cost.fabric_bytes = static_cast<double>(rss1 - rss0);
  cost.endpoint_bytes = static_cast<double>(rss2 - rss1);
  return cost;
}

void RunEndToEnd(Workload& w, const Options& o, Metrics* m, Checks* checks) {
  const SetupCost setup = MeasureSetup(w, nullptr);

  // Set-up several times, each in a fresh process: within one process the
  // allocator's state after earlier cells (freed chunks, a raised mmap
  // threshold) decides whether set-up pays for page faults; median.
  std::vector<double> setups;
  std::vector<std::string> args = {"--workload", o.workload,          "--seed",
                                   std::to_string(o.seed), "--seconds", "1",
                                   "--trace",   "0",                     "--setup-only"};
  if (o.smoke) {
    args.push_back("--smoke");
  }
  const size_t reps = w.connections() > 1 ? 5 : 11;
  while (setups.size() < reps) {
    const std::optional<std::string> out = RunSelf(args);
    if (!out.has_value()) {
      checks->Expect(false, "set-up probe process failed");
      break;
    }
    setups.push_back(std::strtod(out->c_str(), nullptr));
  }
  const double setup_s = Median(setups);

  // Whole passes until the measuring time is spent; at least two, so the
  // first cell always runs twice (the determinism twin). Each pass follows
  // a zero-time pass in the same allocator state, whose wall is the
  // pass's own set-up and teardown; the rest is the simulate phase.
  std::vector<Pass> passes;
  std::vector<double> walls;
  std::vector<double> speeds;
  double sim_s = 0;
  for (size_t i = 0; i < w.num_cells(); ++i) {
    sim_s += w.CellSimSeconds(i);
  }
  const double deadline = Now() + o.seconds;
  double last_s = 0;  // Wall of the last zero-time pass plus pass.
  while (passes.size() < 2 || Now() + last_s <= deadline) {
    const double start = Now();
    const double warm_setup = SetupPassSeconds(w, nullptr);
    passes.push_back(RunPass(w, checks, nullptr, passes.size(), ""));
    walls.push_back(passes.back().wall_s);
    speeds.push_back(sim_s / std::max(passes.back().wall_s - warm_setup, 1e-9));
    last_s = Now() - start;
  }
  for (size_t p = 1; p < passes.size(); ++p) {
    checks->Expect(passes[p].fingerprints == passes[0].fingerprints,
                   "determinism twin: pass " + std::to_string(p) + " matches pass 0");
  }
  w.WorkloadChecks(checks);
  const auto [err_pct, goodput] = w.Fidelity(checks);

  m->Set("wall_s", Median(walls), "s");
  m->Set("setup_s", setup_s, "s");
  m->Set("sim_s_per_host_s", Median(speeds), "1");
  m->Set("peak_rss_mb", static_cast<double>(PeakRssBytes()) / (1 << 20), "MB");
  m->Set("bytes_per_conn", (setup.fabric_bytes + setup.endpoint_bytes) / setup.conns, "B");
  m->Set("est_abs_err_pct", err_pct, "%");
  m->Set("goodput_mbps", goodput, "Mbit/s");
  std::printf("set-up processes: %zu; pass wall s / sim_s_per_host_s:", setups.size());
  for (size_t p = 0; p < walls.size(); ++p) {
    std::printf(" %.3f/%.4g", walls[p], speeds[p]);
  }
  std::printf("\n");
}

void RunTraced(Workload& w, Metrics* m, Checks* checks, SpanLog* log) {
  const SetupCost setup = MeasureSetup(w, log);
  m->Set("net.topology_build_us_per_host", setup.build_s * 1e6 / setup.hosts, "us");
  m->Set("net.fabric_bytes_per_conn", setup.fabric_bytes / setup.conns, "B");
  m->Set("tcp.endpoint_bytes_per_conn", setup.endpoint_bytes / setup.conns, "B");
  m->Set("tcp.connect_us", setup.connect_s * 1e6 / setup.conns, "us");

  // Untraced reference pass, then the same pass traced: simulated outputs
  // must match exactly.
  const Pass untraced = RunPass(w, checks, log, 1, "");
  w.WorkloadChecks(checks);
  w.LayerCounters(m);
  std::optional<EngineCounters> engine = w.Engine();
  Pass traced;
  {
    e2e::TraceRecorder recorder(1 << 16, e2e::kTraceAll);
    e2e::ScopedTrace bind(&recorder);
    traced = RunPass(w, checks, log, 2, " traced");
  }
  checks->Expect(traced.fingerprints == untraced.fingerprints,
                 "trace passivity: traced pass matches untraced pass");
  m->Set("obs.trace_overhead_pct", 100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s,
         "%");

  // Work counts per trace category: cell 0 traced with one category at a
  // time (the recorder counts every event it accepts, ring or not).
  std::vector<double> category_counts(e2e::kNumTraceCategories, 0);
  for (size_t c = 0; c < e2e::kNumTraceCategories; ++c) {
    const auto category = static_cast<e2e::TraceCategory>(c);
    e2e::TraceRecorder recorder(1 << 12, e2e::TraceBit(category));
    CellRun run;
    {
      e2e::ScopedTrace bind(&recorder);
      ScopedSpan cell(log, std::string("cell 0 trace.") + e2e::TraceCategoryName(category),
                      3000 + c);
      run = w.Run(0, false);
    }
    checks->Cell(w.CellLabel(0) + " trace." + e2e::TraceCategoryName(category), run.violations);
    checks->Expect(run.fingerprint == untraced.fingerprints[0],
                   std::string("trace passivity: cell 0 with category ") +
                       e2e::TraceCategoryName(category));
    category_counts[c] = static_cast<double>(recorder.recorded());
    m->Set(std::string("obs.trace_events.") + e2e::TraceCategoryName(category),
           category_counts[c], "count");
  }

  // Shard identity and speed-up (fleet): the same cell on one worker.
  double shard_speedup = 1;
  if (w.shards() > 1 && engine.has_value()) {
    ScopedSpan cell(log, "cell 0 shards=1", 4000);
    const CellRun one = w.Run(0, false, 1);
    cell.Stop();
    checks->Cell(w.CellLabel(0) + " shards=1", one.violations);
    checks->Expect(one.fingerprint == untraced.fingerprints[0],
                   "shard identity: shards=1 matches shards=" + std::to_string(w.shards()));
    const std::optional<EngineCounters> single = w.Engine();
    shard_speedup = single->wall_s / engine->wall_s;
  }
  const EngineCounters e = engine.value_or(EngineCounters{});
  m->Set("sim.events", static_cast<double>(e.events), "count");
  m->Set("sim.events_per_host_s", e.wall_s > 0 ? static_cast<double>(e.events) / e.wall_s : 0,
         "1/s");
  m->Set("sim.queue_peak_max", static_cast<double>(e.queue_peak_max), "count");
  m->Set("sim.queue_peak_mean", e.queue_peak_mean, "count");
  m->Set("sim.domains", static_cast<double>(e.domains), "count");
  m->Set("sim.shard_speedup", shard_speedup, "x");

  // Isolated unit costs.
  const uint64_t depth = e.queue_peak_max > 0 ? e.queue_peak_max : 64;
  double push_pop = 0, cancel = 0, encode = 0, decode = 0, track = 0, exchange = 0;
  {
    ScopedSpan span(log, "unit.event_queue", 5000);
    std::tie(push_pop, cancel) = QueueUnitNs(depth);
  }
  {
    ScopedSpan span(log, "unit.codec", 5001);
    std::tie(encode, decode) = CodecUnitNs(w.CodecMix());
  }
  {
    ScopedSpan span(log, "unit.core", 5002);
    std::tie(track, exchange) = CoreUnitNs();
  }
  m->Set("sim.queue_push_pop_ns", push_pop, "ns");
  m->Set("sim.queue_cancel_ns", cancel, "ns");
  m->Set("tcp.codec_encode_ns", encode, "ns");
  m->Set("tcp.codec_decode_ns", decode, "ns");
  m->Set("core.track_ns", track, "ns");
  m->Set("core.exchange_ns", exchange, "ns");

  // Per-layer host time of cell 0 as traced count x isolated unit cost; the
  // rest of the cell's wall stays unattributed. Engine events are counted
  // only where the driver exposes them (paper-rpc via its fleet twin).
  const double cell0_ms = untraced.cell_wall_s[0] * 1e3;
  const double sim_ms = static_cast<double>(e.events) * push_pop / 1e6;
  const double core_ms =
      (category_counts[static_cast<size_t>(e2e::TraceCategory::kQueue)] * track +
       category_counts[static_cast<size_t>(e2e::TraceCategory::kEstimator)] * exchange) /
      1e6;
  m->Set("attr.cell0_wall_ms", cell0_ms, "ms");
  m->Set("attr.sim_ms", sim_ms, "ms");
  m->Set("attr.core_ms", core_ms, "ms");
  m->Set("attr.unattributed_pct", 100.0 * (cell0_ms - sim_ms - core_ms) / cell0_ms, "%");
}

// Every per-layer metric name is reported on every workload; a layer a
// workload does not exercise reads 0.
void FillMissing(Metrics* m) {
  static const std::pair<const char*, const char*> kAll[] = {
      {"net.switch_drops", "count"},
      {"net.ecn_marked", "count"},
      {"net.forwarding_misses", "count"},
      {"net.server_port_max_queue_bytes", "B"},
      {"net.wire_packets_per_request", "1/req"},
      {"net.responses_per_packet", "1/pkt"},
      {"net.impair_dropped", "count"},
      {"tcp.segments_per_request", "1/req"},
      {"tcp.pure_acks_per_request", "1/req"},
      {"tcp.delack_fires", "count"},
      {"tcp.nagle_holds", "count"},
      {"tcp.retransmits", "count"},
      {"tcp.sack_retransmits", "count"},
      {"tcp.rack_marked_lost", "count"},
      {"tcp.tlp_probes", "count"},
      {"tcp.rto_fires", "count"},
      {"tcp.spurious_loss_reverts", "count"},
      {"tcp.useful_byte_ratio", "ratio"},
      {"tcp.option_sheds", "count"},
      {"core.exchanges_per_sim_s", "1/s"},
      {"core.controller_switches", "count"},
      {"core.duty_cycle_on", "ratio"},
      {"core.health_demotions", "count"},
      {"core.time_in_static_ms", "ms"},
      {"cpu.server_app_util", "ratio"},
      {"cpu.server_softirq_util", "ratio"},
      {"cpu.client_app_util", "ratio"},
      {"apps.comp_request_leg_us", "us"},
      {"apps.comp_server_us", "us"},
      {"apps.comp_response_leg_us", "us"},
      {"apps.requests_completed", "count"},
  };
  for (const auto& [name, unit] : kAll) {
    const auto& all = m->all();
    const bool present = std::any_of(all.begin(), all.end(),
                                     [name = name](const Metric& x) { return x.name == name; });
    if (!present) {
      m->Set(name, 0, unit);
    }
  }
}

std::string ManifestJson(const Options& o, const Workload& w) {
  const std::string config = w.ConfigText();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %s, \"trace\": %d, "
      "\"smoke\": %s, \"config_hash\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %u, \"mem_total_kb\": %" PRIu64 ", \"mem_available_kb\": %" PRIu64
      ", \"shards\": %d, \"git_commit\": \"%s\"}",
      o.workload.c_str(), o.seed, Num(o.seconds).c_str(), o.trace, o.smoke ? "true" : "false",
      Hex(Fingerprint().Add(config).value()).c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), ReadProcKb("/proc/meminfo", "MemTotal"),
      ReadProcKb("/proc/meminfo", "MemAvailable"), w.shards(), JsonEscape(o.commit).c_str());
  return buf;
}

std::string MetricsJson(const Metrics& m) {
  std::string s = "{";
  for (size_t i = 0; i < m.all().size(); ++i) {
    const Metric& x = m.all()[i];
    s += (i == 0 ? "\"" : ", \"") + x.name + "\": {\"value\": " + Num(x.value) +
         ", \"unit\": \"" + x.unit + "\"}";
  }
  return s + "}";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper-rpc|lossy-bulk|fleet-16k> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>] "
               "[--smoke]\n",
               msg);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos || s.size() > 19) {
    return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0) {
      return Usage(("unexpected argument '" + arg + "'").c_str());
    }
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke" && arg != "--setup-only") {
      if (i + 1 >= argc) {
        return Usage(("missing value for " + arg).c_str());
      }
      value = argv[++i];
    }
    uint64_t n = 0;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &o.seed)) {
        return Usage("--seed takes a non-negative integer");
      }
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 3600) {
        return Usage("--seconds takes an integer in [1, 3600]");
      }
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      o.trace = value == "1" ? 1 : 0;
      have_trace = true;
    } else if (arg == "--out") {
      o.out_dir = value;
    } else if (arg == "--commit") {
      o.commit = value;
    } else if (arg == "--smoke" && eq == std::string::npos) {
      o.smoke = true;
    } else if (arg == "--setup-only" && eq == std::string::npos) {
      o.setup_only = true;
    } else {
      return Usage(("unknown flag '" + arg + "'").c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<Workload> w;
  if (o.workload == "paper-rpc") {
    w = std::make_unique<PaperRpc>(o.seed, o.smoke);
  } else if (o.workload == "lossy-bulk") {
    w = std::make_unique<LossyBulk>(o.seed, o.smoke);
  } else if (o.workload == "fleet-16k") {
    w = std::make_unique<Fleet16k>(o.seed, o.smoke, static_cast<int>(std::min(4u, nproc)));
  } else {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }

  if (o.setup_only) {
    std::printf("%s\n", Num(SetupPassSeconds(*w, nullptr)).c_str());
    return 0;
  }

  const std::string manifest = ManifestJson(o, *w);
  std::printf("manifest: %s\n", manifest.c_str());
  const std::string out_base =
      o.out_dir + "/perfbench-" + o.workload + "-trace" + std::to_string(o.trace);

  // Memory pre-flight: a fleet larger than the machine records why it was
  // skipped instead of being OOM-killed.
  const uint64_t projected = kProjectedBytesPerConn * static_cast<uint64_t>(w->connections());
  const uint64_t available = ReadProcKb("/proc/meminfo", "MemAvailable") * 1024;
  if (w->connections() > 1 && available > 0 && projected > available) {
    char reason[200];
    std::snprintf(reason, sizeof(reason),
                  "projected RSS %.0f MB exceeds MemAvailable %.0f MB", projected / 1048576.0,
                  available / 1048576.0);
    std::printf("skipped_reason: %s\n", reason);
    if (FILE* f = std::fopen((out_base + ".json").c_str(), "w")) {
      std::fprintf(f, "{\"manifest\": %s, \"skipped_reason\": \"%s\"}\n", manifest.c_str(),
                   reason);
      std::fclose(f);
    }
    return 3;
  }

  Metrics metrics;
  Checks checks;
  SpanLog spans;
  const double t0 = Now();
  if (o.trace == 0) {
    RunEndToEnd(*w, o, &metrics, &checks);
  } else {
    RunTraced(*w, &metrics, &checks, &spans);
    FillMissing(&metrics);
  }
  const double total_s = Now() - t0;

  for (const Metric& x : metrics.all()) {
    std::printf("  %-34s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  for (const std::string& f : checks.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("cells attempted %" PRIu64 ", failed %" PRIu64 ", host %.2f s\n",
              checks.attempted(), checks.failed(), total_s);

  if (FILE* f = std::fopen((out_base + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"manifest\": %s,\n \"checks\": [", manifest.c_str());
    for (size_t i = 0; i < checks.checks().size(); ++i) {
      std::fprintf(f, "%s\n  {\"check\": \"%s\", \"ok\": %s}", i == 0 ? "" : ",",
                   JsonEscape(checks.checks()[i].first).c_str(),
                   checks.checks()[i].second ? "true" : "false");
    }
    std::fprintf(f, "],\n \"failures\": [");
    for (size_t i = 0; i < checks.failures().size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", JsonEscape(checks.failures()[i]).c_str());
    }
    std::fprintf(f, "],\n \"metrics\": %s}\n", MetricsJson(metrics).c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", out_base.c_str());
  }
  if (o.trace == 1 && !spans.Write(out_base + "-spans.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s-spans.json\n", out_base.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              checks.correct() ? "true" : "false", checks.attempted(), checks.failed(),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return checks.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
