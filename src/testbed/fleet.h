// Fleet-scale experiment driver: N Lancet clients, each on its own host
// with its own (possibly heterogeneous) cost profile, drive one Redis-like
// server over independent TCP connections through a switched fabric
// (src/testbed/fabric_topology.h). Every connection runs its own counter
// collector and wire estimator; the server feeds all of them into the
// existing multi-connection EstimateAggregator (paper §3.2), and the result
// reports per-connection and fleet-aggregate estimated vs measured latency
// plus fabric health: switch queue occupancy, tail drops, ECN marks.
//
// This is the scale-out companion of RunRedisExperiment (one topology, many
// connections): here each connection also gets its own host, NIC, uplink,
// and switch port, so shared-bottleneck queueing at the server's downlink
// port — invisible in the two-host setup — shows up in both the ground
// truth and the estimates.

#ifndef SRC_TESTBED_FLEET_H_
#define SRC_TESTBED_FLEET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/cost_profile.h"
#include "src/apps/workload.h"
#include "src/core/aimd.h"
#include "src/core/controller.h"
#include "src/obs/timeseries.h"
#include "src/testbed/experiment.h"
#include "src/testbed/fabric_topology.h"

namespace e2e {

// DeriveSeed domains for fleet-level randomness (the fabric's own domains
// are 1..5; see fabric_topology.h).
inline constexpr uint64_t kFleetSeedWorkload = 16;  // index = client host id.
inline constexpr uint64_t kFleetSeedControl = 17;   // index = 0.

struct FleetExperimentConfig {
  // Topology; num_clients is the fleet size. Connection i lands on server
  // i % num_servers (with one server — the default — exactly the historical
  // single-server wiring).
  FabricConfig fabric = DefaultFleetFabric(4);

  double total_rate_rps = 40000;  // Split evenly across clients.
  BatchMode batch_mode = BatchMode::kStaticOff;
  WorkloadMix mix = WorkloadMix::SetOnly16K();

  // Per-client app cost profiles, cycled: client i uses
  // profiles[i % profiles.size()]. The default mixes bare-metal and VM
  // clients, the paper's two client configurations.
  std::vector<AppCosts> client_profiles = {BareMetalClientCosts(), VmClientCosts()};
  AppCosts server_costs = RedisServerCosts();

  // Congestion control, per endpoint: client i runs
  // client_cc[i % client_cc.size()] (Reno when the list is empty); the
  // server side runs server_cc. `ecn` enables CE echo + CWR signalling on
  // every endpoint — pair it with a fabric whose bottleneck port sets
  // `ecn_threshold_bytes`, or the marks never happen.
  std::vector<CcAlgorithm> client_cc;
  CcAlgorithm server_cc = CcAlgorithm::kReno;
  bool ecn = false;

  Duration warmup = Duration::Millis(100);
  Duration measure = Duration::Millis(400);
  Duration drain = Duration::Millis(50);
  // Zero runs *lean*: no per-connection collectors, no online-estimate
  // sampling, no fabric counter window — the mode the 100k+-connection
  // scaling cells use, where per-connection observers would dominate both
  // memory and event count. Offline estimate fields stay empty.
  Duration collect_interval = Duration::Millis(1);
  uint64_t seed = 1;
  bool prefill_store = true;
  bool client_hints = true;
  int pipeline_depth = 1;

  // Controller parameters (kDynamic / kAimd), applied to every connection
  // and driven by the fleet-aggregate estimate.
  ControllerConfig controller;
  Duration slo = Duration::Micros(500);
  AimdBatchController::Config aimd;

  Duration exchange_interval = Duration::Millis(1);
  // Connections whose last accepted exchange is older than this drop out
  // of the fleet-aggregate estimate instead of freezing it (aggregator.h).
  Duration aggregator_staleness = Duration::Millis(10);

  // > 0 samples fleet gauges (completed requests, switch drops, bottleneck
  // queue depth) every `series_interval` and the result carries the aligned
  // series. Sampling is read-only, so attaching it never changes what a
  // same-seed run computes — but the sampler's own events do shift engine
  // event counts, so callers comparing raw output bytes re-run with the
  // series rather than folding it into the main pass (bench/fleet_sweep).
  Duration series_interval = Duration::Zero();

  // A star fabric with the DESIGN.md §5 stack calibration (same per-segment
  // costs as RedisExperimentConfig::DefaultRedisTopology; the two 1.5 µs
  // edge hops reproduce the two-host link's 3 µs end-to-end propagation).
  static FabricConfig DefaultFleetFabric(int num_clients);
};

// One connection = one client host.
struct FleetConnectionResult {
  int client = 0;          // Client index (host id = client + 1).
  int profile = 0;         // Index into client_profiles.
  double offered_krps = 0;
  double achieved_krps = 0;
  double measured_mean_us = 0;
  double measured_p99_us = 0;
  // Offline byte-mode window estimate for this connection alone.
  std::optional<double> est_bytes_us;
  uint64_t requests_completed = 0;
  uint64_t retransmits = 0;  // Both endpoints of the connection.

  std::optional<double> EstimateErrorPct() const {
    if (!est_bytes_us.has_value() || measured_mean_us <= 0) {
      return std::nullopt;
    }
    return (*est_bytes_us - measured_mean_us) / measured_mean_us * 100.0;
  }
};

struct FleetExperimentResult {
  double offered_krps = 0;
  double achieved_krps = 0;
  // Ground truth pooled across every connection, measurement window only.
  double measured_mean_us = 0;
  double measured_p50_us = 0;
  double measured_p99_us = 0;
  // Fleet-aggregate offline estimate: AverageEstimates over the
  // per-connection byte-mode window estimates (§3.2's multi-connection
  // combination). Empty when no window was valid.
  std::optional<double> fleet_est_bytes_us;
  // Mean of the server-side EstimateAggregator's online (wire-exchanged)
  // aggregate sampled every collect_interval over the window.
  std::optional<double> online_est_us;

  uint64_t requests_completed = 0;
  uint64_t retransmits = 0;  // All endpoints.

  // Fabric health, whole run.
  uint64_t switch_tail_drops = 0;
  uint64_t switch_ecn_marked = 0;
  uint64_t forwarding_misses = 0;
  // High-water occupancy of the server's downlink port — the shared
  // bottleneck queue (0 when the fabric has no switch).
  uint64_t server_port_max_queue_bytes = 0;
  uint64_t server_port_max_queue_packets = 0;

  // CPU utilization over the window, [0, 1]. Server figures average across
  // server hosts (one server: exactly that host).
  double server_app_util = 0;
  double server_softirq_util = 0;
  double mean_client_app_util = 0;  // Averaged across client hosts.

  // Engine cost of the run: simulator events executed and coordinator wall
  // time, for events/sec scaling curves (bench/engine_perf).
  uint64_t events_fired = 0;
  double wall_seconds = 0;

  // Per-domain event-queue occupancy high-water marks (Simulator
  // ::queue_occupancy): max and mean of each domain's peak live-event
  // count, plus the domain count (1 on kDirect, whose only queue is the
  // global one).
  uint64_t queue_peak_max = 0;
  double queue_peak_mean = 0;
  uint64_t queue_domains = 0;

  // Aligned gauge samples; non-null iff config.series_interval > 0.
  std::shared_ptr<const TimeSeries> series;

  std::vector<FleetConnectionResult> connections;

  // Whole-run switch-port counters in port registration order, labeled
  // "<switch>.<host>" (feed to SwitchPortsTable or JSON).
  std::vector<std::pair<std::string, SwitchPort::Counters>> port_stats;

  // Measurement-window fabric counter deltas, materialized from the
  // topology's CounterRegistry: entity name -> ordered (counter, delta)
  // pairs covering every NIC, link, and switch port.
  using EntityCounters = std::vector<std::pair<std::string, uint64_t>>;
  std::vector<std::pair<std::string, EntityCounters>> fabric_window;

  std::optional<double> FleetEstimateErrorPct() const {
    if (!fleet_est_bytes_us.has_value() || measured_mean_us <= 0) {
      return std::nullopt;
    }
    return (*fleet_est_bytes_us - measured_mean_us) / measured_mean_us * 100.0;
  }
};

FleetExperimentResult RunFleetExperiment(const FleetExperimentConfig& config);

}  // namespace e2e

#endif  // SRC_TESTBED_FLEET_H_
