// Diagnosis experiment drivers (DESIGN.md §14): validates the in-switch
// FlowDiagnoser (src/net/fabric/diag) against simulator ground truth, and
// quantifies what the diag signal buys the estimator-health fallback chain.
//
// Two drivers:
//
//   RunDiagnosisValidation  bulk/paced flows over a dumbbell or star fabric
//       engineered so the *true* binding constraint is known by
//       construction (network-bound, receiver-bound, or sender-paced). A
//       ground-truth labeler samples each sender's real cwnd / rwnd /
//       flight / recovery state (directly readable in-sim) on a fine grid,
//       reduces each diagnosis epoch to a majority label, and scores the
//       diagnoser's per-epoch verdicts against it: classification accuracy,
//       a full confusion matrix, per-limit dwell fractions, and inferred-
//       vs-true cwnd/RTT error.
//
//   RunDiagnosisFallback  the health-chain A/B: one Lancet client drives a
//       Redis server through a star fabric while scripted kMetaWithhold
//       windows kill the metadata channel. Both arms attach the diagnoser
//       (passive, so traffic is byte-identical); only `use_diag` wires
//       FlowDiagnoser::Fresh into EstimatorHealth::SetDiagSignal. With the
//       signal, a withhold bottoms out at kDiagAssisted (controller keeps
//       the local-only estimate); without it the chain freezes at kStatic.
//       The result reports frozen/diag dwell inside the withhold windows —
//       the bench asserts the diag arm strictly reduces frozen dwell.
//
// Both drivers schedule only plain simulator callbacks (pacing, sampling,
// epoch polls); the diagnoser itself stays passive per its SwitchTap
// contract.

#ifndef SRC_TESTBED_DIAGNOSIS_DIAGNOSIS_H_
#define SRC_TESTBED_DIAGNOSIS_DIAGNOSIS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/cost_profile.h"
#include "src/apps/workload.h"
#include "src/core/controller.h"
#include "src/core/health.h"
#include "src/net/fabric/diag/flow_diag.h"
#include "src/obs/timeseries.h"
#include "src/tcp/cc/congestion_control.h"
#include "src/testbed/fabric_topology.h"
#include "src/testbed/faults/fault_schedule.h"
#include "src/testbed/faults/injector.h"

namespace e2e {

// What the scenario is engineered to make true, i.e. the expected majority
// ground-truth label. The validation result does not assume it — truth is
// sampled from the endpoints — but scenario construction targets it.
enum class DiagScenario : uint8_t {
  kNetworkBound = 0,  // Bulk flows into an undersized bottleneck.
  kReceiverBound,     // Bulk flows throttled by a tiny receive buffer.
  kSenderPaced,       // Application sends far below every other limit.
};
inline constexpr int kNumDiagScenarios = 3;

const char* DiagScenarioName(DiagScenario scenario);

struct DiagnosisValidationConfig {
  DiagScenario scenario = DiagScenario::kNetworkBound;
  // kDumbbell: trunk bottleneck. kStar: the server downlink port is the
  // bottleneck (the incast regime when buffer_bytes is small).
  FabricShape shape = FabricShape::kDumbbell;
  int num_flows = 4;
  CcAlgorithm algorithm = CcAlgorithm::kReno;
  bool ecn = false;

  double bottleneck_bps = 10e9;          // Dumbbell trunk rate.
  double edge_bps = 100e9;               // Star edge-link rate.
  Duration trunk_propagation = Duration::MicrosF(50.0);
  size_t buffer_bytes = 256 * 1024;      // Bottleneck port buffer.
  size_t ecn_threshold_bytes = 0;        // 0 = no marking.
  size_t sndbuf_bytes = 8 * 1024 * 1024;
  size_t rcvbuf_bytes = 8 * 1024 * 1024;
  uint32_t chunk_bytes = 64 * 1024;      // Bulk-pump write size.

  // kSenderPaced: every flow writes `paced_chunk_bytes` each
  // `paced_interval` instead of running the bulk pump.
  Duration paced_interval = Duration::Micros(200);
  uint32_t paced_chunk_bytes = 4096;

  Duration warmup = Duration::Millis(20);
  Duration measure = Duration::Millis(200);
  uint64_t seed = 1;

  DiagConfig diag;                       // Diagnoser under test.
  Duration truth_sample = Duration::Micros(100);
  // When > 0, records aligned inferred-vs-true gauges for flow 0 (cwnd,
  // RTT, flight, verdict) plus the bottleneck queue. The gauges only read,
  // but the sampler's global events can shift the order of same-instant
  // events, so callers comparing output bytes take the series from a
  // separate run (bench/diagnosis_sweep).
  Duration series_interval = Duration::Zero();

  // Scenario presets: picks flows, buffers, and diag knobs so the intended
  // limit actually binds on the given shape/CC. Fields stay overridable.
  static DiagnosisValidationConfig For(DiagScenario scenario, FabricShape shape,
                                       CcAlgorithm algorithm);
};

struct DiagnosisValidationResult {
  // Per-epoch classification score. An epoch is compared when the
  // diagnoser closed it exactly at the poll boundary with a non-idle
  // verdict and ground truth sampled at least once inside it.
  uint64_t epochs_compared = 0;
  uint64_t epochs_correct = 0;
  uint64_t epochs_idle_skipped = 0;  // Diagnoser said idle (not scored).
  double accuracy = 0;               // correct / compared (0 if none).
  // confusion[truth][inferred], kNumFlowLimits^2; truth row kIdle unused.
  uint64_t confusion[kNumFlowLimits][kNumFlowLimits] = {};
  // Fraction of compared epochs the diagnoser spent in each limit.
  double inferred_dwell[kNumFlowLimits] = {};
  double truth_dwell[kNumFlowLimits] = {};

  // Inference quality, sampled on the truth grid (flow-averaged).
  double mean_true_cwnd_bytes = 0;
  double mean_inferred_cwnd_bytes = 0;
  double cwnd_err_pct = 0;  // Mean |inferred-true|/true over samples.
  double mean_true_srtt_us = 0;
  double mean_inferred_srtt_us = 0;
  double rtt_err_pct = 0;
  uint64_t rtt_samples = 0;  // Diagnoser probe samples, all flows.

  // Aggregate diagnoser evidence (all flows, whole run).
  uint64_t diag_retransmits = 0;
  uint64_t diag_drops = 0;
  uint64_t diag_ce_marked = 0;
  uint64_t diag_ece_acks = 0;
  uint64_t diag_zero_window_acks = 0;
  uint64_t true_retransmits = 0;  // Endpoint-reported, for cross-checking.
  uint64_t non_tcp_packets = 0;
  uint64_t untracked_packets = 0;

  double aggregate_goodput_bps = 0;

  // Cumulative per-egress-port classified-epoch tallies.
  std::vector<std::pair<std::string, FlowDiagnoser::PortTally>> port_tallies;

  // Non-null iff config.series_interval > 0.
  std::shared_ptr<const TimeSeries> series;
};

DiagnosisValidationResult RunDiagnosisValidation(const DiagnosisValidationConfig& config);

struct DiagnosisFallbackConfig {
  // The A/B bit: wire FlowDiagnoser::Fresh into the health chain?
  bool use_diag = true;

  double rate_rps = 20000;
  WorkloadMix mix = WorkloadMix::SetOnly16K();
  AppCosts client_costs = BareMetalClientCosts();
  AppCosts server_costs = RedisServerCosts();

  Duration warmup = Duration::Millis(100);
  Duration measure = Duration::Millis(400);
  Duration drain = Duration::Millis(50);
  uint64_t seed = 1;
  bool prefill_store = true;
  bool client_hints = true;

  ControllerConfig controller;
  Duration slo = Duration::Micros(500);
  Duration exchange_interval = Duration::Millis(1);
  HealthConfig health;
  DiagConfig diag;

  // kMetaWithhold windows, measured from sim start: `withhold_count`
  // windows of `withhold_duration`, the first at `withhold_start`, spaced
  // `withhold_period` apart. Withholds must be longer than
  // health.static_after for the no-diag arm to freeze at all.
  Duration withhold_start = Duration::Millis(150);
  Duration withhold_duration = Duration::Millis(100);
  Duration withhold_period = Duration::Millis(200);
  int withhold_count = 2;

  // When > 0, records health state / frozen flag / diag freshness gauges.
  Duration series_interval = Duration::Zero();
};

struct DiagnosisFallbackResult {
  double offered_krps = 0;
  double achieved_krps = 0;
  double measured_mean_us = 0;
  double measured_p99_us = 0;
  uint64_t requests_completed = 0;

  uint64_t ticks = 0;          // Control ticks in the measure window.
  uint64_t frozen_ticks = 0;   // Ticks with the controller frozen.
  uint64_t non_finite_samples = 0;  // Must be zero; bench asserts.

  // Health-chain dwell over the whole run.
  double time_in_full_ms = 0;
  double time_in_local_ms = 0;
  double time_in_diag_ms = 0;
  double time_in_static_ms = 0;
  // Dwell intersected with the scheduled withhold windows — the A/B's
  // headline: diag-assisted mode exists to keep this out of kStatic.
  double static_in_withhold_ms = 0;
  double diag_in_withhold_ms = 0;
  double withhold_total_ms = 0;

  HealthCounters health;
  FaultCounters faults;
  uint64_t diag_data_packets = 0;  // Diagnoser's view of the tapped flow.
  uint64_t diag_rtt_samples = 0;

  std::shared_ptr<const TimeSeries> series;
};

DiagnosisFallbackResult RunDiagnosisFallback(const DiagnosisFallbackConfig& config);

}  // namespace e2e

#endif  // SRC_TESTBED_DIAGNOSIS_DIAGNOSIS_H_
