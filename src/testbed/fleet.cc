#include "src/testbed/fleet.h"

#include <cassert>
#include <chrono>
#include <memory>
#include <optional>

#include "src/apps/lancet.h"
#include "src/apps/redis_server.h"
#include "src/core/aggregator.h"
#include "src/core/policy.h"
#include "src/testbed/collector.h"

namespace e2e {

FabricConfig FleetExperimentConfig::DefaultFleetFabric(int num_clients) {
  FabricConfig fabric = FabricConfig::Star(num_clients, 1);
  fabric.client.stack_costs.tx_per_segment = Duration::MicrosF(2.0);
  fabric.client.stack_costs.doorbell = Duration::Nanos(300);
  fabric.server.stack_costs.tx_per_segment = Duration::MicrosF(12.0);
  fabric.server.stack_costs.doorbell = Duration::Nanos(300);
  return fabric;
}

FleetExperimentResult RunFleetExperiment(const FleetExperimentConfig& config) {
  const int n = config.fabric.num_clients;
  const int m = config.fabric.num_servers;
  assert(n >= 1 && m >= 1);
  assert(!config.client_profiles.empty());
  // collect_interval == 0 runs lean: no collectors, no online sampling.
  const bool lean = config.collect_interval == Duration::Zero();

  FabricTopology topo(config.fabric);
  Simulator& sim = topo.sim();
  CounterRegistry registry;
  if (!lean) {
    topo.ExportCounters(&registry);
  }

  TcpConfig client_tcp = RedisExperimentConfig::DefaultClientTcp();
  TcpConfig server_tcp = RedisExperimentConfig::DefaultServerTcp();
  client_tcp.e2e_exchange_interval = config.exchange_interval;
  server_tcp.e2e_exchange_interval = config.exchange_interval;
  server_tcp.nodelay = config.batch_mode != BatchMode::kStaticOn;
  client_tcp.cc.ecn = config.ecn;
  server_tcp.cc.ecn = config.ecn;
  server_tcp.cc.algorithm = config.server_cc;

  struct PerConnection {
    ConnectedPair conn;
    std::unique_ptr<RedisServerApp> server;
    std::unique_ptr<LancetClient> client;
    std::unique_ptr<CounterCollector> collector;
    int profile = 0;
    int server_index = 0;
  };
  std::vector<PerConnection> connections(static_cast<size_t>(n));

  for (int i = 0; i < n; ++i) {
    PerConnection& pc = connections[i];
    TcpConfig conn_client_tcp = client_tcp;
    if (!config.client_cc.empty()) {
      conn_client_tcp.cc.algorithm = config.client_cc[i % config.client_cc.size()];
    }
    pc.server_index = i % m;
    pc.conn = topo.Connect(i, pc.server_index, static_cast<uint64_t>(i + 1), conn_client_tcp,
                           server_tcp);
    pc.profile = i % static_cast<int>(config.client_profiles.size());

    RedisServerApp::Config server_config;
    server_config.costs = config.server_costs;
    pc.server = std::make_unique<RedisServerApp>(&sim, pc.conn.b, server_config);
    if (config.prefill_store) {
      for (uint64_t key = 0; key < config.mix.key_space; ++key) {
        pc.server->mutable_store().Set(key, config.mix.get_value_len);
      }
    }

    LancetClient::Config client_config;
    client_config.rate_rps = config.total_rate_rps / n;
    client_config.mix = config.mix;
    client_config.costs = config.client_profiles[pc.profile];
    client_config.warmup = config.warmup;
    client_config.measure = config.measure;
    // Keyed by host id, like the fabric's own streams: adding clients never
    // perturbs existing clients' arrival processes.
    client_config.seed = DeriveSeed(config.seed, kFleetSeedWorkload, static_cast<uint64_t>(i + 1));
    client_config.use_hints = config.client_hints;
    client_config.pipeline_depth = config.pipeline_depth;
    pc.client = std::make_unique<LancetClient>(&sim, pc.conn.a, client_config);

    if (!lean) {
      pc.collector = std::make_unique<CounterCollector>(&sim, pc.conn.a, pc.conn.b,
                                                        &pc.client->hints(),
                                                        config.collect_interval);
      if (i == 0) {
        // Fabric-wide state is sampled once, alongside connection 0.
        pc.collector->AttachImpairments(topo.c2s_impairment(0), topo.s2c_impairment(0));
        pc.collector->AttachRegistry(&registry);
      }
    }
  }

  // The server aggregates every connection's online estimate (§3.2) and —
  // in dynamic modes — drives one batching decision for all of them.
  EstimateAggregator aggregator;
  aggregator.SetStalenessBound(config.aggregator_staleness);
  for (PerConnection& pc : connections) {
    aggregator.AddSource(&pc.conn.b->estimator());
  }
  std::unique_ptr<ToggleController> toggle;
  std::unique_ptr<AimdBatchController> aimd;
  SloThroughputPolicy policy(config.slo);
  if (config.batch_mode == BatchMode::kDynamic) {
    toggle = std::make_unique<ToggleController>(config.controller, &policy,
                                                Rng(DeriveSeed(config.seed, kFleetSeedControl, 0)),
                                                /*initial_on=*/false);
  } else if (config.batch_mode == BatchMode::kAimd) {
    AimdBatchController::Config aimd_config = config.aimd;
    aimd_config.slo = config.slo;
    aimd = std::make_unique<AimdBatchController>(aimd_config);
  }

  const TimePoint start = sim.Now();
  const TimePoint measure_start = start + config.warmup;
  const TimePoint measure_end = measure_start + config.measure;
  const TimePoint run_end = measure_end + config.drain;

  std::function<void()> control_tick = [&] {
    std::optional<PerfSample> sample;
    const E2eEstimate aggregate = aggregator.Aggregate(sim.Now());
    if (aggregate.valid()) {
      sample = PerfSample{*aggregate.latency, aggregate.a_send_throughput};
    }
    if (toggle != nullptr) {
      const bool on = toggle->OnTick(sim.Now(), sample);
      for (PerConnection& pc : connections) {
        pc.conn.b->SetNoDelay(!on);
      }
    } else if (aimd != nullptr) {
      const double limit = aimd->OnTick(sim.Now(), sample);
      for (PerConnection& pc : connections) {
        pc.conn.b->SetNoDelay(false);
        pc.conn.b->SetCorkLimit(static_cast<uint32_t>(limit));
      }
    }
    sim.Schedule(config.controller.tick, control_tick);
  };
  if (toggle != nullptr || aimd != nullptr) {
    sim.Schedule(config.controller.tick, control_tick);
  }

  // Fleet-aggregate online estimate, sampled on the collector cadence.
  RunningStats online_est_us;
  std::function<void()> online_tick = [&] {
    const E2eEstimate aggregate = aggregator.Aggregate(sim.Now());
    if (aggregate.valid() && sim.Now() >= measure_start && sim.Now() < measure_end) {
      online_est_us.Add(aggregate.latency->ToMicros());
    }
    sim.Schedule(config.collect_interval, online_tick);
  };
  if (!lean) {
    sim.Schedule(config.collect_interval, online_tick);
  }

  for (int i = 0; i < n; ++i) {
    PerConnection& pc = connections[i];
    if (!lean) {
      pc.collector->Start(run_end);
    }
    pc.client->Start();
  }

  struct BusySnapshot {
    Duration server_app, server_softirq;
    std::vector<Duration> client_app;
  };
  const auto take_busy = [&] {
    BusySnapshot snap;
    for (int s = 0; s < m; ++s) {
      snap.server_app += topo.server_host(s).app_core().busy_time();
      snap.server_softirq += topo.server_host(s).softirq_core().busy_time();
    }
    for (int i = 0; i < n; ++i) {
      snap.client_app.push_back(topo.client_host(i).app_core().busy_time());
    }
    return snap;
  };
  BusySnapshot at_start{};
  sim.ScheduleAt(measure_start, [&] { at_start = take_busy(); });
  BusySnapshot at_end{};
  sim.ScheduleAt(measure_end, [&] { at_end = take_busy(); });

  // Optional aligned time-series. Sampling runs as global events, so every
  // domain's clock is synced when the gauges read cross-domain state.
  std::optional<TimeSeriesSampler> sampler;
  if (config.series_interval > Duration::Zero()) {
    sampler.emplace(&sim, config.series_interval);
    sampler->AddGauge("requests_completed", [&connections] {
      double total = 0;
      for (const PerConnection& pc : connections) {
        total += static_cast<double>(pc.client->results().completed);
      }
      return total;
    });
    sampler->AddGauge("switch_tail_drops",
                      [&topo] { return static_cast<double>(topo.total_switch_drops()); });
    const SwitchPort* bottleneck =
        topo.num_switches() > 0 ? topo.server_switch()->RouteFor(topo.server_host(0).id())
                                : nullptr;
    sampler->AddGauge("server_port_queue_bytes", [bottleneck] {
      return bottleneck != nullptr ? static_cast<double>(bottleneck->queue_bytes()) : 0.0;
    });
    sampler->Start(run_end);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t events_before = sim.events_fired();
  sim.RunUntil(run_end);
  const auto wall_end = std::chrono::steady_clock::now();

  // ---- Collect results ----
  FleetExperimentResult result;
  result.offered_krps = config.total_rate_rps / 1e3;
  result.events_fired = sim.events_fired() - events_before;
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  const Simulator::QueueOccupancy occupancy = sim.queue_occupancy();
  result.queue_peak_max = occupancy.peak_max;
  result.queue_peak_mean = occupancy.peak_mean;
  result.queue_domains = occupancy.domains;
  if (sampler.has_value()) {
    result.series = std::make_shared<const TimeSeries>(sampler->TakeSeries());
  }

  RunningStats latency_us;
  LogHistogram latency_hist{0.1, 1e9, 100};
  std::vector<E2eEstimate> estimates;
  for (int i = 0; i < n; ++i) {
    PerConnection& pc = connections[i];
    const LancetClient::Results& lancet = pc.client->results();
    latency_us.Merge(lancet.latency_us);
    latency_hist.Merge(lancet.latency_hist);

    FleetConnectionResult cr;
    cr.client = i;
    cr.profile = pc.profile;
    cr.offered_krps = config.total_rate_rps / n / 1e3;
    cr.achieved_krps = lancet.achieved_rps / 1e3;
    cr.measured_mean_us = lancet.latency_us.mean();
    cr.measured_p99_us = lancet.latency_hist.Percentile(99);
    cr.requests_completed = lancet.measured;
    cr.retransmits = pc.conn.a->stats().retransmits + pc.conn.b->stats().retransmits;

    if (!lean) {
      const E2eEstimate est =
          pc.collector->EstimateWindow(UnitMode::kBytes, measure_start, measure_end);
      estimates.push_back(est);
      if (est.latency.has_value()) {
        cr.est_bytes_us = est.latency->ToMicros();
      }
    }

    result.achieved_krps += cr.achieved_krps;
    result.requests_completed += cr.requests_completed;
    result.retransmits += cr.retransmits;
    result.connections.push_back(cr);
  }
  result.measured_mean_us = latency_us.mean();
  result.measured_p50_us = latency_hist.Percentile(50);
  result.measured_p99_us = latency_hist.Percentile(99);

  const E2eEstimate fleet_est = AverageEstimates(estimates.data(), estimates.size());
  if (fleet_est.latency.has_value()) {
    result.fleet_est_bytes_us = fleet_est.latency->ToMicros();
  }
  if (online_est_us.count() > 0) {
    result.online_est_us = online_est_us.mean();
  }

  const double window_sec = config.measure.ToSeconds();
  result.server_app_util =
      (at_end.server_app - at_start.server_app).ToSeconds() / window_sec / m;
  result.server_softirq_util =
      (at_end.server_softirq - at_start.server_softirq).ToSeconds() / window_sec / m;
  double client_util_sum = 0;
  for (int i = 0; i < n; ++i) {
    client_util_sum +=
        (at_end.client_app[i] - at_start.client_app[i]).ToSeconds() / window_sec;
  }
  result.mean_client_app_util = client_util_sum / n;

  result.switch_tail_drops = topo.total_switch_drops();
  result.switch_ecn_marked = topo.total_ecn_marked();
  result.forwarding_misses = topo.total_forwarding_misses();
  for (size_t s = 0; s < topo.num_switches(); ++s) {
    Switch& sw = topo.fabric_switch(s);
    for (size_t p = 0; p < sw.num_ports(); ++p) {
      result.port_stats.emplace_back(sw.port(p).name(), sw.port(p).counters());
    }
  }
  if (topo.num_switches() > 0) {
    const SwitchPort* server_port =
        topo.server_switch()->RouteFor(topo.server_host(0).id());
    if (server_port != nullptr) {
      result.server_port_max_queue_bytes = server_port->counters().max_queue_bytes;
      result.server_port_max_queue_packets = server_port->counters().max_queue_packets;
    }
  }

  if (!lean) {
    const CounterRegistry::Values window =
        connections[0].collector->RegistryWindow(measure_start, measure_end);
    for (size_t e = 0; e < window.size(); ++e) {
      FleetExperimentResult::EntityCounters counters;
      const std::vector<std::string>& names = registry.counter_names(e);
      for (size_t c = 0; c < names.size(); ++c) {
        counters.emplace_back(names[c], window[e][c]);
      }
      result.fabric_window.emplace_back(registry.entity_name(e), std::move(counters));
    }
  }
  return result;
}

}  // namespace e2e
