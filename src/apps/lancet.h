// A Lancet-like open-loop load generator with exact latency measurement.
//
// Requests arrive as a Poisson process at a configured rate regardless of
// completions (open loop — queueing delays are visible, not masked). Every
// response records its ground-truth latency on the virtual clock; results
// are filtered to a measurement window after warmup. The client maintains
// an application HintTracker (create() at request creation, complete() when
// the response has been processed) that the stack shares with the server —
// the paper's §3.3 cooperative path.

#ifndef SRC_APPS_LANCET_H_
#define SRC_APPS_LANCET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/apps/cost_profile.h"
#include "src/apps/messages.h"
#include "src/apps/workload.h"
#include "src/core/hints.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/tcp/endpoint.h"

namespace e2e {

class LancetClient {
 public:
  struct Config {
    double rate_rps = 10000;
    WorkloadMix mix = WorkloadMix::SetOnly16K();
    AppCosts costs = BareMetalClientCosts();
    Duration warmup = Duration::Millis(200);
    Duration measure = Duration::Millis(800);
    uint64_t seed = 1;
    bool use_hints = true;
    // Syscall batching (paper §3.3's caveat): coalesce up to this many
    // requests into one send() call; a partial batch flushes after
    // `pipeline_flush`. Depth 1 = one syscall per request.
    int pipeline_depth = 1;
    Duration pipeline_flush = Duration::Micros(100);
    // Crash recovery: when enabled and the supervisor reports the
    // connection lost (OnConnectionLost), the client retries connecting
    // with exponential backoff. Each attempt waits
    // backoff * (1 ± jitter), then backoff *= multiplier up to
    // max_backoff. Arrivals while disconnected fail immediately (open
    // loop: a real load generator's connect() would fail fast, not queue).
    struct ReconnectPolicy {
      bool enabled = false;
      Duration initial_backoff = Duration::Millis(1);
      Duration max_backoff = Duration::Millis(64);
      double multiplier = 2.0;
      double jitter = 0.2;  // Fractional spread around the nominal backoff.
    };
    ReconnectPolicy reconnect;
    // Self-detect silent peer death from the transport's own dead-peer
    // declaration (keepalive R2 / rto_give_up — DESIGN.md §15) instead of
    // relying on a supervisor's OnConnectionLost call. Off by default so
    // the faults harness's scripted crash choreography is unchanged; the
    // endpoint's detectors must also be enabled for anything to fire.
    bool detect_dead_peer = false;
  };

  LancetClient(Simulator* sim, TcpEndpoint* socket, const Config& config);

  // Begins generating load at the current virtual time. Arrivals stop after
  // warmup + measure; run the simulator a bit longer to drain responses.
  void Start();

  // Supplies the dial-out path for crash recovery: returns a freshly
  // connected endpoint (a *new* connection incarnation — never the old
  // conn_id, whose stale in-flight segments must keep missing) or nullptr
  // while the server is still down.
  using ConnectFn = std::function<TcpEndpoint*()>;
  void SetConnectFn(ConnectFn fn) { connect_fn_ = std::move(fn); }

  // Supervisor notification that the transport died (server crash). Fails
  // the pipeline and all in-flight requests (completing their hints so the
  // shared tracker's occupancy doesn't leak) and, if reconnect is enabled
  // and a ConnectFn is set, starts the backoff loop.
  void OnConnectionLost();

  // Observes every completed response as (completion time, latency µs),
  // including outside the measurement window — lets a driver bucket
  // latency into pre-crash / degraded / post-recovery phases.
  using LatencyObserver = std::function<void(TimePoint, double)>;
  void SetLatencyObserver(LatencyObserver fn) { latency_observer_ = std::move(fn); }

  bool connected() const { return !disconnected_; }

  struct Results {
    RunningStats latency_us;     // send() -> response read (ground truth).
    LogHistogram latency_hist{0.1, 1e9, 100};  // In microseconds.
    RunningStats sojourn_us;     // arrival -> response fully processed.
    // Component decomposition of the measured latency (all µs):
    RunningStats request_leg_us;   // send() -> server starts processing.
    RunningStats server_us;        // server processing incl. send syscall.
    RunningStats response_leg_us;  // server send() -> response read.
    uint64_t sent = 0;           // All requests sent (incl. outside window).
    uint64_t dropped = 0;        // Sends refused by a full socket buffer.
    uint64_t completed = 0;      // All responses processed.
    uint64_t measured = 0;       // Responses counted in the window.
    double offered_rps = 0;
    double achieved_rps = 0;     // Measured completions / window.
    // Crash recovery accounting:
    uint64_t failed_disconnected = 0;  // Arrivals failed while disconnected.
    uint64_t abandoned_on_crash = 0;   // In-flight/pipelined at loss time.
    uint64_t reconnect_attempts = 0;   // Dial-outs tried (incl. failures).
    uint64_t reconnects = 0;           // Successful reconnections.
    uint64_t transport_death_detections = 0;  // Self-detected via DeadPeerFn.
  };
  const Results& results() const { return results_; }

  HintTracker& hints() { return hints_; }
  uint64_t in_flight() const { return in_flight_; }

 private:
  void ScheduleNextArrival();
  void OnArrival();
  void FlushPipeline();
  void ScheduleReceiveWork();
  bool InMeasureWindow(TimePoint created) const;
  void BindSocket(TcpEndpoint* socket);
  void ScheduleReconnectAttempt();
  void TryReconnect();
  // Schedules `cb` after `delay` in the domain of the socket's host: the
  // generator lives with its endpoint, whichever context started it.
  EventId ScheduleOnHost(Duration delay, Simulator::Callback cb);

  Simulator* sim_;
  TcpEndpoint* socket_;
  Config config_;
  WorkloadGenerator workload_;
  Rng rng_;
  HintTracker hints_;

  TimePoint start_time_;
  TimePoint arrivals_end_;
  TimePoint measure_start_;
  TimePoint measure_end_;
  bool started_ = false;

  bool recv_pending_ = false;
  std::vector<AppResponsePtr> recv_batch_;
  TimePoint recv_syscall_time_;

  std::vector<AppRequestPtr> pipeline_;  // Requests awaiting one send().
  EventId pipeline_timer_ = kInvalidEventId;

  uint64_t in_flight_ = 0;
  Results results_;

  ConnectFn connect_fn_;
  LatencyObserver latency_observer_;
  bool disconnected_ = false;
  Duration backoff_ = Duration::Zero();  // Next attempt's nominal wait.
  // Bumped on every connection loss. CPU work submitted before the loss
  // checks it on completion: the crash already wrote off those requests
  // (hints completed, in_flight_ zeroed), so a stale work item must not
  // account them a second time.
  uint64_t epoch_ = 0;
};

}  // namespace e2e

#endif  // SRC_APPS_LANCET_H_
