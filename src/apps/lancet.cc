#include "src/apps/lancet.h"

#include <cassert>
#include <utility>

namespace e2e {

LancetClient::LancetClient(Simulator* sim, TcpEndpoint* socket, const Config& config)
    : sim_(sim),
      socket_(socket),
      config_(config),
      workload_(config.mix, Rng(config.seed)),
      rng_(config.seed ^ 0x9e3779b97f4a7c15ULL),
      hints_(sim->Now()) {
  assert(sim_ != nullptr && socket_ != nullptr);
  assert(config_.rate_rps > 0);
  BindSocket(socket_);
}

void LancetClient::BindSocket(TcpEndpoint* socket) {
  assert(socket != nullptr);
  socket_ = socket;
  socket_->SetReadableCallback([this] { ScheduleReceiveWork(); });
  if (config_.use_hints) {
    socket_->SetHintTracker(&hints_);
  }
  if (config_.detect_dead_peer) {
    // Re-attached on every reconnect incarnation: a restarted server can
    // die silently too.
    socket_->SetDeadPeerCallback([this](const char*) {
      ++results_.transport_death_detections;
      OnConnectionLost();
    });
  }
}

EventId LancetClient::ScheduleOnHost(Duration delay, Simulator::Callback cb) {
  return sim_->ScheduleCrossAt(socket_->host()->domain(), sim_->Now() + delay, std::move(cb));
}

void LancetClient::OnConnectionLost() {
  if (disconnected_) {
    return;
  }
  ++epoch_;
  disconnected_ = true;
  // Write off everything outstanding: pipelined requests that never hit
  // send(), bytes in the dead socket, and responses that will never come
  // back. Their hints complete now or the shared tracker's occupancy
  // (and so the paper's §3.3 queue estimate) would grow without bound.
  results_.abandoned_on_crash += in_flight_;
  hints_.Complete(sim_->Now(), static_cast<int64_t>(in_flight_));
  in_flight_ = 0;
  pipeline_.clear();
  if (pipeline_timer_ != kInvalidEventId) {
    sim_->Cancel(pipeline_timer_);
    pipeline_timer_ = kInvalidEventId;
  }
  if (config_.reconnect.enabled && connect_fn_) {
    backoff_ = config_.reconnect.initial_backoff;
    ScheduleReconnectAttempt();
  }
}

void LancetClient::ScheduleReconnectAttempt() {
  const double spread =
      1.0 + config_.reconnect.jitter * (2.0 * rng_.Uniform01() - 1.0);
  const Duration wait = Duration::MicrosF(backoff_.ToMicros() * spread);
  ScheduleOnHost(wait, [this] { TryReconnect(); });
}

void LancetClient::TryReconnect() {
  if (!disconnected_) {
    return;
  }
  ++results_.reconnect_attempts;
  TcpEndpoint* fresh = connect_fn_();
  if (fresh == nullptr) {
    // Server still down: back off exponentially (jittered), capped.
    const Duration next =
        Duration::MicrosF(backoff_.ToMicros() * config_.reconnect.multiplier);
    backoff_ = next < config_.reconnect.max_backoff ? next : config_.reconnect.max_backoff;
    ScheduleReconnectAttempt();
    return;
  }
  BindSocket(fresh);
  disconnected_ = false;
  ++results_.reconnects;
  backoff_ = config_.reconnect.initial_backoff;
}

void LancetClient::Start() {
  assert(!started_);
  started_ = true;
  start_time_ = sim_->Now();
  measure_start_ = start_time_ + config_.warmup;
  measure_end_ = measure_start_ + config_.measure;
  arrivals_end_ = measure_end_;
  results_.offered_rps = config_.rate_rps;
  ScheduleNextArrival();
}

bool LancetClient::InMeasureWindow(TimePoint created) const {
  return created >= measure_start_ && created < measure_end_;
}

void LancetClient::ScheduleNextArrival() {
  const Duration gap = rng_.ExpInterarrival(config_.rate_rps);
  ScheduleOnHost(gap, [this] {
    if (sim_->Now() >= arrivals_end_) {
      return;
    }
    OnArrival();
    ScheduleNextArrival();
  });
}

void LancetClient::OnArrival() {
  if (disconnected_) {
    // Open loop, honestly: while the server is down a real generator's
    // requests fail fast — they are not queued for replay after reconnect.
    ++results_.failed_disconnected;
    return;
  }
  auto request = std::make_shared<AppRequest>(workload_.Next());
  request->key_id = workload_.NextKeyId();
  request->created_at = sim_->Now();
  hints_.Create(sim_->Now());
  ++in_flight_;

  pipeline_.push_back(std::move(request));
  if (static_cast<int>(pipeline_.size()) >= config_.pipeline_depth) {
    if (pipeline_timer_ != kInvalidEventId) {
      sim_->Cancel(pipeline_timer_);
      pipeline_timer_ = kInvalidEventId;
    }
    FlushPipeline();
  } else if (pipeline_timer_ == kInvalidEventId) {
    pipeline_timer_ = ScheduleOnHost(config_.pipeline_flush, [this] {
      pipeline_timer_ = kInvalidEventId;
      FlushPipeline();
    });
  }
}

void LancetClient::FlushPipeline() {
  if (pipeline_.empty()) {
    return;
  }
  auto batch = std::make_shared<std::vector<AppRequestPtr>>(std::move(pipeline_));
  pipeline_.clear();
  socket_->host()->app_core().Submit(
      [this, batch]() -> Duration {
        // Build every request, pay ONE send() syscall for the batch.
        Duration cost = config_.costs.syscall;
        for (const AppRequestPtr& request : *batch) {
          cost += config_.costs.MessageCost(request->WireSize());
        }
        return cost;
      },
      [this, batch, epoch = epoch_] {
        if (epoch != epoch_) {
          // Connection died while this send was queued on the app core;
          // the crash path already wrote these requests off.
          return;
        }
        if (config_.use_hints) {
          socket_->SetHintTracker(&hints_);
        }
        std::vector<TcpEndpoint::BatchItem> items(batch->size());
        for (size_t i = 0; i < batch->size(); ++i) {
          AppRequestPtr& request = (*batch)[i];
          request->sent_at = sim_->Now();
          items[i].len = request->WireSize();
          items[i].record.id = request->id;
          items[i].record.data = request;
        }
        if (socket_->SendBatch(std::move(items))) {
          results_.sent += batch->size();
        } else {
          // Socket buffer full (the connection is saturated past flow
          // control). Open loop: the requests are abandoned, not retried.
          results_.dropped += batch->size();
          for (size_t i = 0; i < batch->size(); ++i) {
            if (in_flight_ > 0) {
              --in_flight_;
            }
            hints_.Complete(sim_->Now());
          }
        }
      });
}

void LancetClient::ScheduleReceiveWork() {
  if (recv_pending_) {
    return;
  }
  recv_pending_ = true;
  socket_->host()->app_core().Submit(
      [this]() -> Duration {
        recv_syscall_time_ = sim_->Now();
        TcpEndpoint::RecvResult received = socket_->Recv();
        recv_batch_.clear();
        Duration cost = config_.costs.wakeup + config_.costs.syscall;
        for (MessageRecord& record : received.messages) {
          auto response = std::static_pointer_cast<AppResponse>(record.data);
          cost += config_.costs.MessageCost(response->WireSize());
          recv_batch_.push_back(std::move(response));
        }
        return cost;
      },
      [this, epoch = epoch_] {
        if (epoch != epoch_) {
          // These responses raced the crash; their requests were already
          // written off (hints completed), so don't account them twice.
          recv_batch_.clear();
          recv_pending_ = false;
          return;
        }
        const TimePoint done = sim_->Now();
        for (const AppResponsePtr& response : recv_batch_) {
          ++results_.completed;
          if (in_flight_ > 0) {
            --in_flight_;
          }
          hints_.Complete(done);
          const double observed_us = (recv_syscall_time_ - response->request_sent_at).ToMicros();
          if (latency_observer_) {
            latency_observer_(recv_syscall_time_, observed_us);
          }
          if (InMeasureWindow(response->request_created_at)) {
            ++results_.measured;
            const double latency_us = observed_us;
            const double sojourn_us = (done - response->request_created_at).ToMicros();
            results_.latency_us.Add(latency_us);
            results_.latency_hist.Add(latency_us);
            results_.sojourn_us.Add(sojourn_us);
            results_.request_leg_us.Add(
                (response->server_received_at - response->request_sent_at).ToMicros());
            results_.server_us.Add(
                (response->response_sent_at - response->server_received_at).ToMicros());
            results_.response_leg_us.Add(
                (recv_syscall_time_ - response->response_sent_at).ToMicros());
          }
        }
        recv_batch_.clear();
        recv_pending_ = false;
        if (results_.measured > 0) {
          results_.achieved_rps =
              static_cast<double>(results_.measured) / config_.measure.ToSeconds();
        }
        if (socket_->ReadableMessages() > 0) {
          ScheduleReceiveWork();
        }
      });
}

}  // namespace e2e
