#include "src/net/nic.h"

#include <cassert>
#include <utility>

#include "src/obs/trace.h"
#include "src/sim/logging.h"

namespace e2e {
namespace {

void TracePacket(const char* name, const std::string& track, const Packet& packet,
                 TimePoint now) {
  if (TraceRecorder* tr = TraceIf(TraceCategory::kPacket)) {
    TraceEvent e;
    e.time = now;
    e.category = TraceCategory::kPacket;
    e.name = name;
    e.track = tr->Track(track);
    e.k1 = "packet_id";
    e.v1 = static_cast<double>(packet.id);
    e.k2 = "wire_bytes";
    e.v2 = static_cast<double>(packet.wire_bytes);
    tr->Record(e);
  }
}

}  // namespace

Nic::Nic(Simulator* sim, CpuCore* softirq, Link* tx_link, const Config& config, std::string name)
    : sim_(sim), softirq_(softirq), tx_link_(tx_link), config_(config), name_(std::move(name)) {
  assert(sim_ != nullptr && softirq_ != nullptr && tx_link_ != nullptr);
}

void Nic::SetRx(RxBatchCostFn cost_fn, RxHandler handler) {
  rx_cost_ = std::move(cost_fn);
  rx_handler_ = std::move(handler);
}

bool Nic::Transmit(Packet packet) {
  if (tx_in_flight_ >= config_.tx_ring_size) {
    return false;
  }
  ++tx_in_flight_;
  ++tx_segments_;
  TracePacket("tx", name_, packet, sim_->Now());
  TimePoint last_bit = sim_->Now();
  if (packet.IsSuperSegment()) {
    for (Packet& slice : packet.slices) {
      last_bit = tx_link_->Send(std::move(slice));
      ++tx_wire_packets_;
    }
  } else {
    last_bit = tx_link_->Send(std::move(packet));
    ++tx_wire_packets_;
  }
  // TX completion: the descriptor is freed once the last bit is serialized.
  // It belongs to the NIC's host, i.e. its softirq core's domain.
  sim_->ScheduleCrossAt(softirq_->domain(), last_bit, [this] {
    assert(tx_in_flight_ > 0);
    --tx_in_flight_;
    ++tx_done_backlog_;
    SchedulePoll();
  });
  return true;
}

void Nic::DeliverPacket(Packet packet) {
  if (packet.corrupted) {
    // Hardware checksum validation: the frame consumed the wire but is
    // discarded before it costs any softirq work.
    ++rx_checksum_drops_;
    TracePacket("rx_checksum_drop", name_, packet, sim_->Now());
    return;
  }
  ++rx_packets_;
  TracePacket("rx", name_, packet, sim_->Now());
  rx_backlog_.push_back(std::move(packet));
  SchedulePoll();
}

void Nic::SchedulePoll() {
  if (poll_scheduled_) {
    return;
  }
  if (rx_backlog_.empty() && tx_done_backlog_ == 0) {
    return;
  }
  poll_scheduled_ = true;
  softirq_->Submit(
      [this] {
        // Poll start: capture up to a NAPI budget of work and price it.
        ++polls_;
        Duration cost;
        if (in_poll_chain_) {
          cost = config_.poll_continue_cost;
        } else {
          cost = config_.irq_overhead;
          in_poll_chain_ = true;
          ++irqs_;
        }
        poll_batch_.clear();
        const int budget = config_.napi_budget;
        while (!rx_backlog_.empty() && static_cast<int>(poll_batch_.size()) < budget) {
          poll_batch_.push_back(std::move(rx_backlog_.front()));
          rx_backlog_.pop_front();
        }
        if (rx_cost_ && !poll_batch_.empty()) {
          cost += rx_cost_(poll_batch_);
        }
        poll_tx_done_ = tx_done_backlog_;
        tx_done_backlog_ = 0;
        cost += config_.tx_completion_cost * static_cast<int64_t>(poll_tx_done_);
        return cost;
      },
      [this] {
        // Poll end: hand packets and completions to the stack.
        for (const Packet& packet : poll_batch_) {
          if (rx_handler_) {
            rx_handler_(packet);
          }
        }
        poll_batch_.clear();
        const size_t tx_done = std::exchange(poll_tx_done_, 0);
        if (tx_done > 0 && tx_complete_) {
          tx_complete_(tx_done);
        }
        poll_scheduled_ = false;
        if (!rx_backlog_.empty() || tx_done_backlog_ > 0) {
          SchedulePoll();
        } else {
          in_poll_chain_ = false;
        }
      });
}

}  // namespace e2e
