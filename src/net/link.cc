#include "src/net/link.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/trace.h"
#include "src/sim/logging.h"

namespace e2e {

Link::Link(Simulator* sim, const Config& config, Rng rng, std::string name)
    : sim_(sim),
      config_(config),
      rng_(rng),
      loss_(config.loss_probability),
      name_(std::move(name)) {
  assert(sim_ != nullptr);
  assert(config.bandwidth_bps >= 0);
}

void Link::set_bandwidth_bps(double bps) {
  assert(bps >= 0);
  config_.bandwidth_bps = bps;
}

void Link::set_propagation(Duration propagation) {
  assert(propagation >= Duration::Zero());
  config_.propagation = propagation;
}

void Link::set_loss_probability(double p) {
  loss_.set_probability(p);
  config_.loss_probability = p;
}

TimePoint Link::Send(Packet packet) {
  assert(!packet.IsSuperSegment());  // The NIC slices super-segments.
  const TimePoint start = std::max(sim_->Now(), tx_available_);
  Duration serialization = Duration::Zero();
  if (config_.bandwidth_bps > 0) {
    serialization =
        Duration::SecondsF(static_cast<double>(packet.wire_bytes) * 8.0 / config_.bandwidth_bps);
  }
  const TimePoint tx_end = start + serialization;
  tx_available_ = tx_end;
  ++packets_sent_;
  bytes_sent_ += packet.wire_bytes;

  if (loss_.ShouldDrop(rng_)) {
    ++packets_dropped_;
    E2E_DEBUG(sim_->Now(), "link", "%s: dropped packet %lu (%zuB)", name_.c_str(),
              static_cast<unsigned long>(packet.id), packet.wire_bytes);
    if (TraceRecorder* tr = TraceIf(TraceCategory::kPacket)) {
      TraceEvent e;
      e.time = start;
      e.category = TraceCategory::kPacket;
      e.name = "drop";
      e.track = tr->Track(name_);
      e.k1 = "packet_id";
      e.v1 = static_cast<double>(packet.id);
      e.k2 = "wire_bytes";
      e.v2 = static_cast<double>(packet.wire_bytes);
      tr->Record(e);
    }
    return tx_end;
  }

  if (TraceRecorder* tr = TraceIf(TraceCategory::kPacket)) {
    // The packet's life on the wire: serialization + propagation as a span.
    TraceEvent e;
    e.time = start;
    e.duration = (tx_end + config_.propagation) - start;
    e.category = TraceCategory::kPacket;
    e.name = "wire";
    e.track = tr->Track(name_);
    e.k1 = "packet_id";
    e.v1 = static_cast<double>(packet.id);
    e.k2 = "wire_bytes";
    e.v2 = static_cast<double>(packet.wire_bytes);
    tr->Record(e);
  }

  // Delivery fires in the receiver's domain. On a single-domain simulator
  // (or a link whose ends share a domain) this is a plain local push; for a
  // cross-domain link the engine buffers it for the epoch barrier, which is
  // safe because propagation >= the simulator's lookahead window.
  const TimePoint arrival = tx_end + config_.propagation;
  sim_->ScheduleCrossAt(dst_domain_, arrival, [this, packet = std::move(packet)]() mutable {
    if (sink_ != nullptr) {
      sink_->DeliverPacket(std::move(packet));
    }
  });
  return tx_end;
}

}  // namespace e2e
