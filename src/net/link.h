// A unidirectional point-to-point link with finite bandwidth, fixed
// propagation delay, FIFO serialization and optional i.i.d. loss.
//
// Bandwidth, propagation, and loss probability are mutable at run time (see
// the setters below) so a `LinkScheduler` can script time-varying behavior;
// changes apply to packets handed to Send() afterwards — bits already on the
// wire keep their original timing. Richer impairments (bursty loss,
// reordering, duplication, corruption, jitter) live in `src/net/impair` and
// install as a PacketSink between this link and the receiving NIC.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstdint>
#include <string>

#include "src/net/impair/loss_model.h"
#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace e2e {

class Link {
 public:
  struct Config {
    // Bits per second; 0 means infinite (serialization takes zero time).
    double bandwidth_bps = 10e9;
    Duration propagation = Duration::Micros(5);
    double loss_probability = 0.0;
  };

  Link(Simulator* sim, const Config& config, Rng rng, std::string name);

  void SetSink(PacketSink* sink) { sink_ = sink; }

  // The simulation domain delivery fires in — the receiving component's
  // domain. 0 (the default) is the global domain, the only one on a
  // single-domain simulator.
  void set_dst_domain(uint32_t domain) { dst_domain_ = domain; }
  uint32_t dst_domain() const { return dst_domain_; }

  // Starts (or queues) serialization of `packet`; returns the time at which
  // the last bit leaves the sender (used by the NIC for TX completions).
  TimePoint Send(Packet packet);

  // Run-time parameter rewrites (the LinkScheduler's hook points).
  void set_bandwidth_bps(double bps);
  void set_propagation(Duration propagation);
  void set_loss_probability(double p);
  double bandwidth_bps() const { return config_.bandwidth_bps; }
  Duration propagation() const { return config_.propagation; }
  double loss_probability() const { return loss_.probability(); }

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  const std::string& name() const { return name_; }

 private:
  Simulator* sim_;
  Config config_;
  Rng rng_;
  // The single i.i.d. loss code path, shared with the impairment engine's
  // IidLossStage (see src/net/impair/loss_model.h).
  IidLossModel loss_;
  std::string name_;
  PacketSink* sink_ = nullptr;
  uint32_t dst_domain_ = 0;
  TimePoint tx_available_;  // When the wire frees up.
  uint64_t packets_sent_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace e2e

#endif  // SRC_NET_LINK_H_
