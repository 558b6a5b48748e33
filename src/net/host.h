// A simulated host: an application core, a softirq core, and a NIC —
// mirroring the paper's setup where the application thread and the network
// stack's IRQ/softIRQ routines are pinned to dedicated cores.

#ifndef SRC_NET_HOST_H_
#define SRC_NET_HOST_H_

#include <memory>
#include <string>

#include "src/net/link.h"
#include "src/net/nic.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace e2e {

class Host {
 public:
  // `tx_link` is the link this host transmits on; its NIC is registered as
  // the sink of the peer's link by the topology builder (or, on a switched
  // fabric, the link feeds a switch that forwards on `Packet::dst_host`).
  // `id` is the fabric-wide host address; 0 (the point-to-point default)
  // means the host is unaddressed. `domain` is the simulator domain that
  // owns the host's event processing (0 on a single-domain simulator): its
  // cores, NIC, and everything built on them schedule there.
  Host(Simulator* sim, Link* tx_link, const Nic::Config& nic_config, std::string name,
       uint32_t id = 0, uint32_t domain = 0)
      : id_(id),
        name_(std::move(name)),
        app_core_(sim, name_ + ".app", domain),
        softirq_core_(sim, name_ + ".softirq", domain),
        nic_(sim, &softirq_core_, tx_link, nic_config, name_ + ".nic") {}

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  CpuCore& app_core() { return app_core_; }
  CpuCore& softirq_core() { return softirq_core_; }
  Nic& nic() { return nic_; }

  uint32_t domain() const { return app_core_.domain(); }

 private:
  uint32_t id_;
  std::string name_;
  CpuCore app_core_;
  CpuCore softirq_core_;
  Nic nic_;
};

}  // namespace e2e

#endif  // SRC_NET_HOST_H_
