#include "src/tcp/stack.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/tcp/segment.h"

namespace e2e {

TcpStack::TcpStack(Simulator* sim, Host* host, const StackCosts& costs)
    : sim_(sim), host_(host), costs_(costs) {
  assert(sim_ != nullptr && host_ != nullptr);
  host_->nic().SetRx([this](const std::vector<Packet>& batch) { return RxBatchCost(batch); },
                     [this](const Packet& packet) { OnRxPacket(packet); });
  host_->nic().SetTxCompleteHandler([this](size_t n) {
    for (TcpEndpoint* endpoint : endpoint_list_) {
      endpoint->OnTxCompletions(n);
    }
  });
}

TcpEndpoint* TcpStack::CreateEndpoint(uint64_t conn_id, bool is_a, const TcpConfig& config) {
  TcpEndpoint* raw = arena_.New(sim_, host_, conn_id, is_a, config, &costs_, &endpoint_mem_);
  const uint64_t key = KeyFor(conn_id, is_a);
  assert(endpoints_.find(key) == endpoints_.end());
  endpoints_.emplace(key, raw);
  endpoint_list_.push_back(raw);
  return raw;
}

void TcpStack::CloseEndpoint(uint64_t conn_id, bool is_a) {
  const uint64_t key = KeyFor(conn_id, is_a);
  auto it = endpoints_.find(key);
  if (it == endpoints_.end()) {
    return;
  }
  TcpEndpoint* raw = it->second;
  raw->Shutdown();
  endpoint_list_.erase(std::remove(endpoint_list_.begin(), endpoint_list_.end(), raw),
                       endpoint_list_.end());
  // The arena retains the zombie's allocation until the stack dies.
  endpoints_.erase(it);
  ++endpoints_closed_;
}

Duration TcpStack::RxBatchCost(const std::vector<Packet>& batch) {
  Duration cost;
  const TcpSegment* prev = nullptr;
  uint64_t group_bytes = 0;
  for (const Packet& packet : batch) {
    const size_t payload =
        packet.wire_bytes > kWireHeaderBytes ? packet.wire_bytes - kWireHeaderBytes : 0;
    cost += costs_.rx_per_byte * static_cast<int64_t>(payload);
    const auto* seg = dynamic_cast<const TcpSegment*>(packet.payload.get());
    if (!costs_.gro) {
      cost += costs_.rx_per_packet;
      continue;
    }
    cost += costs_.driver_rx_per_packet;
    const bool mergeable = seg != nullptr && prev != nullptr && seg->len > 0 && prev->len > 0 &&
                           seg->conn_id == prev->conn_id && seg->from_a == prev->from_a &&
                           seg->seq == prev->seq + prev->len &&
                           group_bytes + seg->len <= costs_.gro_max_bytes;
    if (mergeable) {
      ++gro_merged_;
    } else {
      cost += costs_.rx_per_packet;  // New coalesced group: one stack pass.
      group_bytes = 0;
    }
    group_bytes += seg != nullptr ? seg->len : 0;
    prev = seg;
  }
  return cost;
}

void TcpStack::OnRxPacket(const Packet& packet) {
  const auto* seg = dynamic_cast<const TcpSegment*>(packet.payload.get());
  if (seg == nullptr) {
    ++unknown_segments_;
    return;
  }
  // The receiving endpoint is the side *opposite* the sender.
  auto it = endpoints_.find(KeyFor(seg->conn_id, !seg->from_a));
  if (it == endpoints_.end()) {
    ++unknown_segments_;
    return;
  }
  it->second->HandleSegment(*seg, packet.ecn_ce);
}

ConnectedPair ConnectPair(TcpStack& stack_a, TcpStack& stack_b, uint64_t conn_id,
                          const TcpConfig& config_a, const TcpConfig& config_b) {
  ConnectedPair pair;
  pair.a = stack_a.CreateEndpoint(conn_id, /*is_a=*/true, config_a);
  pair.b = stack_b.CreateEndpoint(conn_id, /*is_a=*/false, config_b);
  pair.a->InitPeerWindow(config_b.rcvbuf_bytes);
  pair.b->InitPeerWindow(config_a.rcvbuf_bytes);
  pair.a->SetPeerHost(stack_b.host()->id());
  pair.b->SetPeerHost(stack_a.host()->id());
  pair.a->SetLocalHost(stack_a.host()->id());
  pair.b->SetLocalHost(stack_b.host()->id());
  return pair;
}

}  // namespace e2e
