// Output-queued switch with per-destination ECMP forwarding.
//
// A switch owns nothing but its forwarding state: output Links are created
// by the topology builder (they need destination handlers) and attached as
// ports. Forwarding is exact-match on destination host with a list of
// equal-cost output ports, reduced by the deterministic ECMP hash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ecmp.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/component.h"
#include "stats/collectors.h"

namespace esim::telemetry {
class Counter;
}

namespace esim::net {

/// Store-and-forward output-queued switch.
class Switch : public sim::Component, public PacketHandler {
 public:
  /// `id` is the dense switch id used as the ECMP salt. Forwarding takes no
  /// time, like INET's EtherSwitch.
  Switch(sim::Simulator& sim, std::string name, SwitchId id);

  /// This switch's dense id.
  SwitchId id() const { return id_; }

  /// Attaches an output port; returns its port index.
  std::uint32_t add_port(Link* link);

  /// Declares the equal-cost output ports toward destination host `dst`.
  /// Ports must be listed in a canonical order (ascending neighbor id) so
  /// path replay in approx/features.cc matches; ecmp_index picks among
  /// them.
  void set_route(HostId dst, std::vector<std::uint32_t> ports);

  /// Routing lookup used by forwarding and by path replay. Returns the
  /// chosen port for `flow`; throws if no route exists.
  std::uint32_t route_port(const FlowKey& flow) const;

  /// Forwards a packet to its route's output port, or drops it when no
  /// route exists.
  void handle_packet(Packet pkt) override;

  /// Number of attached ports.
  std::size_t port_count() const { return ports_.size(); }

  /// The link behind port `i`.
  Link* port(std::uint32_t i) const { return ports_.at(i); }

  /// Packets forwarded (excludes packets with no route, which are counted
  /// as dropped).
  const stats::PacketCounter& counter() const { return counter_; }

  /// When disabled, ECMP hashes only the (src_host, dst_host) pair —
  /// ephemeral ports are zeroed before ecmp_index — so every flow between
  /// a host pair takes the same path regardless of port assignment. This
  /// makes repeated workload phases path-identical even though each phase
  /// consumes fresh ephemeral ports, which is what phase memoization
  /// (src/memo) needs for dense cache hits on multi-spine fabrics.
  /// Default: enabled (per-flow 5-tuple ECMP, the paper's configuration).
  void set_port_sensitive_ecmp(bool on) { port_sensitive_ecmp_ = on; }
  bool port_sensitive_ecmp() const { return port_sensitive_ecmp_; }

  /// Applies a memoized phase's accounting delta (src/memo replay).
  void memo_apply_counter_delta(const stats::PacketCounter& d);

 private:
  SwitchId id_;
  bool port_sensitive_ecmp_ = true;
  std::vector<Link*> ports_;
  std::vector<std::vector<std::uint32_t>> routes_;  // dst host -> ports
  stats::PacketCounter counter_;
  // Aggregate net.switch.* series; null when telemetry is off.
  telemetry::Counter* m_received_ = nullptr;
  telemetry::Counter* m_forwarded_ = nullptr;
  telemetry::Counter* m_dropped_ = nullptr;
};

}  // namespace esim::net
