// End host: NIC + TCP connection demultiplexer.
//
// A Host owns its TCP connections and transmits through a single uplink
// Link toward its ToR (or, in approximate simulations, toward the cluster
// model standing in for the fabric — the host neither knows nor cares,
// which is exactly the boundary contract of paper §5: approximated clusters
// still run full TCP stacks).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "sim/component.h"
#include "stats/collectors.h"
#include "tcp/tcp_connection.h"

namespace esim::tcp {

/// A server. Implements PacketHandler (the downlink delivers into it) and
/// TcpEndpoint (its connections transmit through it).
class Host : public sim::Component,
             public net::PacketHandler,
             public TcpEndpoint {
 public:
  /// `id` is the topology-assigned dense host id; `tcp_config` applies to
  /// every connection this host originates or accepts.
  Host(sim::Simulator& sim, std::string name, net::HostId id,
       const TcpConnection::Config& tcp_config = {});

  ~Host() override;

  /// Dense host id.
  net::HostId id() const { return id_; }

  /// Attaches the transmit link toward the fabric. Must be called before
  /// any flow starts. The link is owned by the simulator.
  void set_uplink(net::Link* uplink) { uplink_ = uplink; }

  /// The transmit link, or nullptr before set_uplink.
  net::Link* uplink() const { return uplink_; }

  /// Opens a new flow of `bytes` payload to `dst` (well-known port 80) and
  /// starts the handshake. Returns the connection, owned by this host.
  ///
  /// Lifetime: the returned pointer, like the reference on_accept gets,
  /// stays valid while the connection is open. Once it reaches
  /// TcpState::Done it stays valid until this host next opens or accepts
  /// a connection: that call turns every finished connection (except one
  /// whose packet is being handled) into a tombstone, which answers late
  /// duplicates as the finished connection did. The new connection
  /// replaces whatever its tuple held: a connection or a tombstone.
  TcpConnection* open_flow(net::HostId dst, std::uint64_t bytes,
                           std::uint64_t flow_id);

  /// The ephemeral source-port range open_flow allocates from, inclusive.
  /// Ports are handed out in order and wrap from the last to the first.
  static constexpr std::uint16_t kEphemeralPortFirst = 10'000;
  static constexpr std::uint16_t kEphemeralPortLast = 60'000;

  /// Active + passive connections not yet reclaimed (open ones, and
  /// finished ones since this host last opened or accepted), keyed by
  /// this side's outgoing 4-tuple.
  const std::unordered_map<net::FlowKey, std::unique_ptr<TcpConnection>,
                           net::FlowKeyHash>&
  connections() const {
    return connections_;
  }

  /// Called when a passive connection is created in response to a SYN,
  /// before the SYN is processed; use it to attach callbacks. The
  /// reference follows open_flow's lifetime rule.
  std::function<void(TcpConnection&)> on_accept;

  /// Routes this host's RTT samples into a shared collector (Figure 4).
  void set_rtt_collector(stats::LatencyCollector* collector) {
    rtt_collector_ = collector;
  }

  /// Packets handed to connections vs. dropped for want of one.
  const stats::PacketCounter& counter() const { return counter_; }

  // --- memoization hooks (src/memo) ------------------------------------

  /// The ephemeral port the NEXT open_flow will consume.
  std::uint16_t next_port() const { return next_port_; }

  /// The per-host packet sequence of the last transmitted packet (the low
  /// 40 bits of its packet id).
  std::uint64_t next_packet_seq() const { return next_packet_seq_; }

  /// True if a connection (active or passive, completed or not, or its
  /// tombstone) exists under this side's outgoing 4-tuple `key`. Memo hit
  /// verification uses this to reject fast-forward when a replayed phase's
  /// predicted 4-tuple would collide with a stale connection left by an
  /// earlier port wrap — a live run would find that connection, a replay
  /// wouldn't.
  bool has_connection(const net::FlowKey& key) const {
    return connections_.contains(key) || finished_.contains(key);
  }

  /// Replays a memoized phase's identity consumption: advances the
  /// ephemeral-port allocator by `flows_opened` opens (with the same wrap
  /// rule open_flow applies) and the packet-id sequence by `packets_sent`,
  /// so post-phase identities are bit-identical to a live run. The
  /// connections themselves are NOT materialized; see has_connection.
  void memo_advance_identity(std::uint64_t flows_opened,
                             std::uint64_t packets_sent) {
    for (std::uint64_t i = 0; i < flows_opened; ++i) advance_port();
    next_packet_seq_ += packets_sent;
  }

  /// Applies a memoized phase's accounting delta (src/memo replay).
  void memo_apply_counter_delta(const stats::PacketCounter& d) {
    counter_.sent += d.sent;
    counter_.delivered += d.delivered;
    counter_.dropped += d.dropped;
  }

  // --- net::PacketHandler ---
  void handle_packet(net::Packet pkt) override;

  // --- TcpEndpoint ---
  void tcp_transmit(net::Packet pkt) override;
  sim::Simulator& tcp_sim() override { return sim(); }
  void tcp_rtt_sample(sim::SimTime rtt) override;
  void tcp_finished(const TcpConnection& conn) override;

 private:
  void advance_port() {
    next_port_ = next_port_ >= kEphemeralPortLast
                     ? kEphemeralPortFirst
                     : static_cast<std::uint16_t>(next_port_ + 1);
  }

  /// What a finished connection still needs: a receiver re-ACKs late
  /// packets with its final rcv_nxt, a sender only counts them.
  struct Tombstone {
    std::uint64_t flow_id;
    std::uint32_t rcv_nxt;
    bool sender;
  };

  /// Hands `pkt` to `conn`, marking it as the connection being delivered.
  void deliver(TcpConnection& conn, const net::Packet& pkt);

  /// Turns every finished connection except `delivering_` into a
  /// tombstone. Walks only the tuples tcp_finished recorded.
  void reclaim_finished();

  net::HostId id_;
  TcpConnection::Config tcp_config_;
  net::Link* uplink_ = nullptr;
  std::unordered_map<net::FlowKey, std::unique_ptr<TcpConnection>,
                     net::FlowKeyHash>
      connections_;
  std::unordered_map<net::FlowKey, Tombstone, net::FlowKeyHash> finished_;
  // Tuples whose connection reached Done since the last reclaim (or was
  // being delivered then).
  std::vector<net::FlowKey> reclaimable_;
  // The connection whose on_packet is running; a reclaim started from
  // one of its callbacks must not free it.
  const TcpConnection* delivering_ = nullptr;
  stats::LatencyCollector* rtt_collector_ = nullptr;
  stats::PacketCounter counter_;
  std::uint16_t next_port_ = kEphemeralPortFirst;
  std::uint64_t next_packet_seq_ = 0;
};

}  // namespace esim::tcp
