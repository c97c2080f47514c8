#include "tcp/host.h"

#include <stdexcept>
#include <utility>

namespace esim::tcp {

Host::Host(sim::Simulator& sim, std::string name, net::HostId id,
           const TcpConnection::Config& tcp_config)
    : Component(sim, std::move(name)), id_{id}, tcp_config_{tcp_config} {}

Host::~Host() = default;

TcpConnection* Host::open_flow(net::HostId dst, std::uint64_t bytes,
                               std::uint64_t flow_id) {
  if (uplink_ == nullptr) {
    throw std::logic_error(name() + ": open_flow before set_uplink");
  }
  reclaim_finished();
  net::FlowKey key;
  key.src_host = id_;
  key.dst_host = dst;
  key.dst_port = 80;
  key.src_port = next_port_;
  advance_port();

  auto conn = TcpConnection::make_active(*this, key, flow_id, bytes,
                                         tcp_config_);
  TcpConnection* raw = conn.get();
  finished_.erase(key);
  connections_[key] = std::move(conn);
  raw->open();
  return raw;
}

void Host::handle_packet(net::Packet pkt) {
  // Connections are keyed by OUR outgoing 4-tuple; an arriving packet's
  // key is the reverse.
  const net::FlowKey key = pkt.flow.reversed();
  // A pure SYN under a new flow id reopens a finished tuple, as RFC 1122
  // §4.2.2.13 lets a new SYN reopen a TIME-WAIT connection. Anything else
  // for a finished tuple is a late duplicate.
  const bool syn = pkt.has(net::TcpFlag::Syn) && !pkt.has(net::TcpFlag::Ack);
  if (auto it = connections_.find(key); it != connections_.end()) {
    TcpConnection& conn = *it->second;
    if (!syn || conn.state() != TcpState::Done ||
        conn.flow_id() == pkt.flow_id) {
      ++counter_.delivered;
      deliver(conn, pkt);
      return;
    }
    connections_.erase(it);
  } else if (auto t = finished_.find(key); t != finished_.end()) {
    const Tombstone& tomb = t->second;
    if (!syn || tomb.flow_id == pkt.flow_id) {
      ++counter_.delivered;
      // What a finished receiver's TcpConnection::transmit_ack(sent_at)
      // sends; a finished sender sends nothing.
      if (!tomb.sender) {
        net::Packet ack;
        ack.flow = key;
        ack.flow_id = tomb.flow_id;
        ack.flags = net::TcpFlag::Ack;
        ack.ack_seq = tomb.rcv_nxt;
        ack.ts_echo = pkt.sent_at;
        tcp_transmit(std::move(ack));
      }
      return;
    }
    finished_.erase(t);
  } else if (!syn) {
    ++counter_.dropped;
    return;
  }

  reclaim_finished();
  auto conn =
      TcpConnection::make_passive(*this, key, pkt.flow_id, tcp_config_);
  TcpConnection& raw = *conn;
  connections_.emplace(key, std::move(conn));
  if (on_accept) on_accept(raw);
  ++counter_.delivered;
  deliver(raw, pkt);
}

void Host::deliver(TcpConnection& conn, const net::Packet& pkt) {
  // Its callbacks may open or accept a connection on this host, which
  // reclaims: `conn` must survive that, and nothing may touch it after.
  delivering_ = &conn;
  conn.on_packet(pkt);
  delivering_ = nullptr;
}

void Host::tcp_finished(const TcpConnection& conn) {
  reclaimable_.push_back(conn.key());
}

void Host::reclaim_finished() {
  std::size_t kept = 0;
  for (const net::FlowKey& key : reclaimable_) {
    const auto it = connections_.find(key);
    // Done is final, so a tuple that no longer holds a finished connection
    // was reopened or replaced after it finished.
    if (it == connections_.end() || it->second->state() != TcpState::Done) {
      continue;
    }
    const TcpConnection& c = *it->second;
    if (&c == delivering_) {
      reclaimable_[kept++] = key;
      continue;
    }
    finished_.insert_or_assign(
        key, Tombstone{c.flow_id(), c.rcv_nxt(), c.is_sender()});
    connections_.erase(it);
  }
  reclaimable_.resize(kept);
}

void Host::tcp_transmit(net::Packet pkt) {
  if (uplink_ == nullptr) {
    throw std::logic_error(name() + ": transmit before set_uplink");
  }
  pkt.id = (static_cast<std::uint64_t>(id_) << 40) | ++next_packet_seq_;
  pkt.sent_at = now();
  ++counter_.sent;
  uplink_->send(std::move(pkt));
}

void Host::tcp_rtt_sample(sim::SimTime rtt) {
  if (rtt_collector_ != nullptr) rtt_collector_->record(rtt);
}

}  // namespace esim::tcp
