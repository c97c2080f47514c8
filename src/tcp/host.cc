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
  net::FlowKey key;
  key.src_host = id_;
  key.dst_host = dst;
  key.dst_port = 80;
  key.src_port = next_port_;
  advance_port();

  auto conn = TcpConnection::make_active(*this, key, flow_id, bytes,
                                         tcp_config_);
  TcpConnection* raw = conn.get();
  connections_[key] = std::move(conn);
  raw->open();
  return raw;
}

void Host::handle_packet(net::Packet pkt) {
  // Connections are keyed by OUR outgoing 4-tuple; an arriving packet's
  // key is the reverse.
  const net::FlowKey key = pkt.flow.reversed();
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    if (pkt.has(net::TcpFlag::Syn) && !pkt.has(net::TcpFlag::Ack)) {
      auto conn =
          TcpConnection::make_passive(*this, key, pkt.flow_id, tcp_config_);
      TcpConnection* raw = conn.get();
      it = connections_.emplace(key, std::move(conn)).first;
      if (on_accept) on_accept(*raw);
    } else {
      ++counter_.dropped;
      ESIM_LOG(*this, sim::LogLevel::Debug,
               "no connection for " + pkt.to_string() + ", dropping");
      return;
    }
  }
  ++counter_.delivered;
  it->second->on_packet(pkt);
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
