#include "net/switch.h"

#include <stdexcept>
#include <utility>

#include "telemetry/metrics.h"

namespace esim::net {

Switch::Switch(sim::Simulator& sim, std::string name, SwitchId id)
    : Component(sim, std::move(name)), id_{id} {
  if (auto* r = sim.telemetry()) {
    m_received_ = r->counter("net.switch.received");
    m_forwarded_ = r->counter("net.switch.forwarded");
    m_dropped_ = r->counter("net.switch.dropped_no_route");
  }
}

std::uint32_t Switch::add_port(Link* link) {
  if (link == nullptr) throw std::invalid_argument("Switch: null port link");
  ports_.push_back(link);
  return static_cast<std::uint32_t>(ports_.size() - 1);
}

void Switch::set_route(HostId dst, std::vector<std::uint32_t> ports) {
  if (ports.empty()) {
    throw std::invalid_argument("Switch: empty port set for route");
  }
  for (auto p : ports) {
    if (p >= ports_.size()) {
      throw std::invalid_argument("Switch: route references unknown port");
    }
  }
  if (dst >= routes_.size()) routes_.resize(dst + 1);
  routes_[dst] = std::move(ports);
}

std::uint32_t Switch::route_port(const FlowKey& flow) const {
  if (flow.dst_host >= routes_.size() || routes_[flow.dst_host].empty()) {
    throw std::logic_error(name() + ": no route to host " +
                           std::to_string(flow.dst_host));
  }
  const auto& candidates = routes_[flow.dst_host];
  FlowKey hashed = flow;
  if (!port_sensitive_ecmp_) {
    hashed.src_port = 0;
    hashed.dst_port = 0;
  }
  const std::uint32_t pick =
      ecmp_index(hashed, id_, static_cast<std::uint32_t>(candidates.size()));
  return candidates[pick];
}

void Switch::memo_apply_counter_delta(const stats::PacketCounter& d) {
  counter_.sent += d.sent;
  counter_.delivered += d.delivered;
  counter_.dropped += d.dropped;
  if (m_received_ != nullptr) m_received_->inc(d.sent);
  if (m_forwarded_ != nullptr) m_forwarded_->inc(d.delivered);
  if (m_dropped_ != nullptr) m_dropped_->inc(d.dropped);
}

void Switch::handle_packet(Packet pkt) {
  ++counter_.sent;
  if (m_received_ != nullptr) m_received_->inc();
  if (pkt.flow.dst_host >= routes_.size() ||
      routes_[pkt.flow.dst_host].empty()) {
    ++counter_.dropped;
    if (m_dropped_ != nullptr) m_dropped_->inc();
    return;
  }
  const std::uint32_t port = route_port(pkt.flow);
  ++counter_.delivered;
  if (m_forwarded_ != nullptr) m_forwarded_->inc();
  ports_[port]->send(std::move(pkt));
}

}  // namespace esim::net
