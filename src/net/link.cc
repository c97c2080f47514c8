#include "net/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/metrics.h"

namespace esim::net {

Link::Link(sim::Simulator& sim, std::string name, const Config& config,
           PacketHandler* dst)
    : Component(sim, std::move(name)), config_{config}, dst_{dst} {
  if (!std::isfinite(config_.bandwidth_bps) || config_.bandwidth_bps <= 0) {
    throw std::invalid_argument("Link " + this->name() +
                                ": bandwidth must be finite and positive");
  }
  if (config_.propagation < sim::SimTime{}) {
    throw std::invalid_argument("Link " + this->name() +
                                ": propagation delay must not be negative (" +
                                config_.propagation.to_string() + ")");
  }
  if (dst_ == nullptr) {
    throw std::invalid_argument("Link " + this->name() +
                                ": null destination");
  }
  if (auto* r = sim.telemetry()) {
    m_sent_ = r->counter("net.link.sent");
    m_delivered_ = r->counter("net.link.delivered");
    m_dropped_ = r->counter("net.link.dropped");
    m_queue_depth_ = r->histogram("net.link.queue_depth_bytes");
  }
}

sim::SimTime Link::tx_time(std::uint32_t bytes) const {
  const double seconds =
      static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps;
  return sim::SimTime::from_ns(
      static_cast<std::int64_t>(std::llround(seconds * 1e9)));
}

void Link::retire() const {
  const sim::SimTime t = now();
  while (!fifo_.empty() && fifo_.front().depart <= t) {
    fifo_bytes_ -= fifo_.front().size;
    fifo_.pop_front();
    ++counter_.delivered;
    if (m_delivered_ != nullptr) m_delivered_->inc();
  }
}

std::uint32_t Link::queued_bytes() const {
  retire();
  return static_cast<std::uint32_t>(
      fifo_bytes_ - (head_started() ? fifo_.front().size : 0));
}

std::size_t Link::queued_packets() const {
  retire();
  return fifo_.size() - (head_started() ? 1 : 0);
}

bool Link::busy() const {
  retire();
  return head_started();
}

const stats::PacketCounter& Link::counter() const {
  retire();
  return counter_;
}

void Link::send(Packet pkt) {
  const std::uint32_t queued = queued_bytes();
  ++counter_.sent;
  if (m_sent_ != nullptr) {
    m_sent_->inc();
    m_queue_depth_->record(queued);
  }
  const std::uint32_t size = pkt.size_bytes();
  if (std::uint64_t{queued} + size > config_.queue_capacity_bytes) {
    ++counter_.dropped;
    if (m_dropped_ != nullptr) m_dropped_->inc();
    if (on_drop) on_drop(pkt);
    return;
  }
  if (config_.ecn_threshold_bytes != 0 &&
      queued >= config_.ecn_threshold_bytes) {
    pkt.ecn = true;
  }
  const sim::SimTime start = std::max(now(), busy_until_);
  busy_until_ = start + tx_time(size);
  fifo_.push_back({start, busy_until_, size});
  fifo_bytes_ += size;

  const sim::SimTime arrive_at = busy_until_ + config_.propagation;
  if (on_transmit) on_transmit(pkt, arrive_at);
  // Deliveries are keyed by packet id so same-instant arrivals at the
  // receiver order identically under every engine (see event_queue.h).
  const std::uint64_t key = pkt.id;
  auto deliver = [dst = dst_, pkt = std::move(pkt)]() mutable {
    dst->handle_packet(std::move(pkt));
  };
  if (remote_) {
    remote_(arrive_at, key, std::move(deliver));
  } else {
    sim().schedule_at_keyed(arrive_at, key, std::move(deliver));
  }
}

void Link::memo_apply_counter_delta(const stats::PacketCounter& d) {
  counter_.sent += d.sent;
  counter_.delivered += d.delivered;
  counter_.dropped += d.dropped;
  if (m_sent_ != nullptr) m_sent_->inc(d.sent);
  if (m_delivered_ != nullptr) m_delivered_->inc(d.delivered);
  if (m_dropped_ != nullptr) m_dropped_->inc(d.dropped);
}

}  // namespace esim::net
