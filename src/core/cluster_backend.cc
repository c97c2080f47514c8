#include "core/cluster_backend.h"

#include <algorithm>
#include <set>

namespace esim::core {

const char* to_string(ClusterTier t) {
  switch (t) {
    case ClusterTier::Packet:
      return "packet";
    case ClusterTier::Ml:
      return "ml";
    case ClusterTier::Fluid:
      return "fluid";
  }
  return "?";
}

FluidClusterBackend::FluidClusterBackend(const Config& config)
    : config_{config},
      model_{std::make_unique<flowsim::FlowLevelSimulator>(
          config.spec, config.bandwidth_bps)} {}

std::size_t FluidClusterBackend::tracked_flows() const {
  std::set<Key> untracked;
  for (const auto& [key, fk] : pending_) {
    if (!flows_.contains(key)) untracked.insert(key);
  }
  return flows_.size() + untracked.size();
}

void FluidClusterBackend::flush_pending() {
  // Canonical key order: tied admissions buffered in any pop order flush
  // identically, so fluid ids — and the model's float summation order —
  // are engine-invariant. A key's duplicates carry the same 4-tuple, so
  // keeping any one of them is exact.
  std::sort(pending_.begin(), pending_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  pending_.erase(std::unique(pending_.begin(), pending_.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 pending_.end());
  const sim::SimTime t = sim::SimTime::from_ns(cur_instant_ns_);
  for (const auto& [key, fk] : pending_) {
    auto it = flows_.find(key);
    if (it == flows_.end()) {
      const std::uint64_t id = next_id_++;
      model_->add_flow(id, fk.src_host, fk.dst_host, config_.flow_bytes, t);
      flows_.emplace(key, Tracked{id, cur_instant_ns_});
      continue;
    }
    it->second.last_seen_ns = cur_instant_ns_;
    if (model_->rate_of(it->second.fluid_id) <= 0.0) {
      // Budget drained mid-tracking: re-arm under a fresh id so a
      // long-lived flow keeps holding its share.
      model_->remove_flow(it->second.fluid_id);
      it->second.fluid_id = next_id_++;
      model_->add_flow(it->second.fluid_id, fk.src_host, fk.dst_host,
                       config_.flow_bytes, t);
    }
  }
  pending_.clear();
}

void FluidClusterBackend::sync(std::int64_t t_ns) {
  if (t_ns <= cur_instant_ns_) return;
  // Leaving the current instant: its buffered touches take effect now.
  flush_pending();
  // Idle-expiry sweeps at every window boundary crossed. Lazy: whichever
  // event (packet or macro timer) first reaches a boundary runs its
  // sweep, so a packet tied with the timer at the boundary nanosecond
  // sees post-sweep state in either pop order.
  const std::int64_t horizon =
      static_cast<std::int64_t>(config_.idle_windows) * config_.window_ns;
  while (synced_boundary_ns_ + config_.window_ns <= t_ns) {
    synced_boundary_ns_ += config_.window_ns;
    model_->advance_to(sim::SimTime::from_ns(synced_boundary_ns_));
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.last_seen_ns <= synced_boundary_ns_ - horizon) {
        model_->remove_flow(it->second.fluid_id);
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
  }
  model_->advance_to(sim::SimTime::from_ns(t_ns));
  cur_instant_ns_ = t_ns;
}

double FluidClusterBackend::admit(const net::Packet& pkt,
                                  sim::SimTime arrival) {
  sync(arrival.ns());
  // Read-only against the flushed state: a flow first seen this instant
  // (or whose budget drained) serializes at line rate and joins the
  // max-min allocation from the next instant on.
  double rate = 0.0;
  const Key key = key_of(pkt.flow);
  if (const auto it = flows_.find(key); it != flows_.end()) {
    rate = model_->rate_of(it->second.fluid_id);
  }
  pending_.emplace_back(key, pkt.flow);
  const double bits = static_cast<double>(pkt.size_bytes()) * 8.0;
  return bits / (rate > 0.0 ? rate : config_.bandwidth_bps);
}

void FluidClusterBackend::on_macro_window(sim::SimTime now) {
  sync(now.ns());
}

void FluidClusterBackend::on_activated(sim::SimTime now) {
  // A tier period starts from a clean rate model: state is a pure
  // function of the packets admitted during the period, which is what
  // makes transition traces engine-invariant.
  model_ = std::make_unique<flowsim::FlowLevelSimulator>(
      config_.spec, config_.bandwidth_bps);
  model_->advance_to(now);
  flows_.clear();
  pending_.clear();
  cur_instant_ns_ = now.ns();
  synced_boundary_ns_ = (now.ns() / config_.window_ns) * config_.window_ns;
}

}  // namespace esim::core
