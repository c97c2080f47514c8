#include "flowsim/flow_level.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "net/ecmp.h"

namespace esim::flowsim {

namespace {
// Same-instant slack for arrival admission (seconds) and the byte
// threshold below which a flow counts as drained. Both match the
// original offline engine so run() results are unchanged.
constexpr double kInstantEps = 1e-15;
constexpr double kDrainedBytes = 1e-6;
}  // namespace

FlowLevelSimulator::FlowLevelSimulator(const net::ClosSpec& spec,
                                       double bandwidth_bps)
    : spec_{spec}, bandwidth_bps_{bandwidth_bps} {
  spec_.validate();
  if (bandwidth_bps <= 0) {
    throw std::invalid_argument("FlowLevelSimulator: bandwidth must be > 0");
  }
  const std::size_t hosts = spec_.total_hosts();
  const std::size_t tor_agg =
      static_cast<std::size_t>(spec_.clusters) * spec_.tors_per_cluster *
      spec_.aggs_per_cluster;
  const std::size_t agg_core = static_cast<std::size_t>(spec_.clusters) *
                               spec_.aggs_per_cluster * spec_.cores;
  link_count_ = 2 * hosts + 2 * tor_agg + 2 * agg_core;
  capacity_.resize(link_count_);
  load_.resize(link_count_);
  loaded_.resize((link_count_ + 63) / 64);
}

std::uint32_t FlowLevelSimulator::uplink_id(net::HostId h) const {
  return h;
}

std::uint32_t FlowLevelSimulator::downlink_id(net::HostId h) const {
  return spec_.total_hosts() + h;
}

std::uint32_t FlowLevelSimulator::tor_agg_id(std::uint32_t cluster,
                                             std::uint32_t tor,
                                             std::uint32_t agg,
                                             bool up) const {
  const std::uint32_t base = 2 * spec_.total_hosts();
  const std::uint32_t per_dir = spec_.clusters * spec_.tors_per_cluster *
                                spec_.aggs_per_cluster;
  const std::uint32_t index =
      (cluster * spec_.tors_per_cluster + tor) * spec_.aggs_per_cluster +
      agg;
  return base + (up ? 0 : per_dir) + index;
}

std::uint32_t FlowLevelSimulator::agg_core_id(std::uint32_t cluster,
                                              std::uint32_t agg,
                                              std::uint32_t core,
                                              bool up) const {
  const std::uint32_t base =
      2 * spec_.total_hosts() +
      2 * spec_.clusters * spec_.tors_per_cluster * spec_.aggs_per_cluster;
  const std::uint32_t per_dir =
      spec_.clusters * spec_.aggs_per_cluster * spec_.cores;
  const std::uint32_t index =
      (cluster * spec_.aggs_per_cluster + agg) * spec_.cores + core;
  return base + (up ? 0 : per_dir) + index;
}

std::vector<std::uint32_t> FlowLevelSimulator::route(net::HostId src,
                                                     net::HostId dst) const {
  net::FlowKey key{src, dst, 0, 80};
  const auto path = net::compute_path(spec_, key);
  std::vector<std::uint32_t> links;
  links.push_back(uplink_id(src));
  if (path.len == 3) {
    const std::uint32_t c = spec_.cluster_of_host(src);
    const std::uint32_t tor_src = path.hops[0] - spec_.tor_id(c, 0);
    const std::uint32_t tor_dst = path.hops[2] - spec_.tor_id(c, 0);
    const std::uint32_t agg =
        path.hops[1] - spec_.agg_id(c, 0);
    links.push_back(tor_agg_id(c, tor_src, agg, /*up=*/true));
    links.push_back(tor_agg_id(c, tor_dst, agg, /*up=*/false));
  } else if (path.len == 5) {
    const std::uint32_t cs = spec_.cluster_of_host(src);
    const std::uint32_t cd = spec_.cluster_of_host(dst);
    const std::uint32_t tor_src = path.hops[0] - spec_.tor_id(cs, 0);
    const std::uint32_t agg_src = path.hops[1] - spec_.agg_id(cs, 0);
    const std::uint32_t core = path.hops[2] - spec_.core_id(0);
    const std::uint32_t agg_dst = path.hops[3] - spec_.agg_id(cd, 0);
    const std::uint32_t tor_dst = path.hops[4] - spec_.tor_id(cd, 0);
    links.push_back(tor_agg_id(cs, tor_src, agg_src, true));
    links.push_back(agg_core_id(cs, agg_src, core, true));
    links.push_back(agg_core_id(cd, agg_dst, core, false));
    links.push_back(tor_agg_id(cd, tor_dst, agg_dst, false));
  }
  links.push_back(downlink_id(dst));
  return links;
}

void FlowLevelSimulator::add_flow(std::uint64_t id, net::HostId src,
                                  net::HostId dst, std::uint64_t bytes,
                                  sim::SimTime arrival) {
  if (src == dst || src >= spec_.total_hosts() ||
      dst >= spec_.total_hosts()) {
    throw std::invalid_argument("FlowLevelSimulator: bad endpoints");
  }
  PendingFlow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.bytes_total = std::max<std::uint64_t>(bytes, 1);
  f.remaining = static_cast<double>(f.bytes_total);
  f.arrival = arrival;
  if (f.arrival.to_seconds() < now_s_) {
    f.arrival = sim::SimTime::from_seconds_f(now_s_);
  }
  f.links = route(src, dst);
  flows_.push_back(std::move(f));
  arrivals_.push(&flows_.back());
}

void FlowLevelSimulator::recompute_rates() {
  // Progressive filling: repeatedly find the link with the smallest fair
  // share among unfrozen flows, freeze those flows at that share.
  //
  // Only links that carry an active flow can bottleneck, so the search
  // walks the `loaded_` bitmap (ascending link id, a link's bit cleared
  // when its last unfrozen flow freezes) instead of every link in the
  // topology. Ascending id keeps the first-minimum tie-break, and flows
  // freeze in active-set order, so every share and every capacity
  // subtraction is the same floating-point operation, in the same order,
  // as a scan over all links.
  const std::size_t n = active_.size();
  rates_.assign(n, -1.0);
  std::fill(loaded_.begin(), loaded_.end(), 0);
  for (const auto* f : active_) {
    for (auto l : f->links) {
      capacity_[l] = bandwidth_bps_;
      load_[l] = 0;
    }
  }
  for (const auto* f : active_) {
    for (auto l : f->links) {
      ++load_[l];
      loaded_[l / 64] |= std::uint64_t{1} << (l % 64);
    }
  }
  std::size_t frozen = 0;
  while (frozen < n) {
    double best_share = std::numeric_limits<double>::infinity();
    std::uint32_t best_link = 0;
    bool found = false;
    for (std::size_t w = 0; w < loaded_.size(); ++w) {
      for (std::uint64_t bits = loaded_[w]; bits != 0; bits &= bits - 1) {
        const auto l =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        const double share = capacity_[l] / load_[l];
        if (share < best_share) {
          best_share = share;
          best_link = l;
          found = true;
        }
      }
    }
    if (!found) break;  // defensive: every flow uses >= 1 link
    for (std::size_t i = 0; i < n; ++i) {
      if (rates_[i] >= 0) continue;
      auto& f = *active_[i];
      if (std::find(f.links.begin(), f.links.end(), best_link) ==
          f.links.end()) {
        continue;
      }
      rates_[i] = best_share;
      ++frozen;
      for (auto l : f.links) {
        capacity_[l] -= best_share;
        if (--load_[l] == 0) loaded_[l / 64] &= ~(std::uint64_t{1} << (l % 64));
      }
    }
  }
}

void FlowLevelSimulator::refresh_rates() {
  if (!rates_dirty_) return;
  rates_dirty_ = false;
  if (active_.empty()) {
    rates_.clear();
    return;
  }
  recompute_rates();
  ++recomputations_;
}

bool FlowLevelSimulator::remove_flow(std::uint64_t id) {
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i]->id != id) continue;
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    rates_dirty_ = true;
    return true;
  }
  // Not yet arrived: tombstone it; the admission loop skips removed
  // flows when they surface, so the heap needs no surgery.
  for (auto& f : flows_) {
    if (f.id == id && !f.removed && f.remaining > kDrainedBytes &&
        f.arrival.to_seconds() > now_s_ + kInstantEps) {
      f.removed = true;
      return true;
    }
  }
  return false;
}

double FlowLevelSimulator::rate_of(std::uint64_t id) {
  refresh_rates();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i]->id == id) return rates_[i];
  }
  return 0.0;
}

void FlowLevelSimulator::step_until(double target_s, bool stop_at_target) {
  for (;;) {
    // Admit every arrival due at the current instant (skipping
    // tombstoned flows), in (arrival, id) order.
    while (!arrivals_.empty() &&
           (arrivals_.top()->removed ||
            arrivals_.top()->arrival.to_seconds() <= now_s_ + kInstantEps)) {
      PendingFlow* f = arrivals_.top();
      arrivals_.pop();
      if (f->removed) continue;
      active_.push_back(f);
      rates_dirty_ = true;
    }
    if (active_.empty()) {
      // Idle: jump to the next arrival if it falls inside the window.
      if (!arrivals_.empty() &&
          arrivals_.top()->arrival.to_seconds() <= target_s + kInstantEps) {
        now_s_ = std::max(now_s_, arrivals_.top()->arrival.to_seconds());
        continue;
      }
      if (stop_at_target) now_s_ = std::max(now_s_, target_s);
      return;
    }
    refresh_rates();

    // Earliest completion among active flows at these rates.
    double dt_complete = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const double r = rates_[i] / 8.0;  // bytes/sec
      if (r > 0) {
        dt_complete = std::min(dt_complete, active_[i]->remaining / r);
      }
    }
    // Time until the next arrival.
    double dt_arrival = std::numeric_limits<double>::infinity();
    if (!arrivals_.empty()) {
      dt_arrival = arrivals_.top()->arrival.to_seconds() - now_s_;
    }
    const double dt_target = target_s - now_s_;

    const double dt = std::min({dt_complete, dt_arrival, dt_target});
    if (dt <= 0.0) return;  // at the target with nothing due right now
    // Drain bytes over dt, compacting survivors in place (order kept).
    now_s_ += dt;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      PendingFlow* f = active_[i];
      const double r = rates_[i] / 8.0;
      f->remaining -= r * dt;
      if (f->remaining <= kDrainedBytes) {
        FlowResult res;
        res.id = f->id;
        res.src = f->src;
        res.dst = f->dst;
        res.bytes = f->bytes_total;
        res.arrival = f->arrival;
        res.completion = sim::SimTime::from_seconds_f(now_s_);
        results_.push_back(res);
      } else {
        active_[kept] = f;
        rates_[kept] = rates_[i];
        ++kept;
      }
    }
    if (kept < active_.size()) {
      active_.resize(kept);
      rates_.resize(kept);
      rates_dirty_ = true;
    }
  }
}

void FlowLevelSimulator::advance_to(sim::SimTime t) {
  const double target_s = t.to_seconds();
  if (target_s <= now_s_) return;
  step_until(target_s, /*stop_at_target=*/true);
}

void FlowLevelSimulator::run() {
  step_until(std::numeric_limits<double>::infinity(),
             /*stop_at_target=*/false);
}

}  // namespace esim::flowsim
