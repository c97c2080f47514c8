#include "workload/generator.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace esim::workload {

TrafficGenerator::TrafficGenerator(sim::Simulator& sim, std::string name,
                                   std::vector<tcp::Host*> hosts,
                                   const FlowSizeDistribution* sizes,
                                   const TrafficMatrix* matrix,
                                   const Config& config)
    : Component(sim, std::move(name)),
      hosts_{std::move(hosts)},
      sizes_{sizes},
      matrix_{matrix},
      config_{config} {
  if (std::ranges::none_of(hosts_, std::identity{}) || sizes_ == nullptr ||
      matrix_ == nullptr) {
    throw std::invalid_argument("TrafficGenerator: no host, sizes or matrix");
  }
  if (config_.load <= 0 || config_.host_bandwidth_bps <= 0) {
    throw std::invalid_argument("TrafficGenerator: load must be positive");
  }
  // Aggregate arrival rate lambda (flows/sec) such that
  //   lambda * mean_size_bytes * 8 = load * num_hosts * host_bw.
  const double bytes_per_sec = config_.load *
                               static_cast<double>(hosts_.size()) *
                               config_.host_bandwidth_bps / 8.0;
  const double lambda = bytes_per_sec / sizes_->mean();
  mean_gap_ = sim::SimTime::from_ns(
      static_cast<std::int64_t>(1e9 / lambda));
  if (mean_gap_ <= sim::SimTime{}) mean_gap_ = sim::SimTime::from_ns(1);
}

void TrafficGenerator::start() { schedule_next(); }

void TrafficGenerator::schedule_next() {
  for (sim::SimTime at = now();;) {
    const double gap_s = rng().exponential(mean_gap_.to_seconds());
    at += sim::SimTime::from_seconds_f(gap_s);
    if (config_.stop_at != sim::SimTime{} && at >= config_.stop_at) return;
    const auto [src, dst] = matrix_->sample(rng());
    const std::uint64_t bytes = sizes_->sample(rng());
    if (hosts_.at(src) != nullptr) {
      schedule_at(at, [this, src, dst, bytes] { arrive(src, dst, bytes); });
      return;
    }
    // The generator holding src launches this flow under this number.
    if (!admission_filter || admission_filter(src, dst)) ++next_flow_id_;
  }
}

void TrafficGenerator::arrive(net::HostId src, net::HostId dst,
                              std::uint64_t bytes) {
  if (!admission_filter || admission_filter(src, dst)) {
    const std::uint64_t flow_id = next_flow_id_++;
    collector_.on_start(flow_id, src, dst, bytes, now());
    auto* conn = hosts_[src]->open_flow(dst, bytes, flow_id);
    conn->on_complete = [this, flow_id] {
      collector_.on_complete(flow_id, now());
    };
    ++launched_;
  } else {
    ++suppressed_;
  }
  schedule_next();
}

std::vector<TrafficGenerator*> start_traffic(
    const std::vector<sim::Simulator*>& sims,
    const std::vector<tcp::Host*>& hosts,
    const std::vector<std::uint32_t>& partition_of_host,
    const FlowSizeDistribution* sizes, const TrafficMatrix* matrix,
    const TrafficGenerator::Config& config,
    const std::function<bool(net::HostId, net::HostId)>& filter) {
  sim::Rng stream = sims.at(0)->rng();
  for (const sim::Simulator* s : std::span{sims}.subspan(1)) {
    for (std::size_t i = 0; i < s->components().size(); ++i) stream.fork();
  }
  stream = stream.fork();
  std::vector<TrafficGenerator*> gens;
  for (std::uint32_t p = 0; p < sims.size(); ++p) {
    std::vector<tcp::Host*> held = hosts;
    for (std::size_t h = 0; h < partition_of_host.size(); ++h) {
      if (partition_of_host[h] != p) held[h] = nullptr;
    }
    const bool owns = std::ranges::any_of(held, std::identity{});
    if (!owns && !partition_of_host.empty()) continue;
    auto* gen = sims[p]->add_component<TrafficGenerator>(
        "gen" + std::to_string(p), std::move(held), sizes, matrix, config);
    gen->rng() = stream;
    gen->admission_filter = filter;
    gen->start();
    gens.push_back(gen);
  }
  return gens;
}

}  // namespace esim::workload
