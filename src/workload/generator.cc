#include "workload/generator.h"

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
  if (hosts_.empty() || sizes_ == nullptr || matrix_ == nullptr) {
    throw std::invalid_argument("TrafficGenerator: missing pieces");
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
  const double gap_s = rng().exponential(mean_gap_.to_seconds());
  const auto gap = sim::SimTime::from_seconds_f(gap_s);
  const sim::SimTime at = now() + gap;
  if (config_.stop_at != sim::SimTime{} && at >= config_.stop_at) return;
  schedule_at(at, [this] { arrive(); });
}

void TrafficGenerator::arrive() {
  const auto [src, dst] = matrix_->sample(rng());
  const std::uint64_t bytes = sizes_->sample(rng());
  if (!admission_filter || admission_filter(src, dst)) {
    tcp::Host* host = hosts_.at(src);
    const std::uint64_t flow_id = next_flow_id_++;
    collector_.on_start(flow_id, src, dst, bytes, now());
    auto* conn = host->open_flow(dst, bytes, flow_id);
    conn->on_complete = [this, flow_id] {
      collector_.on_complete(flow_id, now());
    };
    ++launched_;
  } else {
    ++suppressed_;
  }
  schedule_next();
}

}  // namespace esim::workload
