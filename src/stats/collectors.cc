#include "stats/collectors.h"

#include <stdexcept>

namespace esim::stats {

void LatencyCollector::record(sim::SimTime latency) {
  const double s = latency.to_seconds();
  summary_.add(s);
  cdf_.add(s);
}

void FlowCollector::on_start(std::uint64_t flow_id, std::uint32_t src,
                             std::uint32_t dst, std::uint64_t bytes,
                             sim::SimTime at) {
  if (records_.empty()) first_id_ = flow_id;
  if (flow_id < first_id_) {
    throw std::invalid_argument("FlowCollector: flow id " +
                                std::to_string(flow_id) +
                                " is below the first id started, " +
                                std::to_string(first_id_));
  }
  const std::uint64_t slot = flow_id - first_id_;
  if (slot >= (1ULL << 32)) {
    throw std::invalid_argument("FlowCollector: flow id " +
                                std::to_string(flow_id) +
                                " is 2^32 or more past the first id started, " +
                                std::to_string(first_id_));
  }
  if (slot >= index_.size()) index_.resize(slot + 1, -1);
  index_[slot] = static_cast<std::int64_t>(records_.size());
  FlowRecord r;
  r.flow_id = flow_id;
  r.src_host = src;
  r.dst_host = dst;
  r.bytes = bytes;
  r.start = at;
  records_.push_back(r);
}

void FlowCollector::on_complete(std::uint64_t flow_id, sim::SimTime at) {
  if (flow_id < first_id_ || flow_id - first_id_ >= index_.size()) return;
  const std::int64_t pos = index_[flow_id - first_id_];
  if (pos < 0) return;
  FlowRecord& r = records_[static_cast<std::size_t>(pos)];
  if (r.completed) return;
  r.end = at;
  r.completed = true;
  ++completed_;
}

EmpiricalCdf FlowCollector::fct_cdf() const {
  EmpiricalCdf cdf;
  for (const auto& r : records_) {
    if (r.completed) cdf.add(r.fct().to_seconds());
  }
  return cdf;
}

double FlowCollector::mean_goodput_bps() const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (!r.completed) continue;
    const double secs = r.fct().to_seconds();
    if (secs <= 0.0) continue;
    total += static_cast<double>(r.bytes) * 8.0 / secs;
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace esim::stats
