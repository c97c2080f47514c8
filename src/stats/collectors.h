// Measurement collectors wired into the simulation: RTT samples, flow
// completion times, drop accounting, and windowed rates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "stats/cdf.h"
#include "stats/summary.h"

namespace esim::stats {

/// Collects end-to-end latency/RTT samples (in seconds) with both a
/// streaming summary and the full empirical distribution.
class LatencyCollector {
 public:
  /// Records one latency sample.
  void record(sim::SimTime latency);

  /// Streaming summary over all samples (seconds).
  const Summary& summary() const { return summary_; }

  /// Full empirical distribution (seconds).
  const EmpiricalCdf& cdf() const { return cdf_; }

 private:
  Summary summary_;
  EmpiricalCdf cdf_;
};

/// Per-flow completion record.
struct FlowRecord {
  std::uint64_t flow_id = 0;
  std::uint32_t src_host = 0;
  std::uint32_t dst_host = 0;
  std::uint64_t bytes = 0;
  sim::SimTime start;
  sim::SimTime end;
  bool completed = false;

  /// Flow completion time; only meaningful when completed.
  sim::SimTime fct() const { return end - start; }
};

/// Collects flow lifecycle records and derives FCT statistics.
class FlowCollector {
 public:
  /// Notes a flow start. Records are indexed by id relative to the first
  /// id started, so ids may begin anywhere; an id below that first one,
  /// or 2^32 or more above it, throws std::invalid_argument.
  void on_start(std::uint64_t flow_id, std::uint32_t src, std::uint32_t dst,
                std::uint64_t bytes, sim::SimTime at);

  /// Notes a flow completion; ignored if the flow was never started.
  void on_complete(std::uint64_t flow_id, sim::SimTime at);

  /// All records, in start order.
  const std::vector<FlowRecord>& records() const { return records_; }

  /// Number of completed flows.
  std::size_t completed_count() const { return completed_; }

  /// FCT distribution over completed flows (seconds).
  EmpiricalCdf fct_cdf() const;

  /// Mean goodput over completed flows in bits/sec.
  double mean_goodput_bps() const;

 private:
  std::vector<FlowRecord> records_;
  // flow_id - first_id_ -> records_ position (or -1)
  std::vector<std::int64_t> index_;
  std::uint64_t first_id_ = 0;
  std::size_t completed_ = 0;
};

/// Counts packet-level outcomes in one region of the network.
struct PacketCounter {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;

  /// Fraction of sent packets that were dropped (0 when nothing sent).
  double drop_rate() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(dropped) / static_cast<double>(sent);
  }
};

}  // namespace esim::stats
