// Poisson open-loop traffic generator.
//
// Flows arrive as a Poisson process whose rate is derived from a target
// offered load (fraction of aggregate host uplink capacity), with sizes
// from a FlowSizeDistribution and endpoints from a TrafficMatrix — the
// standard methodology of the data center transport literature and the
// workload of the paper's evaluation (§6: "traffic patterns are drawn from
// a well-known trace of datacenter web traffic").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/component.h"
#include "stats/collectors.h"
#include "tcp/host.h"
#include "workload/flow_size.h"
#include "workload/traffic_matrix.h"

namespace esim::workload {

/// Schedules flow arrivals and launches TCP flows on the topology's hosts.
/// Launched flows are numbered 1, 2, ... in launch order.
class TrafficGenerator : public sim::Component {
 public:
  struct Config {
    /// Offered load as a fraction of aggregate host uplink bandwidth,
    /// e.g. 0.3 = 30%.
    double load = 0.3;
    /// Host uplink bandwidth used in the load calculation.
    double host_bandwidth_bps = 10e9;
    /// Stop creating new flows after this time (0 = never).
    sim::SimTime stop_at;
  };

  /// `hosts[i]` must be the host with id i (dense). The generator keeps
  /// references; the caller keeps ownership of distribution and matrix.
  TrafficGenerator(sim::Simulator& sim, std::string name,
                   std::vector<tcp::Host*> hosts,
                   const FlowSizeDistribution* sizes,
                   const TrafficMatrix* matrix, const Config& config);

  /// Starts the arrival process at the current simulation time.
  void start();

  /// Flow lifecycle records (starts and completions).
  const stats::FlowCollector& flows() const { return collector_; }
  stats::FlowCollector& flows() { return collector_; }

  /// Number of flows launched so far.
  std::uint64_t launched() const { return launched_; }

  /// Number of arrivals suppressed by the admission filter.
  std::uint64_t suppressed() const { return suppressed_; }

  /// Optional admission filter: return false to skip a sampled (src, dst)
  /// pair. The hybrid simulator uses this to elide traffic entirely
  /// between approximated clusters (paper §6.2, savings #2); the arrival
  /// *process* is unchanged, the flow is simply not instantiated.
  std::function<bool(net::HostId src, net::HostId dst)> admission_filter;

  /// Mean inter-arrival gap implied by the configuration.
  sim::SimTime mean_interarrival() const { return mean_gap_; }

 private:
  void schedule_next();
  void arrive();

  std::vector<tcp::Host*> hosts_;
  const FlowSizeDistribution* sizes_;
  const TrafficMatrix* matrix_;
  Config config_;
  stats::FlowCollector collector_;
  sim::SimTime mean_gap_;
  std::uint64_t launched_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t next_flow_id_ = 1;
};

}  // namespace esim::workload
