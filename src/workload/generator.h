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
#include "sim/random.h"
#include "stats/collectors.h"
#include "tcp/host.h"
#include "workload/flow_size.h"
#include "workload/traffic_matrix.h"

namespace esim::workload {

/// Schedules flow arrivals and launches TCP flows on the topology's hosts.
/// Each arrival is drawn whole (gap, endpoints, size) when scheduled, and
/// admitted ones are numbered 1, 2, ... A null host-table entry is another
/// partition's host: its arrivals cost no event, and only take a number.
/// Its arrivals derive from the simulator's seed and its rank among the
/// generators on that simulator (sim::derive_stream): the first generator
/// draws the same arrivals in every build and partition at one seed.
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

  /// `hosts[i]` is the host with id i, or null if another generator holds
  /// it; holding none throws, as the draw loop could never end. The
  /// generator keeps references; the caller owns distribution and matrix.
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

  /// Number of held hosts' arrivals suppressed by the admission filter.
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
  void arrive(net::HostId src, net::HostId dst, std::uint64_t bytes);

  std::vector<tcp::Host*> hosts_;
  const FlowSizeDistribution* sizes_;
  const TrafficMatrix* matrix_;
  Config config_;
  sim::Rng rng_;
  stats::FlowCollector collector_;
  sim::SimTime mean_gap_;
  std::uint64_t launched_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t next_flow_id_ = 1;
};

/// Starts one generator on each simulator of `sims` that owns a host,
/// holding exactly its hosts (`partition_of_host` indexes `sims`; empty
/// for one simulator), and returns them. On simulators that hold no
/// generator yet, every partition draws the sequential run's arrivals,
/// so a partitioned run launches the sequential flows.
std::vector<TrafficGenerator*> start_traffic(
    const std::vector<sim::Simulator*>& sims,
    const std::vector<tcp::Host*>& hosts,
    const std::vector<std::uint32_t>& partition_of_host,
    const FlowSizeDistribution* sizes, const TrafficMatrix* matrix,
    const TrafficGenerator::Config& config,
    const std::function<bool(net::HostId, net::HostId)>& filter = {});

}  // namespace esim::workload
