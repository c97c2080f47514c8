// Clos network assembly: hosts, switches, ApproxClusters, links, FIBs.
//
// A build is a ClosSpec plus two choices. The first is which clusters run
// at packet fidelity: all of them, or one cluster plus the cores with
// every other cluster's fabric replaced by an ApproxCluster (the paper's
// Figure 3 configuration). The second is the engine and placement: one
// Simulator, or a ParallelEngine whose partitions each own the components
// placed on them. The four entry points below fix those choices and share
// one wiring routine, so every build:
//
//   * creates components in one canonical order on each partition —
//     hosts; each packet cluster's ToRs, then its aggs; cores;
//     ApproxClusters; then links (host<->ToR or host->ApproxCluster,
//     ToR<->agg, agg<->core, core->ApproxCluster core-major), on which
//     no random stream depends (sim/random.h);
//   * orders FIB candidates canonically, so deterministic ECMP picks the
//     paths net::compute_path replays;
//   * under PDES, registers a remote scheduler on every link whose ends
//     live in different partitions, and programs the engine's per-pair
//     lookahead from the channels it wired: L[a][b] is the minimum
//     propagation over a -> b cross links, max(min_latency_s, lookahead)
//     for ApproxCluster -> core deliveries, and
//     ParallelEngine::infinite_lookahead() for pairs with no channel.
//
// Placement: all-packet fabrics follow make_partition_plan (hosts ride
// with their ToR). Hybrids keep the packet cluster and the cores on
// partition 0 and spread the approximated clusters — self-contained
// islands — over partitions 1..P-1 with assign_balanced (§6.2: "because
// the interdependencies between cluster fabric switches are removed,
// parallel execution provides better speedups here").
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "approx/micro_model.h"
#include "core/approx_cluster.h"
#include "core/partitioner.h"
#include "net/clos.h"
#include "net/link.h"
#include "net/switch.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "tcp/host.h"

namespace esim::core {

/// Link/queue/TCP parameters shared by all builds.
struct NetworkConfig {
  net::ClosSpec spec;

  /// Host NIC uplink (host -> ToR): big TX buffer so a burst of one
  /// congestion window never self-drops at the sender.
  net::Link::Config host_uplink{
      .bandwidth_bps = 10e9,
      .propagation = sim::SimTime::from_us(1),
      .queue_capacity_bytes = 4'000'000,
  };

  /// Switch output ports (ToR -> host, ToR <-> Agg, Agg <-> Core): shallow
  /// data-center buffers (~100 full packets), where congestion drops
  /// happen.
  net::Link::Config fabric_link{
      .bandwidth_bps = 10e9,
      .propagation = sim::SimTime::from_us(1),
      .queue_capacity_bytes = 150'000,
  };

  /// Agg <-> Core and core -> ApproxCluster links; unset means "same as
  /// fabric_link". Setting a longer propagation here models the longer
  /// inter-cluster runs of a real fabric — and, under PDES, widens the
  /// per-pair lookahead of exactly the links a cut-minimizing placement
  /// (or a hybrid's island placement) leaves crossing.
  std::optional<net::Link::Config> core_link;

  /// The link config used for agg <-> core and core -> ApproxCluster
  /// wiring.
  const net::Link::Config& core_link_config() const {
    return core_link.has_value() ? *core_link : fabric_link;
  }

  /// TCP parameters for every host.
  tcp::TcpConnection::Config tcp;

  /// When false, every switch hashes ECMP on (src_host, dst_host) only —
  /// ports zeroed — so all flows between a host pair share one path. See
  /// Switch::set_port_sensitive_ecmp; phase memoization (src/memo) uses
  /// this for dense cache hits on multi-spine fabrics.
  bool ecmp_port_sensitive = true;
};

/// The cluster a hybrid build keeps at packet fidelity. The run paths
/// measure RTTs there and elide flows between the other clusters.
inline constexpr std::uint32_t kFullCluster = 0;

/// Extra knobs for the approximated clusters of a hybrid build.
struct HybridConfig {
  NetworkConfig net;
  /// ApproxCluster behaviour (spec/cluster fields are filled per cluster).
  ApproxCluster::Config approx;
};

/// One agg<->core link pair (both directions), with its coordinates.
struct CoreAttachment {
  std::uint32_t cluster = 0;
  std::uint32_t agg = 0;   // index within the cluster
  std::uint32_t core = 0;  // core switch index
  net::Link* up = nullptr;    // agg -> core
  net::Link* down = nullptr;  // core -> agg
};

/// Handles to everything a build created; raw pointers are owned by the
/// simulators. Entries for components a build does not create are
/// nullptr: the ToR/agg switches and host downlinks of approximated
/// clusters, and the ApproxCluster slot of every packet cluster.
struct BuiltNetwork {
  net::ClosSpec spec;
  std::vector<tcp::Host*> hosts;            // dense by HostId
  std::vector<net::Switch*> switches;       // dense by SwitchId
  std::vector<ApproxCluster*> clusters;     // dense by cluster index
  std::vector<net::Link*> host_uplinks;     // [HostId] -> ToR / ApproxCluster
  std::vector<net::Link*> host_downlinks;   // [HostId] ToR -> host
  std::vector<CoreAttachment> core_links;   // packet clusters only
  /// Packet clusters' ToR<->Agg links, tagged with their cluster (both
  /// directions).
  std::vector<std::pair<std::uint32_t, net::Link*>> intra_fabric_links;

  /// Convenience: the agg->core uplinks of one cluster.
  std::vector<const CoreAttachment*> attachments_of(
      std::uint32_t cluster) const;
};

/// A build across a ParallelEngine's partitions: the network plus where
/// each of its components lives.
struct PartitionedNetwork {
  BuiltNetwork net;
  /// Partition owning each switch (dense by SwitchId; 0 for switches an
  /// approximated cluster does not have).
  std::vector<std::uint32_t> partition_of_switch;
  /// Partition owning each host (its ToR's, or its ApproxCluster's).
  std::vector<std::uint32_t> partition_of_host;
  /// Partition owning each ApproxCluster (dense by cluster index; 0 for
  /// packet clusters, which have none).
  std::vector<std::uint32_t> partition_of_cluster;
  /// Directed links whose ends live in different partitions.
  std::uint64_t cross_partition_links = 0;
};

/// The engine's partition simulators, in partition order.
std::vector<sim::Simulator*> partition_sims(sim::ParallelEngine& engine);

/// Builds every cluster at packet fidelity in `sim`. The spec must
/// validate.
BuiltNetwork build_full_network(sim::Simulator& sim,
                                const NetworkConfig& config);

/// Builds every cluster at packet fidelity across the engine's
/// partitions, placing switches by make_partition_plan(spec, P, policy).
/// Throws std::invalid_argument when the engine lookahead exceeds a host,
/// fabric or core link propagation.
PartitionedNetwork build_clos_partitioned(
    sim::ParallelEngine& engine, const NetworkConfig& config,
    PlacementPolicy policy = PlacementPolicy::graph_cut);

/// Builds the hybrid topology in `sim`: kFullCluster and the cores at
/// packet fidelity, every other cluster an ApproxCluster holding its own
/// copy of the trained models. Requires spec.clusters >= 2.
BuiltNetwork build_hybrid_network(sim::Simulator& sim,
                                  const HybridConfig& config,
                                  const approx::MicroModel& ingress_model,
                                  const approx::MicroModel& egress_model);

/// The hybrid topology across the engine's partitions. On top of the
/// link rule of build_clos_partitioned, the engine lookahead must not
/// exceed the model's min_latency_s; throws std::invalid_argument
/// otherwise.
PartitionedNetwork build_hybrid_network_partitioned(
    sim::ParallelEngine& engine, const HybridConfig& config,
    const approx::MicroModel& ingress_model,
    const approx::MicroModel& egress_model);

}  // namespace esim::core
