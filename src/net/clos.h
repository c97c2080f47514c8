// Clos topology arithmetic: sizes, id mappings, and deterministic path
// replay.
//
// This header is pure topology math, shared by three consumers:
//   * the builders in src/core that instantiate switches/links/hosts,
//   * the micro-model feature extractor, which needs "the ToR, Cluster and
//     Core switches that the packet would pass through" (paper §4.2)
//     without simulating the hops, and
//   * tests, which cross-check replayed paths against packets actually
//     forwarded.
//
// One spec covers both topologies the paper uses: a 3-layer Clos (Figure 2)
// when `clusters > 1`, and a leaf-spine (Figure 1's motivation experiment)
// as the degenerate single-cluster case with no core layer.
//
// Host numbering is cluster-major; switch ids are dense with all ToRs
// first, then all Aggs (the paper's "Cluster switches"), then Cores.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"

namespace esim::net {

/// Parameters of a Clos/leaf-spine fabric.
struct ClosSpec {
  /// Number of clusters; 1 makes this a leaf-spine with no core layer.
  std::uint32_t clusters = 2;
  /// ToRs per cluster.
  std::uint32_t tors_per_cluster = 2;
  /// Aggregation ("Cluster") switches per cluster; every ToR connects to
  /// every Agg of its cluster.
  std::uint32_t aggs_per_cluster = 2;
  /// Servers per ToR.
  std::uint32_t hosts_per_tor = 4;
  /// Core switches; every Agg connects to every Core. Must be 0 iff
  /// clusters == 1.
  std::uint32_t cores = 2;

  /// Throws std::invalid_argument when inconsistent.
  void validate() const;

  // --- sizes ---
  std::uint32_t hosts_per_cluster() const {
    return tors_per_cluster * hosts_per_tor;
  }
  std::uint32_t total_hosts() const { return clusters * hosts_per_cluster(); }
  std::uint32_t total_tors() const { return clusters * tors_per_cluster; }
  std::uint32_t total_aggs() const { return clusters * aggs_per_cluster; }
  std::uint32_t total_switches() const {
    return total_tors() + total_aggs() + cores;
  }

  // --- host mapping ---
  std::uint32_t cluster_of_host(HostId h) const {
    return h / hosts_per_cluster();
  }
  /// ToR index within the host's cluster.
  std::uint32_t tor_index_of_host(HostId h) const {
    return (h % hosts_per_cluster()) / hosts_per_tor;
  }
  /// The global switch id of the host's ToR.
  SwitchId tor_of_host(HostId h) const {
    return tor_id(cluster_of_host(h), tor_index_of_host(h));
  }
  /// First host attached to a given ToR.
  HostId first_host_of_tor(std::uint32_t cluster, std::uint32_t tor) const {
    return cluster * hosts_per_cluster() + tor * hosts_per_tor;
  }

  // --- switch id mapping (dense: ToRs, then Aggs, then Cores) ---
  SwitchId tor_id(std::uint32_t cluster, std::uint32_t tor) const {
    return cluster * tors_per_cluster + tor;
  }
  SwitchId agg_id(std::uint32_t cluster, std::uint32_t agg) const {
    return total_tors() + cluster * aggs_per_cluster + agg;
  }
  SwitchId core_id(std::uint32_t core) const { return total_aggs() + total_tors() + core; }

  bool is_tor(SwitchId s) const { return s < total_tors(); }
  bool is_agg(SwitchId s) const {
    return s >= total_tors() && s < total_tors() + total_aggs();
  }
  bool is_core(SwitchId s) const {
    return s >= total_tors() + total_aggs() && s < total_switches();
  }
  /// Cluster owning a ToR or Agg id; throws for core ids.
  std::uint32_t cluster_of_switch(SwitchId s) const;

  // --- display names used by builders ("c0.tor1", "core3", ...) ---
  std::string tor_name(std::uint32_t cluster, std::uint32_t tor) const;
  std::string agg_name(std::uint32_t cluster, std::uint32_t agg) const;
  std::string core_name(std::uint32_t core) const;
  std::string host_name(HostId h) const;
};

/// The ordered switch sequence a packet traverses, as replayed from the
/// header and routing knowledge alone (no simulation state).
struct ClosPath {
  /// At most ToR, Agg, Core, Agg, ToR.
  SwitchId hops[5] = {0, 0, 0, 0, 0};
  std::uint32_t len = 0;

  bool operator==(const ClosPath&) const = default;
};

/// Replays the deterministic ECMP forwarding decisions for `flow` and
/// returns the switches the packet would traverse, in order. Matches the
/// FIBs constructed by core/network exactly (tested). Requires
/// src_host != dst_host, both in range.
ClosPath compute_path(const ClosSpec& spec, const FlowKey& flow);

}  // namespace esim::net
