#include "core/partitioner.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace esim::core {
namespace {

using net::ClosSpec;
using net::SwitchId;

/// Undirected switch-level multigraph: adjacency with per-edge
/// multiplicity (a ToR-agg pair contributes 2 directed links = weight 2).
struct LinkGraph {
  struct Edge {
    std::uint32_t to;
    std::uint32_t links;  // directed links on this pair (always 2 here)
  };
  std::vector<std::vector<Edge>> adj;
  std::vector<std::uint64_t> node_weight;
  std::uint64_t total_directed_links = 0;

  void add_pair(std::uint32_t a, std::uint32_t b) {
    adj[a].push_back({b, 2});
    adj[b].push_back({a, 2});
    total_directed_links += 2;
  }
};

LinkGraph build_link_graph(const ClosSpec& spec) {
  LinkGraph g;
  g.adj.resize(spec.total_switches());
  g.node_weight.resize(spec.total_switches());
  // Event load concentrates at ToRs (their hosts' TCP stacks execute in
  // the same partition); aggs and cores only forward.
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      g.node_weight[spec.tor_id(c, t)] = 1 + spec.hosts_per_tor;
    }
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      g.node_weight[spec.agg_id(c, a)] = 1;
    }
  }
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    g.node_weight[spec.core_id(k)] = 1;
  }
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
        g.add_pair(spec.tor_id(c, t), spec.agg_id(c, a));
      }
    }
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      for (std::uint32_t k = 0; k < spec.cores; ++k) {
        g.add_pair(spec.agg_id(c, a), spec.core_id(k));
      }
    }
  }
  return g;
}

std::uint64_t count_cut(const LinkGraph& g,
                        const std::vector<std::uint32_t>& part) {
  std::uint64_t cut = 0;
  for (std::uint32_t v = 0; v < g.adj.size(); ++v) {
    for (const auto& e : g.adj[v]) {
      if (v < e.to && part[v] != part[e.to]) cut += e.links;
    }
  }
  return cut;
}

std::vector<std::uint32_t> round_robin_assignment(const ClosSpec& spec,
                                                  std::uint32_t P) {
  // The historical placement: rack r -> partition r % P; aggs and cores
  // keep rotating after (cluster-major).
  std::vector<std::uint32_t> part(spec.total_switches(), 0);
  std::uint32_t next = 0;
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      part[spec.tor_id(c, t)] = next++ % P;
    }
  }
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      part[spec.agg_id(c, a)] = next++ % P;
    }
  }
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    part[spec.core_id(k)] = next++ % P;
  }
  return part;
}

/// Locality order: each cluster's ToRs then aggs, clusters ascending,
/// cores last — contiguous chunks of this order keep clusters whole.
std::vector<std::uint32_t> locality_order(const ClosSpec& spec) {
  std::vector<std::uint32_t> order;
  order.reserve(spec.total_switches());
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      order.push_back(spec.tor_id(c, t));
    }
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      order.push_back(spec.agg_id(c, a));
    }
  }
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    order.push_back(spec.core_id(k));
  }
  return order;
}

std::vector<std::uint32_t> contiguous_seed(const ClosSpec& spec,
                                           const LinkGraph& g,
                                           std::uint32_t P) {
  const auto order = locality_order(spec);
  std::vector<std::uint32_t> part(spec.total_switches(), 0);
  std::uint64_t remaining_weight = 0;
  for (const auto w : g.node_weight) remaining_weight += w;

  std::uint32_t p = 0;
  std::uint64_t bin_weight = 0;
  std::uint32_t remaining_bins = P;
  for (const std::uint32_t v : order) {
    const std::uint64_t w = g.node_weight[v];
    // Quota for the current bin given what is left to place.
    const std::uint64_t quota =
        (remaining_weight + remaining_bins - 1) / remaining_bins;
    // Close the bin when it has reached its quota, or when adding v would
    // overshoot it by more than leaving v out undershoots — never close
    // the last bin, and never close an empty one.
    if (p + 1 < P && bin_weight > 0) {
      const bool close =
          bin_weight >= quota ||
          (bin_weight + w > quota &&
           (bin_weight + w) - quota > quota - bin_weight);
      if (close) {
        remaining_weight -= bin_weight;
        --remaining_bins;
        ++p;
        bin_weight = 0;
      }
    }
    part[v] = p;
    bin_weight += w;
  }
  return part;
}

/// Greedy KL/FM refinement: move nodes between partitions while each move
/// strictly reduces the cut, or keeps it equal while strictly improving
/// balance, under a weight cap. Deterministic: candidate moves are ranked
/// by (gain desc, node id asc, target partition asc).
void refine(const ClosSpec& spec, const LinkGraph& g, std::uint32_t P,
            std::vector<std::uint32_t>& part) {
  const std::uint32_t N = spec.total_switches();
  std::vector<std::uint64_t> part_weight(P, 0);
  std::uint64_t total_weight = 0;
  for (std::uint32_t v = 0; v < N; ++v) {
    part_weight[part[v]] += g.node_weight[v];
    total_weight += g.node_weight[v];
  }
  // Allow ~30% imbalance over the ideal share; every partition must also
  // be able to hold at least the heaviest single node.
  std::uint64_t max_node = 0;
  for (const auto w : g.node_weight) max_node = std::max(max_node, w);
  const std::uint64_t cap =
      std::max<std::uint64_t>((total_weight + P - 1) / P * 13 / 10, max_node);
  // No partition may be drained below half its ideal share: cut chasing
  // must not starve a worker of load (an empty partition is wasted
  // parallelism even if it shaves a link off the cut).
  const std::uint64_t floor = total_weight / P / 2;

  // Connection weight of node v into each partition (links to neighbors
  // placed there); recomputed per candidate — N and degree are both small
  // (hundreds) next to the simulation the plan serves.
  std::vector<std::int64_t> conn(P);
  const int kMaxPasses = 32;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool moved = false;
    for (std::uint32_t v = 0; v < N; ++v) {
      const std::uint32_t from = part[v];
      if (part_weight[from] - g.node_weight[v] < floor) continue;
      std::fill(conn.begin(), conn.end(), 0);
      for (const auto& e : g.adj[v]) conn[part[e.to]] += e.links;

      std::int64_t best_gain = 0;
      std::uint32_t best_to = from;
      bool best_balance_gain = false;
      for (std::uint32_t to = 0; to < P; ++to) {
        if (to == from) continue;
        if (part_weight[to] + g.node_weight[v] > cap) continue;
        const std::int64_t gain = conn[to] - conn[from];
        const bool balance_gain =
            part_weight[to] + g.node_weight[v] < part_weight[from];
        if (gain > 0 && gain > best_gain) {
          best_gain = gain;
          best_to = to;
          best_balance_gain = balance_gain;
        } else if (gain == 0 && best_to == from && balance_gain) {
          // Zero-gain move that strictly improves balance: admissible,
          // terminates because imbalance strictly decreases.
          best_gain = 0;
          best_to = to;
          best_balance_gain = true;
        }
      }
      (void)best_balance_gain;
      if (best_to != from) {
        part_weight[from] -= g.node_weight[v];
        part_weight[best_to] += g.node_weight[v];
        part[v] = best_to;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

PartitionPlan make_partition_plan(const net::ClosSpec& spec,
                                  std::uint32_t partitions,
                                  PlacementPolicy policy) {
  spec.validate();
  if (partitions == 0) {
    throw std::invalid_argument("make_partition_plan: need >= 1 partition");
  }
  const LinkGraph g = build_link_graph(spec);

  PartitionPlan plan;
  plan.partitions = partitions;
  plan.total_links = g.total_directed_links;
  if (partitions == 1) {
    plan.partition_of_switch.assign(spec.total_switches(), 0);
    plan.cut_links = 0;
    return plan;
  }
  switch (policy) {
    case PlacementPolicy::round_robin:
      plan.partition_of_switch = round_robin_assignment(spec, partitions);
      break;
    case PlacementPolicy::graph_cut: {
      plan.partition_of_switch = contiguous_seed(spec, g, partitions);
      refine(spec, g, partitions, plan.partition_of_switch);
      break;
    }
  }
  plan.cut_links = count_cut(g, plan.partition_of_switch);
  return plan;
}

std::vector<std::uint32_t> assign_balanced(
    const std::vector<std::uint64_t>& weights, std::uint32_t partitions) {
  if (partitions == 0) {
    throw std::invalid_argument("assign_balanced: need >= 1 partition");
  }
  std::vector<std::uint32_t> out(weights.size(), 0);
  std::vector<std::uint64_t> bin(partitions, 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    std::uint32_t lightest = 0;
    for (std::uint32_t p = 1; p < partitions; ++p) {
      if (bin[p] < bin[lightest]) lightest = p;
    }
    out[i] = lightest;
    bin[lightest] += weights[i];
  }
  return out;
}

}  // namespace esim::core
