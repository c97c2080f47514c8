#include "core/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/clos.h"

namespace esim::core {
namespace {

net::ClosSpec fat_tree_spec() {
  // tors_per_cluster > cores so cluster co-location is the true min-cut
  // (each agg has more intra-cluster links than core links).
  net::ClosSpec spec;
  spec.clusters = 4;
  spec.tors_per_cluster = 4;
  spec.aggs_per_cluster = 2;
  spec.hosts_per_tor = 2;
  spec.cores = 2;
  return spec;
}

net::ClosSpec leaf_spine_spec() {
  net::ClosSpec spec;
  spec.clusters = 1;
  spec.tors_per_cluster = 8;
  spec.aggs_per_cluster = 4;
  spec.hosts_per_tor = 2;
  spec.cores = 0;
  return spec;
}

std::uint64_t count_cut(const net::ClosSpec& spec,
                        const std::vector<std::uint32_t>& part) {
  // Independent recount of directed crossing fabric links.
  std::uint64_t cut = 0;
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
        if (part[spec.tor_id(c, t)] != part[spec.agg_id(c, a)]) cut += 2;
      }
    }
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      for (std::uint32_t k = 0; k < spec.cores; ++k) {
        if (part[spec.agg_id(c, a)] != part[spec.core_id(k)]) cut += 2;
      }
    }
  }
  return cut;
}

TEST(Partitioner, ValidatesArguments) {
  EXPECT_THROW(make_partition_plan(fat_tree_spec(), 0,
                                   PlacementPolicy::graph_cut),
               std::invalid_argument);
}

TEST(Partitioner, SinglePartitionHasNoCut) {
  const auto plan =
      make_partition_plan(fat_tree_spec(), 1, PlacementPolicy::graph_cut);
  EXPECT_EQ(plan.cut_links, 0u);
  for (auto p : plan.partition_of_switch) EXPECT_EQ(p, 0u);
}

TEST(Partitioner, ReportsAccurateCutAccounting) {
  const auto spec = fat_tree_spec();
  for (auto policy :
       {PlacementPolicy::round_robin, PlacementPolicy::graph_cut}) {
    const auto plan = make_partition_plan(spec, 4, policy);
    ASSERT_EQ(plan.partition_of_switch.size(), spec.total_switches());
    // total = 2*(tor-agg) + 2*(agg-core), both directions.
    const std::uint64_t expect_total =
        2ull * spec.clusters * spec.tors_per_cluster * spec.aggs_per_cluster +
        2ull * spec.clusters * spec.aggs_per_cluster * spec.cores;
    EXPECT_EQ(plan.total_links, expect_total);
    EXPECT_EQ(plan.cut_links, count_cut(spec, plan.partition_of_switch));
    for (auto p : plan.partition_of_switch) EXPECT_LT(p, 4u);
  }
}

TEST(Partitioner, GraphCutNeverWorseThanRoundRobin) {
  const std::vector<net::ClosSpec> specs{fat_tree_spec(), leaf_spine_spec()};
  for (const auto& spec : specs) {
    for (std::uint32_t P : {2u, 3u, 4u, 8u}) {
      const auto rr =
          make_partition_plan(spec, P, PlacementPolicy::round_robin);
      const auto gc = make_partition_plan(spec, P, PlacementPolicy::graph_cut);
      EXPECT_LE(gc.cut_links, rr.cut_links)
          << "P=" << P << " clusters=" << spec.clusters;
    }
  }
}

TEST(Partitioner, GraphCutBeatsRoundRobinOnMultiClusterFatTree) {
  // Round-robin splits every cluster across every partition; graph-cut
  // keeps clusters whole so only agg<->core links cross.
  const auto spec = fat_tree_spec();
  const auto rr = make_partition_plan(spec, 4, PlacementPolicy::round_robin);
  const auto gc = make_partition_plan(spec, 4, PlacementPolicy::graph_cut);
  EXPECT_LT(gc.cut_links, rr.cut_links);
  // Cluster co-location: all switches of a cluster share one partition.
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    const auto home = gc.partition_of_switch[spec.tor_id(c, 0)];
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      EXPECT_EQ(gc.partition_of_switch[spec.tor_id(c, t)], home);
    }
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      EXPECT_EQ(gc.partition_of_switch[spec.agg_id(c, a)], home);
    }
  }
}

TEST(Partitioner, DeterministicAcrossCalls) {
  const auto spec = fat_tree_spec();
  for (std::uint32_t P : {2u, 4u, 7u}) {
    const auto a = make_partition_plan(spec, P, PlacementPolicy::graph_cut);
    const auto b = make_partition_plan(spec, P, PlacementPolicy::graph_cut);
    EXPECT_EQ(a.partition_of_switch, b.partition_of_switch);
    EXPECT_EQ(a.cut_links, b.cut_links);
  }
}

TEST(Partitioner, EveryPartitionOwnsWork) {
  // The balance floor must keep refinement from draining a partition:
  // every partition keeps at least one ToR (and with it, hosts).
  const auto spec = fat_tree_spec();
  for (std::uint32_t P : {2u, 3u, 4u}) {
    const auto plan = make_partition_plan(spec, P, PlacementPolicy::graph_cut);
    std::vector<int> tors_in(P, 0);
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
        ++tors_in[plan.partition_of_switch[spec.tor_id(c, t)]];
      }
    }
    for (std::uint32_t p = 0; p < P; ++p) {
      EXPECT_GT(tors_in[p], 0) << "P=" << P << " partition " << p;
    }
  }
}

TEST(Partitioner, MorePartitionsThanNodesStillValid) {
  net::ClosSpec spec = leaf_spine_spec();
  spec.tors_per_cluster = 2;
  spec.aggs_per_cluster = 1;  // 3 switches total
  const auto plan = make_partition_plan(spec, 8, PlacementPolicy::graph_cut);
  ASSERT_EQ(plan.partition_of_switch.size(), 3u);
  for (auto p : plan.partition_of_switch) EXPECT_LT(p, 8u);
  EXPECT_EQ(plan.cut_links, count_cut(spec, plan.partition_of_switch));
}

TEST(Partitioner, PartitionOfHostFollowsTor) {
  const auto spec = fat_tree_spec();
  const auto plan = make_partition_plan(spec, 4, PlacementPolicy::graph_cut);
  for (net::HostId h = 0; h < spec.total_hosts(); ++h) {
    EXPECT_EQ(plan.partition_of_host(spec, h),
              plan.partition_of_switch[spec.tor_of_host(h)]);
  }
}

TEST(Partitioner, RoundRobinMatchesLegacyRackModulo) {
  const auto spec = fat_tree_spec();
  const auto plan = make_partition_plan(spec, 3, PlacementPolicy::round_robin);
  // Legacy layout: a running counter mod P over all ToRs (cluster-major),
  // then all aggs (cluster-major), then cores.
  std::uint32_t rack = 0;
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      EXPECT_EQ(plan.partition_of_switch[spec.tor_id(c, t)], rack++ % 3);
    }
  }
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      EXPECT_EQ(plan.partition_of_switch[spec.agg_id(c, a)], rack++ % 3);
    }
  }
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    EXPECT_EQ(plan.partition_of_switch[spec.core_id(k)], rack++ % 3);
  }
}

TEST(AssignBalanced, BalancesWeightsDeterministically) {
  const std::vector<std::uint64_t> weights{8, 1, 1, 1, 1, 4};
  const auto a = assign_balanced(weights, 2);
  const auto b = assign_balanced(weights, 2);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), weights.size());
  std::vector<std::uint64_t> bin(2, 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    ASSERT_LT(a[i], 2u);
    bin[a[i]] += weights[i];
  }
  // Greedy lightest-bin on these weights: 8 | 1+1+1+1+4.
  EXPECT_EQ(std::max(bin[0], bin[1]), 8u);
}

TEST(AssignBalanced, TiesGoToLowestBin) {
  const auto got = assign_balanced({1, 1, 1}, 3);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace esim::core
