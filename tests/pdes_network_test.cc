// Integration tests: TCP over a leaf-spine partitioned across PDES
// partitions (the substrate of the Figure 1 experiment).
#include <gtest/gtest.h>

#include <atomic>

#include "core/network.h"
#include "workload/generator.h"

namespace esim::core {
namespace {

using sim::ParallelEngine;
using sim::SimTime;

NetworkConfig leaf_spine(std::uint32_t tors, std::uint32_t spines,
                         std::uint32_t hosts_per_tor = 4) {
  NetworkConfig cfg;
  cfg.spec.clusters = 1;
  cfg.spec.tors_per_cluster = tors;
  cfg.spec.aggs_per_cluster = spines;
  cfg.spec.hosts_per_tor = hosts_per_tor;
  cfg.spec.cores = 0;
  return cfg;
}

ParallelEngine::Config engine_config(std::uint32_t partitions) {
  ParallelEngine::Config cfg;
  cfg.num_partitions = partitions;
  cfg.lookahead = SimTime::from_us(1);  // = link propagation
  cfg.seed = 3;
  return cfg;
}

TEST(PdesBuilder, PlacesAndWires) {
  ParallelEngine engine{engine_config(2)};
  const auto built = build_clos_partitioned(engine, leaf_spine(4, 4));
  const BuiltNetwork& net = built.net;
  EXPECT_EQ(net.hosts.size(), 16u);
  EXPECT_EQ(net.switches.size(), 8u);
  for (auto* h : net.hosts) ASSERT_NE(h, nullptr);
  for (auto* s : net.switches) ASSERT_NE(s, nullptr);
  // Placement comes from the plan; both partitions must be used and host
  // placement must follow the rack.
  const PartitionPlan plan =
      make_partition_plan(net.spec, 2, PlacementPolicy::graph_cut);
  EXPECT_EQ(built.partition_of_switch, plan.partition_of_switch);
  std::vector<std::uint32_t> used(2, 0);
  for (const auto p : built.partition_of_switch) {
    ASSERT_LT(p, 2u);
    ++used[p];
  }
  EXPECT_GT(used[0], 0u);
  EXPECT_GT(used[1], 0u);
  for (net::HostId h = 0; h < net.spec.total_hosts(); ++h) {
    EXPECT_EQ(built.partition_of_host[h],
              built.partition_of_switch[net.spec.tor_of_host(h)]);
  }
  // The wired cross-link count is exactly the plan's reported cut. On a
  // leaf-spine every balanced placement cuts half the 4x4x2 fabric links.
  EXPECT_EQ(built.cross_partition_links, plan.cut_links);
  EXPECT_EQ(plan.total_links, 32u);
  EXPECT_EQ(built.cross_partition_links, 16u);
}

TEST(PdesBuilder, RoundRobinPolicyMatchesLegacyPlacement) {
  ParallelEngine engine{engine_config(2)};
  const auto net = build_clos_partitioned(engine, leaf_spine(4, 4),
                                          PlacementPolicy::round_robin);
  // Legacy layout: rack r -> partition r % P, spines keep rotating.
  EXPECT_EQ(net.partition_of_switch[0], 0u);
  EXPECT_EQ(net.partition_of_switch[1], 1u);
  EXPECT_EQ(net.partition_of_host[0], 0u);
  EXPECT_EQ(net.partition_of_host[4], 1u);
  EXPECT_EQ(net.cross_partition_links, 16u);
}

TEST(PdesBuilder, GraphCutColocatesClustersOnFatTree) {
  // 4-cluster Clos over 4 partitions: graph-cut keeps each cluster whole
  // (only agg<->core links can cross), while round-robin shreds every
  // cluster across every partition.
  NetworkConfig cfg;
  cfg.spec.clusters = 4;
  cfg.spec.tors_per_cluster = 4;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 2;
  cfg.spec.cores = 2;

  ParallelEngine cut_engine{engine_config(4)};
  const auto cut =
      build_clos_partitioned(cut_engine, cfg, PlacementPolicy::graph_cut);
  ParallelEngine rr_engine{engine_config(4)};
  const auto rr =
      build_clos_partitioned(rr_engine, cfg, PlacementPolicy::round_robin);

  EXPECT_LT(cut.cross_partition_links, rr.cross_partition_links);
  // Every cluster's switches share one partition under graph-cut.
  for (std::uint32_t c = 0; c < cfg.spec.clusters; ++c) {
    const auto p = cut.partition_of_switch[cfg.spec.tor_id(c, 0)];
    for (std::uint32_t t = 0; t < cfg.spec.tors_per_cluster; ++t) {
      EXPECT_EQ(cut.partition_of_switch[cfg.spec.tor_id(c, t)], p);
    }
    for (std::uint32_t a = 0; a < cfg.spec.aggs_per_cluster; ++a) {
      EXPECT_EQ(cut.partition_of_switch[cfg.spec.agg_id(c, a)], p);
    }
  }
}

TEST(PdesBuilder, RejectsExcessiveLookahead) {
  auto ecfg = engine_config(2);
  ecfg.lookahead = SimTime::from_us(50);  // > 1us propagation
  ParallelEngine engine{ecfg};
  EXPECT_THROW(build_clos_partitioned(engine, leaf_spine(2, 2)),
               std::invalid_argument);
}

TEST(PdesBuilder, ProgramsPerPairLookaheadFromCrossLinks) {
  // Two clusters, graph-cut over two partitions: each cluster stays
  // whole, so only the 8 us agg<->core links cross — in both directions.
  NetworkConfig cfg;
  cfg.spec.clusters = 2;
  cfg.spec.tors_per_cluster = 2;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 2;
  cfg.spec.cores = 2;
  cfg.core_link = cfg.fabric_link;
  cfg.core_link->propagation = SimTime::from_us(8);
  ParallelEngine engine{engine_config(2)};
  const auto built =
      build_clos_partitioned(engine, cfg, PlacementPolicy::graph_cut);
  ASSERT_GT(built.cross_partition_links, 0u);
  for (const auto& att : built.net.core_links) {
    EXPECT_EQ(att.up->propagation(), SimTime::from_us(8));
  }
  EXPECT_EQ(engine.pair_lookahead(0, 1), SimTime::from_us(8));
  EXPECT_EQ(engine.pair_lookahead(1, 0), SimTime::from_us(8));
}

TEST(PdesNetwork, CrossPartitionFlowCompletes) {
  ParallelEngine engine{engine_config(2)};
  const auto net = build_clos_partitioned(engine, leaf_spine(2, 2)).net;
  // Host 0 lives in partition 0, host 4 (rack 1) in partition 1.
  std::atomic<bool> complete{false};
  auto& sim0 = engine.partition(0).sim();
  sim0.schedule_at(SimTime::from_us(10), [&] {
    auto* c = net.hosts[0]->open_flow(4, 50'000, 1);
    c->on_complete = [&] { complete.store(true); };
  });
  engine.run_until(SimTime::from_ms(100));
  EXPECT_TRUE(complete.load());
  EXPECT_GT(engine.stats().cross_messages, 50u);
  EXPECT_GT(engine.stats().sync_rounds, 20u);
}

TEST(PdesNetwork, ManyFlowsAcrossFourPartitions) {
  ParallelEngine engine{engine_config(4)};
  const auto built = build_clos_partitioned(engine, leaf_spine(8, 8));
  const BuiltNetwork& net = built.net;
  // One flow per partition, each sourced from a host that partition owns
  // (looked up via the plan, not assumed from legacy placement).
  std::vector<net::HostId> src_of_partition(4, net::HostId{0});
  std::vector<bool> found(4, false);
  for (net::HostId h = 0; h < net.spec.total_hosts(); ++h) {
    const std::uint32_t p = built.partition_of_host[h];
    if (!found[p]) {
      src_of_partition[p] = h;
      found[p] = true;
    }
  }
  std::atomic<int> completions{0};
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(found[p]) << "partition " << p << " owns no host";
    auto& psim = engine.partition(p).sim();
    const net::HostId src = src_of_partition[p];
    psim.schedule_at(SimTime::from_us(10 + p), [&net, &completions, src, p] {
      // Send to the next rack over (always a different ToR).
      const net::HostId dst =
          (src + net.spec.hosts_per_tor) % net.spec.total_hosts();
      auto* c = net.hosts[src]->open_flow(dst, 20'000,
                                          static_cast<std::uint64_t>(p));
      c->on_complete = [&completions] { completions.fetch_add(1); };
    });
  }
  engine.run_until(SimTime::from_ms(100));
  EXPECT_EQ(completions.load(), 4);
}

TEST(PdesNetwork, FatTreeCrossClusterFlowMatchesSequential) {
  // A cross-cluster flow on a 2-cluster Clos partitioned over 2 engines
  // must behave exactly as in the sequential full build.
  NetworkConfig cfg;
  cfg.spec.clusters = 2;
  cfg.spec.tors_per_cluster = 2;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 2;
  cfg.spec.cores = 2;
  const net::HostId src = 0;
  const net::HostId dst = cfg.spec.hosts_per_cluster();  // first host, c1

  auto run_pdes = [&] {
    ParallelEngine engine{engine_config(2)};
    const auto built = build_clos_partitioned(engine, cfg);
    tcp::TcpConnection* conn = nullptr;
    auto& ssim = engine.partition(built.partition_of_host[src]).sim();
    ssim.schedule_at(SimTime::from_us(10), [&] {
      conn = built.net.hosts[src]->open_flow(dst, 60'000, 1);
    });
    engine.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  auto run_seq = [&] {
    sim::Simulator sim{3};
    auto net = build_full_network(sim, cfg);
    tcp::TcpConnection* conn = nullptr;
    sim.schedule_at(SimTime::from_us(10),
                    [&] { conn = net.hosts[src]->open_flow(dst, 60'000, 1); });
    sim.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  const auto pdes_segments = run_pdes();
  EXPECT_GT(pdes_segments, 0u);
  EXPECT_EQ(pdes_segments, run_seq());
}

TEST(PdesNetwork, MatchesSingleThreadedFlowOutcome) {
  // The same single flow on the same topology must complete with the same
  // number of segments under PDES as under the sequential engine
  // (deterministic TCP, no contention).
  auto run_pdes = [] {
    ParallelEngine engine{engine_config(2)};
    const auto net = build_clos_partitioned(engine, leaf_spine(2, 2)).net;
    std::atomic<std::uint64_t> segments{0};
    auto& sim0 = engine.partition(0).sim();
    tcp::TcpConnection* conn = nullptr;
    sim0.schedule_at(SimTime::from_us(10), [&] {
      conn = net.hosts[0]->open_flow(4, 100'000, 1);
    });
    engine.run_until(SimTime::from_ms(100));
    segments = conn->stats().segments_sent;
    return segments.load();
  };
  auto run_seq = [] {
    sim::Simulator sim{3};  // partition 0 seed in the parallel engine
    auto net = build_full_network(sim, leaf_spine(2, 2));
    tcp::TcpConnection* conn = nullptr;
    sim.schedule_at(SimTime::from_us(10),
                    [&] { conn = net.hosts[0]->open_flow(4, 100'000, 1); });
    sim.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  EXPECT_EQ(run_pdes(), run_seq());
}

TEST(PdesNetwork, PerPartitionGeneratorsDriveLoad) {
  ParallelEngine engine{engine_config(2)};
  const auto built = build_clos_partitioned(engine, leaf_spine(4, 4));
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{built.net.spec.total_hosts()};
  std::vector<workload::TrafficGenerator*> gens;
  for (std::uint32_t p = 0; p < 2; ++p) {
    auto& psim = engine.partition(p).sim();
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = 0.2;
    gcfg.stop_at = SimTime::from_ms(5);
    auto* gen = psim.add_component<workload::TrafficGenerator>(
        "gen" + std::to_string(p), built.net.hosts, sizes.get(), &matrix,
        gcfg);
    gen->admission_filter = [&built, p](net::HostId src, net::HostId) {
      return built.partition_of_host[src] == p;
    };
    gen->start();
    gens.push_back(gen);
  }
  engine.run_until(SimTime::from_ms(60));
  std::uint64_t launched = 0, completed = 0;
  for (auto* g : gens) {
    launched += g->launched();
    completed += g->flows().completed_count();
    EXPECT_GT(g->suppressed(), 0u);  // filter active
  }
  EXPECT_GT(launched, 20u);
  EXPECT_GT(completed, launched * 3 / 4);
}

}  // namespace
}  // namespace esim::core
