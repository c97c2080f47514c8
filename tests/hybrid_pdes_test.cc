// Tests for the parallel (PDES-partitioned) hybrid simulator — the
// paper's third speedup source in §6.2.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "check/diff_runner.h"
#include "check/fuzzer.h"
#include "core/network.h"
#include "stats/collectors.h"

namespace esim::core {
namespace {

using approx::MicroModel;
using sim::ParallelEngine;
using sim::SimTime;

HybridConfig hybrid_config(std::uint32_t clusters) {
  HybridConfig cfg;
  cfg.net.spec.clusters = clusters;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  return cfg;
}

ParallelEngine::Config engine_config(std::uint32_t partitions) {
  ParallelEngine::Config cfg;
  cfg.num_partitions = partitions;
  cfg.lookahead = SimTime::from_us(1);
  cfg.seed = 5;
  return cfg;
}

MicroModel benign_model(double latency_us) {
  MicroModel::Config cfg;
  cfg.hidden = 4;
  cfg.layers = 1;
  MicroModel m{cfg};
  m.drop_head().weight().zero();
  m.drop_head().bias().at(0, 0) = -20.0;
  m.latency_head().weight().zero();
  m.set_latency_normalization(std::log(latency_us), 1.0);
  return m;
}

TEST(HybridPdes, PlacesIslandsOnPartitions) {
  ParallelEngine engine{engine_config(3)};
  const auto m = benign_model(8.0);
  const auto out =
      build_hybrid_network_partitioned(engine, hybrid_config(4), m, m);
  // Full cluster 0 on partition 0; clusters 1..3 round-robin on 1..2.
  EXPECT_EQ(out.partition_of_cluster[1], 1u);
  EXPECT_EQ(out.partition_of_cluster[2], 2u);
  EXPECT_EQ(out.partition_of_cluster[3], 1u);
  for (net::HostId h = 0; h < 8; ++h) {
    EXPECT_EQ(out.partition_of_host[h], 0u);
  }
  for (net::HostId h = 8; h < 16; ++h) {
    EXPECT_EQ(out.partition_of_host[h], 1u);
  }
}

TEST(HybridPdes, RejectsCausalityViolations) {
  auto ecfg = engine_config(2);
  ecfg.lookahead = SimTime::from_us(50);  // > link prop and min latency
  ParallelEngine engine{ecfg};
  const auto m = benign_model(8.0);
  EXPECT_THROW(
      build_hybrid_network_partitioned(engine, hybrid_config(2), m, m),
      std::invalid_argument);
}

TEST(HybridPdes, HonoursCoreLinkInWiringAndLookahead) {
  // core_link sets the packet cluster's agg<->core links and the
  // core -> ApproxCluster links, so it is also the 0 -> p lookahead.
  HybridConfig cfg = hybrid_config(4);
  cfg.net.core_link = cfg.net.fabric_link;
  cfg.net.core_link->propagation = SimTime::from_us(8);
  const auto m = benign_model(8.0);

  sim::Simulator sim{5};
  const auto seq = build_hybrid_network(sim, cfg, m, m);
  ParallelEngine engine{engine_config(3)};
  const auto out = build_hybrid_network_partitioned(engine, cfg, m, m);
  for (const BuiltNetwork* net : {&seq, &out.net}) {
    ASSERT_EQ(net->core_links.size(), 4u);
    for (const auto& att : net->core_links) {
      EXPECT_EQ(att.up->propagation(), SimTime::from_us(8));
      EXPECT_EQ(att.down->propagation(), SimTime::from_us(8));
    }
  }
  EXPECT_EQ(engine.pair_lookahead(0, 1), SimTime::from_us(8));
  EXPECT_EQ(engine.pair_lookahead(0, 2), SimTime::from_us(8));
}

TEST(HybridPdes, ProgramsPerPairLookahead) {
  // Islands 1 and 3 on partition 1, island 2 on partition 2. Core ->
  // island channels are 1 us links; island -> core deliveries keep
  // min_latency_s = 2 us; islands never talk to each other.
  HybridConfig cfg = hybrid_config(4);
  cfg.approx.min_latency_s = 2e-6;
  ParallelEngine engine{engine_config(3)};
  const auto m = benign_model(8.0);
  const auto out = build_hybrid_network_partitioned(engine, cfg, m, m);
  EXPECT_EQ(out.partition_of_cluster[1], 1u);
  EXPECT_EQ(out.partition_of_cluster[2], 2u);
  EXPECT_EQ(out.partition_of_cluster[3], 1u);
  EXPECT_EQ(engine.pair_lookahead(0, 1), SimTime::from_us(1));
  EXPECT_EQ(engine.pair_lookahead(0, 2), SimTime::from_us(1));
  EXPECT_EQ(engine.pair_lookahead(1, 0), SimTime::from_us(2));
  EXPECT_EQ(engine.pair_lookahead(2, 0), SimTime::from_us(2));
  EXPECT_EQ(engine.pair_lookahead(1, 2), ParallelEngine::infinite_lookahead());
  EXPECT_EQ(engine.pair_lookahead(2, 1), ParallelEngine::infinite_lookahead());
}

TEST(HybridPdes, RejectsCoreLinkBelowLookahead) {
  HybridConfig cfg = hybrid_config(3);
  cfg.net.core_link = cfg.net.fabric_link;
  cfg.net.core_link->propagation = SimTime::from_ns(500);  // < 1 us
  ParallelEngine engine{engine_config(2)};
  const auto m = benign_model(8.0);
  EXPECT_THROW(build_hybrid_network_partitioned(engine, cfg, m, m),
               std::invalid_argument);
}

TEST(HybridPdes, EveryBuildHonoursHostPairEcmp) {
  HybridConfig cfg = hybrid_config(3);
  cfg.net.ecmp_port_sensitive = false;
  const auto m = benign_model(8.0);
  std::vector<net::Switch*> built;
  const auto collect = [&built](const BuiltNetwork& net) {
    for (auto* sw : net.switches) {
      if (sw != nullptr) built.push_back(sw);
    }
  };
  sim::Simulator full_sim{5};
  collect(build_full_network(full_sim, cfg.net));
  ParallelEngine full_engine{engine_config(2)};
  collect(build_clos_partitioned(full_engine, cfg.net).net);
  sim::Simulator hybrid_sim{5};
  collect(build_hybrid_network(hybrid_sim, cfg, m, m));
  ParallelEngine hybrid_engine{engine_config(2)};
  collect(build_hybrid_network_partitioned(hybrid_engine, cfg, m, m).net);
  // 3 x 4 + 2 switches in each all-packet build, 4 + 2 in each hybrid.
  ASSERT_EQ(built.size(), 14u + 14u + 6u + 6u);
  for (const auto* sw : built) {
    EXPECT_FALSE(sw->port_sensitive_ecmp()) << sw->name();
  }
}

TEST(HybridPdes, CrossPartitionFlowsComplete) {
  ParallelEngine engine{engine_config(3)};
  const auto m = benign_model(8.0);
  auto out =
      build_hybrid_network_partitioned(engine, hybrid_config(4), m, m);
  std::atomic<int> completions{0};
  auto& sim0 = engine.partition(0).sim();
  // Full-cluster host -> approximated clusters on two different
  // partitions, plus the reverse direction.
  sim0.schedule_at(SimTime::from_us(10), [&] {
    auto* a = out.net.hosts[0]->open_flow(12, 40'000, 1);   // cluster 1
    a->on_complete = [&] { completions.fetch_add(1); };
    auto* b = out.net.hosts[1]->open_flow(20, 40'000, 2);   // cluster 2
    b->on_complete = [&] { completions.fetch_add(1); };
  });
  engine.partition(1).sim().schedule_at(SimTime::from_us(15), [&] {
    auto* c = out.net.hosts[9]->open_flow(2, 40'000, 3);    // back to full
    c->on_complete = [&] { completions.fetch_add(1); };
  });
  engine.run_until(SimTime::from_ms(200));
  EXPECT_EQ(completions.load(), 3);
  EXPECT_GT(engine.stats().cross_messages, 100u);
  EXPECT_GT(out.net.clusters[1]->stats().ingress_packets, 10u);
  EXPECT_GT(out.net.clusters[2]->stats().ingress_packets, 10u);
}

TEST(HybridPdes, MatchesSequentialHybridResults) {
  // The same single flow through a benign model must move the same number
  // of segments whether the approximated cluster runs in-partition or
  // across a PDES boundary.
  auto run_parallel = [] {
    ParallelEngine engine{engine_config(2)};
    const auto m = benign_model(8.0);
    auto out =
        build_hybrid_network_partitioned(engine, hybrid_config(2), m, m);
    tcp::TcpConnection* conn = nullptr;
    engine.partition(0).sim().schedule_at(SimTime::from_us(10), [&] {
      conn = out.net.hosts[0]->open_flow(12, 60'000, 1);
    });
    engine.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  auto run_sequential = [] {
    sim::Simulator sim{5};  // the engine seed above
    const auto m = benign_model(8.0);
    auto net = build_hybrid_network(sim, hybrid_config(2), m, m);
    tcp::TcpConnection* conn = nullptr;
    sim.schedule_at(SimTime::from_us(10),
                    [&] { conn = net.hosts[0]->open_flow(12, 60'000, 1); });
    sim.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  EXPECT_EQ(run_parallel(), run_sequential());
}

TEST(HybridPdes, SinglePartitionDegradesGracefully) {
  // P=1: everything lands on partition 0 and no remote schedulers exist.
  ParallelEngine engine{engine_config(1)};
  const auto m = benign_model(8.0);
  auto out =
      build_hybrid_network_partitioned(engine, hybrid_config(2), m, m);
  EXPECT_EQ(out.partition_of_cluster[1], 0u);
  std::atomic<bool> complete{false};
  engine.partition(0).sim().schedule_at(SimTime::from_us(10), [&] {
    auto* c = out.net.hosts[0]->open_flow(12, 20'000, 1);
    c->on_complete = [&] { complete.store(true); };
  });
  engine.run_until(SimTime::from_ms(100));
  EXPECT_TRUE(complete.load());
  EXPECT_EQ(engine.stats().cross_messages, 0u);
}

// One scenario of the random hybrid corpus, threshold drops: sequential
// against PDES(2, 3) on the engine-invariant lanes. Named HybridPdes so
// scripts/check.sh's tsan tier runs its cross-partition deliveries under
// the race detector.
TEST(HybridPdes, RandomHybridEnginesAgree) {
  check::Scenario sc = check::random_hybrid_scenario(7);
  sc.approx->drop_bias = -2.0;  // below threshold: traffic flows
  const check::DiffRunner runner;
  const check::Digest seq = runner.run(sc, {}).digest;
  for (const std::uint32_t partitions : {2u, 3u}) {
    const check::Digest pdes = runner.run(sc, {partitions}).digest;
    EXPECT_TRUE(seq.engine_invariant_equal(pdes))
        << "partitions " << partitions << "\n  seq:  " << seq.to_string()
        << "\n  pdes: " << pdes.to_string();
  }
  EXPECT_GT(seq.packets, 100u);
}

// Sampled drops draw from each cluster's stream of the engine seed, which
// every partition carries, so the random hybrid corpus agrees across
// engines with sampled drops too. check_hybrid runs the scenario's own
// drop mode: its baseline is the sequential sampled-drop run.
TEST(HybridPdes, RandomSampledDropHybridsEnginesAgree) {
  const check::DiffRunner runner;
  for (std::uint64_t seed = 7; seed < 57; ++seed) {
    check::Scenario sc = check::random_hybrid_scenario(seed);
    sc.approx->sample_drops = true;
    std::vector<check::Digest> digests;
    EXPECT_EQ(check::check_hybrid(sc, {2, 3}, &digests), "")
        << "scenario " << seed;
    ASSERT_FALSE(digests.empty());
    EXPECT_TRUE(digests.front() == runner.run(sc, {}).digest)
        << "scenario " << seed;
  }
}

}  // namespace
}  // namespace esim::core
