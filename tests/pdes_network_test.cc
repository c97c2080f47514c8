// Integration tests: TCP over a leaf-spine partitioned across PDES
// partitions (the substrate of the Figure 1 experiment).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/scenario.h"
#include "core/network.h"
#include "stats/collectors.h"
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
    sim::Simulator sim{3};  // the engine seed
    auto net = build_full_network(sim, leaf_spine(2, 2));
    tcp::TcpConnection* conn = nullptr;
    sim.schedule_at(SimTime::from_us(10),
                    [&] { conn = net.hosts[0]->open_flow(4, 100'000, 1); });
    sim.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  EXPECT_EQ(run_pdes(), run_seq());
}

// --- One arrival stream for every engine (workload::start_traffic) ---

/// A generator-driven run: its flows sorted by id, and its event count.
struct TrafficRun {
  std::vector<stats::FlowRecord> flows;
  std::uint64_t events = 0;
};

std::vector<stats::FlowRecord> flows_of(
    const std::vector<workload::TrafficGenerator*>& gens) {
  std::vector<stats::FlowRecord> all;
  for (const auto* g : gens) {
    const auto& r = g->flows().records();
    all.insert(all.end(), r.begin(), r.end());
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.flow_id < b.flow_id;
  });
  return all;
}

using Filter = std::function<bool(net::HostId, net::HostId)>;

/// Starts the workload on `sims`, runs `engine` past the last arrival and
/// returns what it did. `events` reads the engine's executed events.
template <typename Engine, typename Events>
TrafficRun drive(Engine& engine, const std::vector<sim::Simulator*>& sims,
                 const BuiltNetwork& net,
                 const std::vector<std::uint32_t>& partition_of_host,
                 const workload::TrafficMatrix& matrix, const Filter& filter,
                 Events events) {
  auto sizes = workload::mini_web_distribution();
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.3;
  gcfg.stop_at = SimTime::from_us(800);
  const auto gens = workload::start_traffic(
      sims, net.hosts, partition_of_host, sizes.get(), &matrix, gcfg, filter);
  engine.run_until(SimTime::from_us(1500));
  return {flows_of(gens), events()};
}

/// A flow's arrival: (start ns, src, dst, bytes).
using Arrival =
    std::tuple<std::int64_t, std::uint32_t, std::uint32_t, std::uint64_t>;

/// The arrivals of `flows` with an endpoint in cluster 0 (every flow a
/// hybrid admits), in start order.
std::vector<Arrival> cluster0_arrivals(
    const std::vector<stats::FlowRecord>& flows, const net::ClosSpec& spec) {
  std::vector<Arrival> out;
  for (const auto& f : flows) {
    if (spec.cluster_of_host(f.src_host) == kFullCluster ||
        spec.cluster_of_host(f.dst_host) == kFullCluster) {
      out.emplace_back(f.start.ns(), f.src_host, f.dst_host, f.bytes);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same_flows(const std::vector<stats::FlowRecord>& got,
                       const std::vector<stats::FlowRecord>& want,
                       bool with_ends) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    EXPECT_EQ(g.flow_id, w.flow_id);
    EXPECT_EQ(g.src_host, w.src_host) << "flow " << w.flow_id;
    EXPECT_EQ(g.dst_host, w.dst_host) << "flow " << w.flow_id;
    EXPECT_EQ(g.bytes, w.bytes) << "flow " << w.flow_id;
    EXPECT_EQ(g.start, w.start) << "flow " << w.flow_id;
    if (!with_ends) continue;
    EXPECT_EQ(g.completed, w.completed) << "flow " << w.flow_id;
    EXPECT_EQ(g.end, w.end) << "flow " << w.flow_id;
  }
}

TEST(PdesNetwork, PartitionedTrafficMatchesSequentialLeafSpine) {
  const NetworkConfig cfg = leaf_spine(4, 4);
  const workload::UniformTraffic matrix{cfg.spec.total_hosts()};
  sim::Simulator seq_sim{99};
  const auto seq_net = build_full_network(seq_sim, cfg);
  const TrafficRun seq =
      drive(seq_sim, {&seq_sim}, seq_net, {}, matrix, {},
            [&] { return seq_sim.events_executed(); });
  ASSERT_GT(seq.flows.size(), 50u);

  for (const std::uint32_t P : {2u, 4u, 8u}) {
    for (const auto policy :
         {PlacementPolicy::graph_cut, PlacementPolicy::round_robin}) {
      for (const auto window :
           {ParallelEngine::WindowMode::global,
            ParallelEngine::WindowMode::per_pair}) {
        SCOPED_TRACE("P=" + std::to_string(P) + " policy " +
                     std::to_string(static_cast<int>(policy)) + " window " +
                     std::to_string(static_cast<int>(window)));
        auto ecfg = engine_config(P);
        ecfg.seed = 99;
        ecfg.window_mode = window;
        ParallelEngine engine{ecfg};
        const auto built = build_clos_partitioned(engine, cfg, policy);
        const TrafficRun pdes =
            drive(engine, partition_sims(engine), built.net,
                  built.partition_of_host, matrix, {},
                  [&] { return engine.stats().events_executed; });
        expect_same_flows(pdes.flows, seq.flows, /*with_ends=*/true);
        EXPECT_EQ(pdes.events, seq.events);
      }
    }
  }
}

/// The 4-cluster hybrid of the stream tests, with seeded random boundary
/// models whose drop heads are feature-dependent, and its workload.
struct SmallHybrid {
  HybridConfig cfg;
  approx::MicroModel ingress;
  approx::MicroModel egress;
  workload::ClusterMixTraffic matrix;
  /// Elision: no flow between two approximated clusters.
  Filter elide;

  static HybridConfig config() {
    HybridConfig cfg;
    cfg.net.spec.clusters = 4;
    cfg.net.spec.tors_per_cluster = 2;
    cfg.net.spec.aggs_per_cluster = 2;
    cfg.net.spec.hosts_per_tor = 4;
    cfg.net.spec.cores = 2;
    cfg.approx.min_latency_s = 5e-6;
    return cfg;
  }
  static check::Scenario::Approximation recipe() {
    check::Scenario::Approximation r;
    r.model_seed = 6;
    r.drop_bias = -1.0;
    return r;
  }

  SmallHybrid()
      : cfg{config()},
        ingress{recipe().make_model(0)},
        egress{recipe().make_model(7)},
        matrix{cfg.net.spec, 0.3},
        elide{[spec = cfg.net.spec](net::HostId src, net::HostId dst) {
          return spec.cluster_of_host(src) == kFullCluster ||
                 spec.cluster_of_host(dst) == kFullCluster;
        }} {}
};

TEST(PdesNetwork, PartitionedTrafficMatchesSequentialHybrid) {
  SmallHybrid h;
  for (const bool sampled : {false, true}) {
    h.cfg.approx.sample_drops = sampled;
    sim::Simulator seq_sim{6};
    const auto seq_net =
        build_hybrid_network(seq_sim, h.cfg, h.ingress, h.egress);
    const TrafficRun seq =
        drive(seq_sim, {&seq_sim}, seq_net, {}, h.matrix, h.elide,
              [&] { return seq_sim.events_executed(); });
    ASSERT_GT(seq.flows.size(), 50u);
    for (const std::uint32_t P : {2u, 3u}) {
      SCOPED_TRACE(std::string{sampled ? "sampled" : "threshold"} +
                   " drops, P=" + std::to_string(P));
      auto ecfg = engine_config(P);
      ecfg.seed = 6;
      ParallelEngine engine{ecfg};
      const auto built =
          build_hybrid_network_partitioned(engine, h.cfg, h.ingress, h.egress);
      const TrafficRun pdes =
          drive(engine, partition_sims(engine), built.net,
                built.partition_of_host, h.matrix, h.elide,
                [&] { return engine.stats().events_executed; });
      expect_same_flows(pdes.flows, seq.flows, /*with_ends=*/true);
      EXPECT_EQ(pdes.events, seq.events);
    }
  }
}

// A full build and a hybrid at one seed draw one arrival stream: the
// hybrid launches exactly the full build's flows that touch cluster 0, so
// an accuracy comparison between them is paired.
TEST(SeedStreams, FullAndHybridBuildsLaunchTheSameClusterZeroArrivals) {
  SmallHybrid h;
  const net::ClosSpec& spec = h.cfg.net.spec;
  sim::Simulator full_sim{6};
  const auto full_net = build_full_network(full_sim, h.cfg.net);
  const TrafficRun full =
      drive(full_sim, {&full_sim}, full_net, {}, h.matrix, {},
            [&] { return full_sim.events_executed(); });
  sim::Simulator hybrid_sim{6};
  const auto hybrid_net =
      build_hybrid_network(hybrid_sim, h.cfg, h.ingress, h.egress);
  const TrafficRun hybrid =
      drive(hybrid_sim, {&hybrid_sim}, hybrid_net, {}, h.matrix, h.elide,
            [&] { return hybrid_sim.events_executed(); });
  const std::vector<Arrival> want = cluster0_arrivals(full.flows, spec);
  ASSERT_GT(want.size(), 50u);
  EXPECT_LT(want.size(), full.flows.size());
  EXPECT_EQ(cluster0_arrivals(hybrid.flows, spec), want);
  EXPECT_EQ(hybrid.flows.size(), want.size());
}

// The benchmark's partitioned hybrid (benchmark/workloads.cc,
// run_partitioned): one generator per partition, each holding every host
// and admitting the flows whose source it owns. Every partition carries
// the engine seed, so together they launch the full reference's
// cluster-0 flows.
TEST(PdesNetwork, PerPartitionGeneratorsLaunchTheReferenceFlows) {
  SmallHybrid h;
  const net::ClosSpec& spec = h.cfg.net.spec;
  sim::Simulator ref_sim{6};
  const auto ref_net = build_full_network(ref_sim, h.cfg.net);
  const TrafficRun ref =
      drive(ref_sim, {&ref_sim}, ref_net, {}, h.matrix, {},
            [&] { return ref_sim.events_executed(); });

  auto ecfg = engine_config(2);
  ecfg.seed = 6;
  ParallelEngine engine{ecfg};
  const auto built =
      build_hybrid_network_partitioned(engine, h.cfg, h.ingress, h.egress);
  auto sizes = workload::mini_web_distribution();
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.3;
  gcfg.stop_at = SimTime::from_us(800);
  std::vector<workload::TrafficGenerator*> gens;
  for (std::uint32_t p = 0; p < engine.num_partitions(); ++p) {
    auto* gen =
        engine.partition(p).sim().add_component<workload::TrafficGenerator>(
            "gen" + std::to_string(p), built.net.hosts, sizes.get(), &h.matrix,
            gcfg);
    gen->admission_filter = [&built, &h, p](net::HostId src,
                                            net::HostId dst) {
      return built.partition_of_host[src] == p && h.elide(src, dst);
    };
    gen->start();
    gens.push_back(gen);
  }
  engine.run_until(SimTime::from_us(1500));
  const std::vector<Arrival> want = cluster0_arrivals(ref.flows, spec);
  ASSERT_GT(want.size(), 50u);
  EXPECT_EQ(cluster0_arrivals(flows_of(gens), spec), want);
}

/// A component that draws nothing and schedules nothing.
struct Idle : sim::Component {
  using Component::Component;
};

// Adding components never moves a generator's stream or a cluster's
// stream: a sampled-drop hybrid built after unrelated components launches,
// drops and ends every flow as one built alone.
TEST(Simulator, ComponentRngStreamsAreStable) {
  SmallHybrid h;
  const auto run = [&h](std::uint32_t idle) {
    sim::Simulator sim{6};
    for (std::uint32_t i = 0; i < idle; ++i) {
      sim.add_component<Idle>("idle" + std::to_string(i));
    }
    const auto net = build_hybrid_network(sim, h.cfg, h.ingress, h.egress);
    TrafficRun r = drive(sim, {&sim}, net, {}, h.matrix, h.elide,
                         [&] { return sim.events_executed(); });
    std::uint64_t drops = 0;
    for (const auto* c : net.clusters) {
      if (c != nullptr) drops += c->stats().predicted_drops;
    }
    return std::pair{r, drops};
  };
  const auto [alone, alone_drops] = run(0);
  ASSERT_GT(alone.flows.size(), 50u);
  EXPECT_GT(alone_drops, 0u);
  for (const std::uint32_t idle : {1u, 37u}) {
    SCOPED_TRACE(std::to_string(idle) + " idle components first");
    const auto [moved, moved_drops] = run(idle);
    expect_same_flows(moved.flows, alone.flows, /*with_ends=*/true);
    EXPECT_EQ(moved.events, alone.events);
    EXPECT_EQ(moved_drops, alone_drops);
  }
}

// A second generator on one simulator draws from its rank: arrivals of
// its own, not a replay of the first generator's, and the same whatever
// else the simulator holds.
TEST(SeedStreams, SecondGeneratorDrawsItsOwnArrivals) {
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{16};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.3;
  const auto arrivals = [&](std::uint32_t idle) {
    sim::Simulator sim{11};
    const auto net = build_full_network(sim, leaf_spine(4, 4));
    for (std::uint32_t i = 0; i < idle; ++i) {
      sim.add_component<Idle>("idle" + std::to_string(i));
    }
    std::vector<std::vector<Arrival>> out;
    std::vector<workload::TrafficGenerator*> gens;
    for (const char* name : {"first", "second"}) {
      gens.push_back(sim.add_component<workload::TrafficGenerator>(
          name, net.hosts, sizes.get(), &matrix, gcfg));
      gens.back()->start();
    }
    sim.run_until(SimTime::from_us(200));
    for (const auto* g : gens) {  // a leaf-spine is all cluster 0
      out.push_back(cluster0_arrivals(g->flows().records(), net.spec));
    }
    return out;
  };
  const auto alone = arrivals(0);
  ASSERT_GT(alone[0].size(), 20u);
  ASSERT_GT(alone[1].size(), 20u);
  std::vector<Arrival> shared;
  std::set_intersection(alone[0].begin(), alone[0].end(), alone[1].begin(),
                        alone[1].end(), std::back_inserter(shared));
  EXPECT_TRUE(shared.empty()) << shared.size() << " arrivals replayed";
  EXPECT_EQ(arrivals(5), alone);
}

// The arrival stream of the first generator on a simulator seeded 11, as
// start_traffic launches it, pinned by a hash of its first 200 flows. It
// depends on the seed alone: a build with fewer components launches the
// same flows.
TEST(PdesNetwork, FullHostGeneratorKeepsItsStream) {
  const auto hash_of = [](std::uint32_t spines) {
    sim::Simulator sim{11};
    const auto net = build_full_network(sim, leaf_spine(4, spines));
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{net.spec.total_hosts()};
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = 0.3;  // stop_at 0: arrivals never stop
    const auto* gen = workload::start_traffic(
        {&sim}, net.hosts, {}, sizes.get(), &matrix, gcfg,
        [](net::HostId src, net::HostId dst) {
          return (src + dst) % 5 != 0;
        })[0];
    sim.run_until(SimTime::from_ms(1));
    const auto& records = gen->flows().records();
    EXPECT_GE(records.size(), 200u);
    EXPECT_GT(gen->suppressed(), 0u);
    std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
    const auto fold = [&hash](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        hash ^= (v >> (8 * b)) & 0xFF;
        hash *= 1099511628211ULL;
      }
    };
    for (std::size_t i = 0; i < std::min<std::size_t>(records.size(), 200);
         ++i) {
      const auto& r = records[i];
      fold(r.flow_id);
      fold(r.src_host);
      fold(r.dst_host);
      fold(r.bytes);
      fold(static_cast<std::uint64_t>(r.start.ns()));
    }
    return hash;
  };
  const std::uint64_t hash = hash_of(4);
  EXPECT_EQ(hash, 0x0014b47c87b4481dULL) << std::hex << "0x" << hash;
  // Two spines: fewer switches and links, the same hosts.
  EXPECT_EQ(hash_of(2), hash);
}

TEST(PdesNetwork, GeneratorWithoutHostsThrows) {
  sim::Simulator sim{1};
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{4};
  const workload::TrafficGenerator::Config gcfg;
  for (const std::size_t n : {std::size_t{0}, std::size_t{4}}) {
    EXPECT_THROW(sim.add_component<workload::TrafficGenerator>(
                     "gen", std::vector<tcp::Host*>(n, nullptr), sizes.get(),
                     &matrix, gcfg),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace esim::core
