// Integration tests: full-fidelity Clos networks under TCP workloads.
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/network.h"
#include "net/clos.h"
#include "stats/collectors.h"
#include "workload/generator.h"

namespace esim::core {
namespace {

using net::ClosSpec;
using sim::SimTime;
using sim::Simulator;

NetworkConfig paper_config() {
  NetworkConfig cfg;
  cfg.spec.clusters = 2;
  cfg.spec.tors_per_cluster = 2;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 4;
  cfg.spec.cores = 2;
  return cfg;
}

TEST(FullBuilder, CreatesAllComponents) {
  Simulator sim{1};
  const auto cfg = paper_config();
  const auto net = build_full_network(sim, cfg);
  EXPECT_EQ(net.hosts.size(), 16u);
  EXPECT_EQ(net.switches.size(), 10u);
  for (auto* h : net.hosts) ASSERT_NE(h, nullptr);
  for (auto* s : net.switches) ASSERT_NE(s, nullptr);
  // ToR: 4 host ports + 2 agg ports; Agg: 2 tor + 2 core; Core: 2x2 aggs.
  EXPECT_EQ(net.switches[0]->port_count(), 6u);
  EXPECT_EQ(net.switches[net.spec.agg_id(0, 0)]->port_count(), 4u);
  EXPECT_EQ(net.switches[net.spec.core_id(0)]->port_count(), 4u);
  // 2 clusters x 2 aggs x 2 cores attachments.
  EXPECT_EQ(net.core_links.size(), 8u);
  EXPECT_EQ(net.attachments_of(0).size(), 4u);
}

TEST(FullBuilder, LeafSpineHasNoCoreLinks) {
  Simulator sim{1};
  NetworkConfig cfg;
  cfg.spec.clusters = 1;
  cfg.spec.tors_per_cluster = 4;
  cfg.spec.aggs_per_cluster = 4;
  cfg.spec.hosts_per_tor = 4;
  cfg.spec.cores = 0;
  const auto net = build_full_network(sim, cfg);
  EXPECT_EQ(net.hosts.size(), 16u);
  EXPECT_EQ(net.switches.size(), 8u);
  EXPECT_TRUE(net.core_links.empty());
}

TEST(FullNetwork, SingleFlowAcrossClustersCompletes) {
  Simulator sim{7};
  auto net = build_full_network(sim, paper_config());
  bool complete = false;
  sim.schedule_at(SimTime::from_us(10), [&] {
    auto* c = net.hosts[0]->open_flow(12, 100'000, 1);
    c->on_complete = [&] { complete = true; };
  });
  sim.run_until(SimTime::from_ms(100));
  EXPECT_TRUE(complete);
}

TEST(FullNetwork, ForwardingMatchesPathReplay) {
  Simulator sim{8};
  auto net = build_full_network(sim, paper_config());
  // Tap every agg->core uplink: the core a packet reaches must equal the
  // one compute_path predicts from its header alone.
  std::uint64_t checked = 0;
  for (const auto& att : net.core_links) {
    att.up->on_transmit = [&, core = att.core](const net::Packet& pkt,
                                               SimTime) {
      const auto path = net::compute_path(net.spec, pkt.flow);
      ASSERT_EQ(path.len, 5u);
      EXPECT_EQ(path.hops[2], net.spec.core_id(core))
          << "packet " << pkt.to_string() << " took an unpredicted core";
      ++checked;
    };
  }
  sim.schedule_at(SimTime::from_us(10), [&] {
    for (int i = 0; i < 6; ++i) {
      net.hosts[i]->open_flow(static_cast<net::HostId>(8 + i), 30'000,
                              static_cast<std::uint64_t>(i + 1));
    }
  });
  sim.run_until(SimTime::from_ms(50));
  EXPECT_GT(checked, 100u);
}

TEST(FullNetwork, GeneratorDrivesManyFlowsToCompletion) {
  Simulator sim{9};
  auto net = build_full_network(sim, paper_config());
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.2;
  gcfg.stop_at = SimTime::from_ms(20);
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "gen", net.hosts, sizes.get(), &matrix, gcfg);
  gen->start();
  sim.run_until(SimTime::from_ms(200));
  EXPECT_GT(gen->launched(), 50u);
  const auto& fc = gen->flows();
  // Open-loop Poisson at 20% load on an idle fabric: the vast majority of
  // flows complete well before the 180ms drain window closes.
  EXPECT_GT(fc.completed_count(), fc.records().size() * 9 / 10);
  EXPECT_GT(fc.mean_goodput_bps(), 1e6);
}

TEST(FullNetwork, RttSamplesReflectTopologyDistance) {
  Simulator sim{10};
  auto net = build_full_network(sim, paper_config());
  stats::LatencyCollector intra_tor, inter_cluster;
  net.hosts[0]->set_rtt_collector(&intra_tor);
  net.hosts[4]->set_rtt_collector(&inter_cluster);
  sim.schedule_at(SimTime::from_us(10), [&] {
    net.hosts[0]->open_flow(1, 50'000, 1);    // same ToR
    net.hosts[4]->open_flow(12, 50'000, 2);   // other cluster
  });
  sim.run_until(SimTime::from_ms(100));
  ASSERT_GT(intra_tor.summary().count(), 0u);
  ASSERT_GT(inter_cluster.summary().count(), 0u);
  // 1-hop RTT (2 links each way) vs 5-hop RTT (6 links each way).
  EXPECT_LT(intra_tor.summary().min(), inter_cluster.summary().min());
}

TEST(FullNetwork, AdmissionFilterSuppressesFlows) {
  Simulator sim{11};
  auto net = build_full_network(sim, paper_config());
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.1;
  gcfg.stop_at = SimTime::from_ms(10);
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "gen", net.hosts, sizes.get(), &matrix, gcfg);
  gen->admission_filter = [&](net::HostId s, net::HostId d) {
    // Keep only flows touching cluster 0.
    return net.spec.cluster_of_host(s) == 0 ||
           net.spec.cluster_of_host(d) == 0;
  };
  gen->start();
  sim.run_until(SimTime::from_ms(50));
  EXPECT_GT(gen->suppressed(), 0u);
  EXPECT_GT(gen->launched(), 0u);
  for (const auto& r : gen->flows().records()) {
    EXPECT_TRUE(net.spec.cluster_of_host(r.src_host) == 0 ||
                net.spec.cluster_of_host(r.dst_host) == 0);
  }
}

TEST(FullNetwork, IncastCausesCongestionDrops) {
  // The minimum-window pathology of paper §2.1: enough simultaneous
  // senders into one host overflow the shallow fabric buffers no matter
  // how far TCP backs off.
  Simulator sim{12};
  NetworkConfig cfg = paper_config();
  cfg.spec.clusters = 2;
  cfg.spec.hosts_per_tor = 8;  // more senders
  auto net = build_full_network(sim, cfg);
  int completions = 0;
  sim.schedule_at(SimTime::from_us(10), [&] {
    for (net::HostId h = 8; h < 32; ++h) {  // 24 senders, 1 sink
      auto* c = net.hosts[h]->open_flow(0, 200'000, h);
      c->on_complete = [&] { ++completions; };
    }
  });
  sim.run_until(SimTime::from_sec(2));
  std::uint64_t fabric_drops = 0;
  // Drops happen on the sink's ToR downlink and on fabric links.
  fabric_drops += net.host_downlinks[0]->counter().dropped;
  for (const auto& att : net.core_links) {
    fabric_drops += att.down->counter().dropped;
  }
  EXPECT_GT(fabric_drops, 0u);
  EXPECT_EQ(completions, 24);  // TCP still gets everything through
}

TEST(FullNetwork, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim{42};
    auto net = build_full_network(sim, paper_config());
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{net.spec.total_hosts()};
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = 0.3;
    gcfg.stop_at = SimTime::from_ms(5);
    auto* gen = sim.add_component<workload::TrafficGenerator>(
        "gen", net.hosts, sizes.get(), &matrix, gcfg);
    gen->start();
    sim.run_until(SimTime::from_ms(30));
    std::vector<std::int64_t> fcts;
    for (const auto& r : gen->flows().records()) {
      fcts.push_back(r.completed ? r.fct().ns() : -1);
    }
    return std::pair{sim.events_executed(), fcts};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_FALSE(a.second.empty());
}

}  // namespace
}  // namespace esim::core
