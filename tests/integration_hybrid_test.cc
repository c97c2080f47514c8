// Integration tests for the hybrid (approximate) simulator: mechanics with
// hand-tuned models, and the full train-then-replace pipeline.
#include <gtest/gtest.h>

#include "core/conflict.h"
#include "core/experiment.h"
#include "core/network.h"
#include "stats/distance.h"
#include "workload/flow_size.h"
#include "workload/generator.h"
#include "workload/traffic_matrix.h"

namespace esim::core {
namespace {

using approx::MicroModel;
using sim::SimTime;
using sim::Simulator;

TEST(DeliverySerializer, GrantsDesiredWhenFree) {
  DeliverySerializer s{10e9};
  const auto t = s.reserve(SimTime::from_us(10), 1250);
  EXPECT_EQ(t, SimTime::from_us(10));
  // 1250 B at 10 Gbps = 1 us busy.
  EXPECT_EQ(s.next_free(), SimTime::from_us(11));
}

TEST(DeliverySerializer, PushesConflictsToNextSlot) {
  DeliverySerializer s{10e9};
  const auto a = s.reserve(SimTime::from_us(10), 1250);
  const auto b = s.reserve(SimTime::from_us(10), 1250);  // same instant
  EXPECT_EQ(a, SimTime::from_us(10));
  EXPECT_EQ(b, SimTime::from_us(11));  // first processed wins (paper §4.2)
  const auto c = s.reserve(SimTime::from_us(100), 1250);
  EXPECT_EQ(c, SimTime::from_us(100));  // gap: no shift
}

TEST(DeliverySerializer, ResetClears) {
  DeliverySerializer s{10e9};
  s.reserve(SimTime::from_us(10), 12500);
  s.reset();
  EXPECT_EQ(s.reserve(SimTime::from_us(1), 125), SimTime::from_us(1));
  EXPECT_THROW(DeliverySerializer{0.0}, std::invalid_argument);
}

net::ClosSpec spec_with_clusters(std::uint32_t clusters) {
  net::ClosSpec s;
  s.clusters = clusters;
  s.tors_per_cluster = 2;
  s.aggs_per_cluster = 2;
  s.hosts_per_tor = 4;
  s.cores = 2;
  return s;
}

/// A model rigged to never drop and always predict ~`latency_us`.
MicroModel make_benign_model(double latency_us) {
  MicroModel::Config cfg;
  cfg.hidden = 4;
  cfg.layers = 1;
  MicroModel m{cfg};
  m.drop_head().weight().zero();
  m.drop_head().bias().at(0, 0) = -20.0;  // p(drop) ~ 0
  m.latency_head().weight().zero();
  m.latency_head().bias().at(0, 0) = 0.0;
  m.set_latency_normalization(std::log(latency_us), 1.0);
  return m;
}

TEST(HybridBuilder, WiresComponents) {
  Simulator sim{1};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(4);
  const auto ingress = make_benign_model(8.0);
  const auto egress = make_benign_model(8.0);
  const auto net = build_hybrid_network(sim, cfg, ingress, egress);
  EXPECT_EQ(net.hosts.size(), 32u);
  // Full cluster switches + cores exist; approximated ones do not.
  EXPECT_NE(net.switches[net.spec.tor_id(0, 0)], nullptr);
  EXPECT_EQ(net.switches[net.spec.tor_id(1, 0)], nullptr);
  EXPECT_NE(net.switches[net.spec.core_id(0)], nullptr);
  EXPECT_EQ(net.clusters[0], nullptr);
  for (std::uint32_t c = 1; c < 4; ++c) {
    ASSERT_NE(net.clusters[c], nullptr);
  }
  // Every host has an uplink (full hosts to ToRs, others to the models);
  // only full-fidelity hosts have a ToR downlink.
  for (auto* link : net.host_uplinks) EXPECT_NE(link, nullptr);
  EXPECT_NE(net.host_downlinks[0], nullptr);
  EXPECT_EQ(net.host_downlinks[9], nullptr);
  // The full cluster's ToR<->agg links are recorded (2 ToRs x 2 aggs x 2
  // directions), and only its agg<->core links exist.
  ASSERT_EQ(net.intra_fabric_links.size(), 8u);
  for (const auto& [cluster, link] : net.intra_fabric_links) {
    EXPECT_EQ(cluster, 0u);
    EXPECT_NE(link, nullptr);
  }
  EXPECT_EQ(net.core_links.size(), 4u);
}

TEST(HybridBuilder, RejectsBadConfig) {
  // A valid leaf-spine (one cluster, no cores) leaves nothing to
  // approximate, so only the hybrid builder's own rule rejects it.
  Simulator sim{1};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(1);
  cfg.net.spec.cores = 0;
  const auto m = make_benign_model(8.0);
  EXPECT_THROW(build_hybrid_network(sim, cfg, m, m), std::invalid_argument);
}

TEST(HybridNetwork, FlowFullToApproxCompletes) {
  Simulator sim{2};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  const auto ingress = make_benign_model(8.0);
  const auto egress = make_benign_model(8.0);
  auto net = build_hybrid_network(sim, cfg, ingress, egress);
  bool complete = false;
  sim.schedule_at(SimTime::from_us(10), [&] {
    auto* c = net.hosts[0]->open_flow(12, 50'000, 1);  // into approx cluster
    c->on_complete = [&] { complete = true; };
  });
  sim.run_until(SimTime::from_ms(100));
  EXPECT_TRUE(complete);
  EXPECT_GT(net.clusters[1]->stats().ingress_packets, 20u);
  EXPECT_GT(net.clusters[1]->stats().egress_packets, 20u);  // ACKs back
}

TEST(HybridNetwork, FlowApproxToFullCompletes) {
  Simulator sim{3};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  const auto ingress = make_benign_model(8.0);
  const auto egress = make_benign_model(8.0);
  auto net = build_hybrid_network(sim, cfg, ingress, egress);
  bool complete = false;
  std::uint64_t received = 0;
  net.hosts[3]->on_accept = [&](tcp::TcpConnection& c) {
    c.on_data = [&](std::uint64_t d) { received += d; };
  };
  sim.schedule_at(SimTime::from_us(10), [&] {
    auto* c = net.hosts[10]->open_flow(3, 30'000, 1);
    c->on_complete = [&] { complete = true; };
  });
  sim.run_until(SimTime::from_ms(100));
  EXPECT_TRUE(complete);
  EXPECT_EQ(received, 30'000u);
}

TEST(HybridNetwork, RttReflectsModelLatency) {
  // With a rigged 50us fabric model, the RTT through the approximated
  // cluster must be roughly 2*50us + wire/serialization overheads.
  Simulator sim{4};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  const auto ingress = make_benign_model(50.0);
  const auto egress = make_benign_model(50.0);
  auto net = build_hybrid_network(sim, cfg, ingress, egress);
  stats::LatencyCollector rtt;
  net.hosts[0]->set_rtt_collector(&rtt);
  sim.schedule_at(SimTime::from_us(10),
                  [&] { net.hosts[0]->open_flow(12, 20'000, 1); });
  sim.run_until(SimTime::from_ms(100));
  ASSERT_GT(rtt.summary().count(), 5u);
  EXPECT_GT(rtt.summary().min(), 100e-6);   // 2 model traversals
  EXPECT_LT(rtt.summary().min(), 200e-6);   // plus bounded overheads
}

TEST(HybridNetwork, DroppyModelForcesRetransmissions) {
  Simulator sim{5};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  const auto ingress = [&] {
    MicroModel m = make_benign_model(8.0);
    m.drop_head().bias().at(0, 0) = -2.0;  // ~12% drop probability
    return m;
  }();
  const auto egress = make_benign_model(8.0);
  auto net = build_hybrid_network(sim, cfg, ingress, egress);
  tcp::TcpConnection* conn = nullptr;
  bool complete = false;
  sim.schedule_at(SimTime::from_us(10), [&] {
    conn = net.hosts[0]->open_flow(12, 100'000, 1);
    conn->on_complete = [&] { complete = true; };
  });
  sim.run_until(SimTime::from_sec(5));
  EXPECT_TRUE(complete);  // TCP rides through model-predicted drops
  ASSERT_NE(conn, nullptr);
  EXPECT_GT(conn->stats().retransmissions, 0u);
  EXPECT_GT(net.clusters[1]->stats().predicted_drops, 0u);
}

// The min-latency floor and the max-port-backlog clamp on a live run. The
// model predicts ~0.5 us, far below the 5 us floor, so every delivery
// clamps to arrival + min_latency_s; three flows converge 3:1 on host 12,
// one emulated ingress port whose virtual drop-tail holds 3 us.
TEST(ApproxCluster, LatencyFloorAndBacklogClampBite) {
  Simulator sim{7};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  cfg.approx.min_latency_s = 5e-6;
  cfg.approx.max_port_backlog = SimTime::from_us(3);
  const auto model = make_benign_model(0.5);
  auto net = build_hybrid_network(sim, cfg, model, model);
  stats::LatencyCollector rtt;
  net.hosts[0]->set_rtt_collector(&rtt);
  sim.schedule_at(SimTime::from_us(10),
                  [&] { net.hosts[0]->open_flow(12, 200'000, 1); });
  sim.schedule_at(SimTime::from_us(11),
                  [&] { net.hosts[1]->open_flow(12, 200'000, 2); });
  sim.schedule_at(SimTime::from_us(12),
                  [&] { net.hosts[4]->open_flow(12, 200'000, 3); });
  sim.run_until(SimTime::from_ms(80));
  // The floor bites: a sub-microsecond model prediction cannot produce an
  // RTT below two clamped 5 us fabric traversals.
  ASSERT_GT(rtt.summary().count(), 0u);
  EXPECT_GT(rtt.summary().min(), 10e-6);
  // The backlog clamp bites: the port sheds packets past its 3 us
  // drop-tail and pushes conflicting deliveries to later slots.
  EXPECT_GT(net.clusters[1]->stats().backlog_drops, 0u);
  EXPECT_GT(net.clusters[1]->stats().conflicts_resolved, 0u);
}

TEST(HybridNetwork, ElisionFilterKeepsApproxOnlyTrafficOut) {
  // With 4 clusters, flows between approximated clusters are elided; the
  // ApproxClusters then only ever see traffic touching cluster 0.
  ExperimentConfig cfg;
  cfg.net.spec = spec_with_clusters(4);
  cfg.duration = SimTime::from_ms(10);
  cfg.load = 0.2;
  TrainedModels models;
  models.ingress =
      std::make_unique<MicroModel>(make_benign_model(8.0));
  models.egress = std::make_unique<MicroModel>(make_benign_model(8.0));
  const auto result = run_hybrid_simulation(cfg, cfg.net.spec, models);
  EXPECT_GT(result.flows_launched, 0u);
  EXPECT_GT(result.flows_completed, 0u);
  // intra_packets counts approx-intra deliveries; elision keeps it at 0.
  EXPECT_EQ(result.approx_stats.intra_packets, 0u);
}

TEST(HybridNetwork, RunCountsThePacketClusterFabric) {
  // A hybrid run's intra_fabric region is the packet cluster's ToR<->agg
  // traffic: the sum over BuiltNetwork::intra_fabric_links of the same
  // run, rebuilt here step by step.
  ExperimentConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  cfg.duration = SimTime::from_ms(5);
  cfg.load = 0.3;
  TrainedModels models;
  models.ingress = std::make_unique<MicroModel>(make_benign_model(8.0));
  models.egress = std::make_unique<MicroModel>(make_benign_model(8.0));
  const auto result = run_hybrid_simulation(cfg, cfg.net.spec, models);
  EXPECT_GT(result.regions.intra_fabric.sent, 0u);

  const net::ClosSpec& spec = cfg.net.spec;
  Simulator sim{cfg.seed + 1};
  HybridConfig hcfg;
  hcfg.net = cfg.net;
  hcfg.approx = cfg.approx;
  hcfg.approx.macro = cfg.macro;
  auto net = build_hybrid_network(sim, hcfg, *models.ingress, *models.egress);
  auto sizes = workload::mini_web_distribution();
  workload::ClusterMixTraffic matrix{spec, cfg.intra_fraction};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = cfg.load;
  gcfg.host_bandwidth_bps = cfg.net.host_uplink.bandwidth_bps;
  gcfg.stop_at = cfg.duration;
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "gen", net.hosts, sizes.get(), &matrix, gcfg);
  gen->admission_filter = [&spec](net::HostId src, net::HostId dst) {
    return spec.cluster_of_host(src) == 0 || spec.cluster_of_host(dst) == 0;
  };
  gen->start();
  sim.run_until(cfg.duration);
  std::uint64_t sent = 0;
  for (const auto& [cluster, link] : net.intra_fabric_links) {
    sent += link->counter().sent;
  }
  EXPECT_EQ(result.regions.intra_fabric.sent, sent);
}

TEST(Pipeline, TrainThenApproximateEndToEnd) {
  // The complete paper workflow at miniature scale. Checks that the
  // trained hybrid produces (a) completing flows, (b) an RTT CDF in the
  // groundtruth's ballpark (Figure 4's qualitative claim), and (c) fewer
  // events than the full simulation (the mechanism behind Figure 5).
  ExperimentConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  cfg.duration = SimTime::from_ms(15);
  cfg.train_duration = SimTime::from_ms(15);
  cfg.load = 0.25;
  cfg.model.hidden = 8;
  cfg.model.layers = 1;
  cfg.train.batches = 60;
  cfg.train.batch_size = 16;
  cfg.train.seq_len = 16;
  cfg.train.learning_rate = 5e-3;

  const auto models = train_cluster_models(cfg);
  EXPECT_GT(models.boundary_records, 100u);
  EXPECT_LT(models.ingress_report.final_loss,
            models.ingress_report.initial_loss);
  EXPECT_LT(models.egress_report.final_loss,
            models.egress_report.initial_loss);

  const auto full = run_full_simulation(cfg, cfg.net.spec);
  const auto hybrid = run_hybrid_simulation(cfg, cfg.net.spec, models);

  EXPECT_GT(full.flows_completed, 10u);
  EXPECT_GT(hybrid.flows_completed, 10u);
  ASSERT_GT(full.rtt_cdf.size(), 50u);
  ASSERT_GT(hybrid.rtt_cdf.size(), 50u);

  // Distributional agreement: medians within an order of magnitude and a
  // bounded KS distance (the paper's own prototype "consistently
  // underestimates congestion" — exactness is not the claim).
  const double med_full = full.rtt_cdf.quantile(0.5);
  const double med_hybrid = hybrid.rtt_cdf.quantile(0.5);
  EXPECT_LT(med_hybrid, med_full * 10);
  EXPECT_GT(med_hybrid, med_full / 10);
  EXPECT_LT(stats::ks_distance(full.rtt_cdf, hybrid.rtt_cdf), 0.7);

  // The approximate simulation does strictly less event work.
  EXPECT_LT(hybrid.events_executed, full.events_executed);
}

}  // namespace
}  // namespace esim::core
