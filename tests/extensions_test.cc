// Tests for extension features: ECN marking, model serialization reuse,
// ApproxCluster edge cases, and the virtual drop-tail backlog cap.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/approx_cluster.h"
#include "core/conflict.h"
#include "core/network.h"
#include "ml/serialize.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "telemetry/fidelity.h"

namespace esim {
namespace {

using net::Link;
using net::Packet;
using sim::SimTime;
using sim::Simulator;

class CollectSink : public net::PacketHandler {
 public:
  void handle_packet(Packet pkt) override { packets.push_back(pkt); }
  std::vector<Packet> packets;
};

Packet data_packet(std::uint64_t id) {
  Packet p;
  p.id = id;
  p.flow = net::FlowKey{0, 1, 100, 80};
  p.payload = 1460;
  return p;
}

TEST(EcnMarking, MarksWhenQueueAboveThreshold) {
  Simulator sim;
  CollectSink sink;
  Link::Config cfg;
  cfg.bandwidth_bps = 1e8;  // slow: queue builds instantly
  cfg.queue_capacity_bytes = 100'000;
  cfg.ecn_threshold_bytes = 3'000;  // ~2 packets
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  sim.schedule_at(SimTime::from_us(1), [&] {
    for (int i = 0; i < 6; ++i) link->send(data_packet(i + 1));
  });
  sim.run();
  ASSERT_EQ(sink.packets.size(), 6u);
  // First packets see an empty/shallow queue: unmarked. Later ones see
  // >= 3000B queued: marked.
  EXPECT_FALSE(sink.packets[0].ecn);
  EXPECT_FALSE(sink.packets[1].ecn);
  int marked = 0;
  for (const auto& p : sink.packets) marked += p.ecn ? 1 : 0;
  EXPECT_GE(marked, 3);
}

TEST(EcnMarking, DisabledByDefault) {
  Simulator sim;
  CollectSink sink;
  Link::Config cfg;
  cfg.bandwidth_bps = 1e8;
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  sim.schedule_at(SimTime::from_us(1), [&] {
    for (int i = 0; i < 10; ++i) link->send(data_packet(i + 1));
  });
  sim.run();
  for (const auto& p : sink.packets) EXPECT_FALSE(p.ecn);
}

TEST(MicroModelSerialize, ReloadedModelPredictsIdentically) {
  for (const ml::TrunkKind kind : {ml::TrunkKind::Lstm, ml::TrunkKind::Gru}) {
    SCOPED_TRACE(ml::trunk_kind_name(kind));
    approx::MicroModel::Config cfg;
    cfg.hidden = 12;
    cfg.layers = 2;
    cfg.trunk = kind;
    cfg.seed = 77;
    approx::MicroModel original{cfg};
    original.set_latency_normalization(2.5, 0.8);

    const std::string path = ::testing::TempDir() + "/esim_micro_" +
                             ml::trunk_kind_name(kind) + ".bin";
    ml::save_parameters(path, original.parameters());

    approx::MicroModel::Config other = cfg;
    other.seed = 999;  // different init; must be fully overwritten by load
    approx::MicroModel reloaded{other};
    ml::load_parameters(path, reloaded);
    std::remove(path.c_str());

    // The load bumped the weight version, so the session compiled from
    // the old weights refuses to predict until it is rebuilt.
    approx::PacketFeatures f;
    EXPECT_THROW((void)reloaded.predict(f), std::logic_error);
    reloaded.recompile();

    // The normalization constants travel with the weights.
    EXPECT_EQ(reloaded.denormalize_latency(0.3),
              original.denormalize_latency(0.3));
    EXPECT_EQ(reloaded.normalize_latency(20e-6),
              original.normalize_latency(20e-6));

    // Identical streaming predictions over a feature sequence.
    for (int i = 0; i < 32; ++i) {
      f.v[0] = 0.01 * i;
      f.v[5] = 0.3;
      f.v[9] = 1.0;
      const auto a = original.predict(f);
      const auto b = reloaded.predict(f);
      EXPECT_EQ(a.drop_probability, b.drop_probability) << i;
      EXPECT_EQ(a.latency_seconds, b.latency_seconds) << i;
    }
  }
}

TEST(DeliverySerializerBacklog, RefusesBeyondCap) {
  core::DeliverySerializer s{10e9};
  // Fill 100us of backlog with 1250B packets (1us each).
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        s.try_reserve(SimTime::from_us(10), 1250, SimTime::from_us(120))
            .has_value());
  }
  // next_free is now 10us + 100us = 110us; a packet wanting 10us with a
  // 120us cap still fits...
  EXPECT_TRUE(s.try_reserve(SimTime::from_us(10), 1250,
                            SimTime::from_us(120))
                  .has_value());
  // ...but with a 50us cap it must be refused, and refusal reserves
  // nothing.
  const auto before = s.next_free();
  EXPECT_FALSE(s.try_reserve(SimTime::from_us(10), 1250,
                             SimTime::from_us(50))
                   .has_value());
  EXPECT_EQ(s.next_free(), before);
}

TEST(ApproxCluster, RejectsForeignHostAttach) {
  Simulator sim;
  core::ApproxCluster::Config cfg;
  cfg.spec.clusters = 2;
  cfg.spec.cores = 2;
  cfg.cluster = 1;
  approx::MicroModel::Config mcfg;
  mcfg.hidden = 4;
  mcfg.layers = 1;
  approx::MicroModel model{mcfg};
  auto* cluster =
      sim.add_component<core::ApproxCluster>("ac", cfg, model, model);
  Simulator host_sim;  // host object only; never run
  auto* foreign = sim.add_component<tcp::Host>("h0", 0);  // cluster 0 host
  EXPECT_THROW(cluster->attach_host(0, foreign), std::invalid_argument);
}

TEST(ApproxCluster, AdaptiveTierRequiresObservatory) {
  Simulator sim;
  core::ApproxCluster::Config cfg;
  cfg.spec.clusters = 2;
  cfg.spec.cores = 2;
  cfg.cluster = 1;
  cfg.tier.mode = core::ClusterTierPolicy::Mode::Adaptive;
  approx::MicroModel::Config mcfg;
  mcfg.hidden = 4;
  mcfg.layers = 1;
  const approx::MicroModel model{mcfg};
  // The controller steps on the observatory's congestion classification,
  // so an adaptive cluster without an enabled sink is refused.
  telemetry::FidelitySink disabled{telemetry::FidelityConfig{}};
  telemetry::FidelitySink* const sinks[] = {nullptr, &disabled};
  for (telemetry::FidelitySink* sink : sinks) {
    cfg.fidelity = sink;
    try {
      sim.add_component<core::ApproxCluster>("ac", cfg, model, model);
      ADD_FAILURE() << "adaptive cluster built without an observatory";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("fidelity observatory"),
                std::string::npos)
          << e.what();
    }
  }
  telemetry::FidelityConfig on;
  on.enabled = true;
  telemetry::FidelitySink sink{on};
  cfg.fidelity = &sink;
  EXPECT_NO_THROW(
      sim.add_component<core::ApproxCluster>("ac", cfg, model, model));
}

TEST(ApproxCluster, BacklogDropsCountedUnderOverload) {
  // A model predicting near-zero latency funnels packets into one host
  // faster than 10G; the virtual drop-tail must engage.
  Simulator sim{3};
  core::HybridConfig cfg;
  cfg.net.spec.clusters = 2;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  cfg.approx.max_port_backlog = SimTime::from_us(20);  // tight cap
  approx::MicroModel::Config mcfg;
  mcfg.hidden = 4;
  mcfg.layers = 1;
  approx::MicroModel model{mcfg};
  model.drop_head().weight().zero();
  model.drop_head().bias().at(0, 0) = -20.0;  // never drop by prediction
  model.latency_head().weight().zero();
  model.set_latency_normalization(std::log(1.0), 1.0);  // ~1us latency
  auto net = core::build_hybrid_network(sim, cfg, model, model);
  // Blast from 6 full-fidelity hosts into one approximated host.
  sim.schedule_at(SimTime::from_us(5), [&] {
    for (net::HostId h = 0; h < 6; ++h) {
      net.hosts[h]->open_flow(12, 400'000, h + 1);
    }
  });
  sim.run_until(SimTime::from_ms(200));
  EXPECT_GT(net.clusters[1]->stats().backlog_drops, 0u);
}

}  // namespace
}  // namespace esim
