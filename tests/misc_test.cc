// Focused edge-case tests across modules: experiment pipeline contracts,
// link/ECN boundaries, TCP window caps, generator rate math, macro-window
// decay, and PDES stat accumulation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.h"
#include "net/link.h"
#include "sim/parallel.h"
#include "workload/generator.h"

namespace esim {
namespace {

using net::Link;
using net::Packet;
using sim::SimTime;
using sim::Simulator;

// ------------------------------------------------------------ experiment --

core::ExperimentConfig tiny_experiment() {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = 2;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  cfg.duration = SimTime::from_ms(5);
  cfg.train_duration = SimTime::from_ms(5);
  return cfg;
}

TEST(Experiment, TrainSpecDefaultsToTwoClusters) {
  auto cfg = tiny_experiment();
  cfg.net.spec.clusters = 8;  // run topology is large
  // The pipeline must train on a 2-cluster version (the paper's
  // Figure 3 workflow).
  const auto trace = core::record_boundary_trace(cfg);
  EXPECT_EQ(trace.spec.clusters, 2u);
  EXPECT_EQ(trace.cluster, 1u);
  EXPECT_GT(trace.records.size(), 0u);
}

TEST(Experiment, BoundaryTapsCoverClusterEdges) {
  Simulator sim{1};
  auto cfg = tiny_experiment();
  auto net = core::build_full_network(sim, cfg.net);
  const auto taps = core::make_boundary_taps(net, 1);
  EXPECT_EQ(taps.host_uplinks.size(), 8u);    // 8 hosts in cluster 1
  EXPECT_EQ(taps.host_downlinks.size(), 8u);
  EXPECT_EQ(taps.agg_core_up.size(), 4u);     // 2 aggs x 2 cores
  EXPECT_EQ(taps.core_agg_down.size(), 4u);
  // Drop links: 8 tor->host + 4 agg->core + 8 tor<->agg.
  EXPECT_EQ(taps.drop_links.size(), 20u);
}

TEST(Experiment, FullRunIsDeterministicAndAccounted) {
  const auto cfg = tiny_experiment();
  const auto a = core::run_full_simulation(cfg, cfg.net.spec);
  const auto b = core::run_full_simulation(cfg, cfg.net.spec);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.flows_launched, b.flows_launched);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_GE(a.events_scheduled, a.events_executed);
  EXPECT_GT(a.rtt_cdf.size(), 0u);
  EXPECT_GT(a.mean_fct_seconds, 0.0);
}

// ------------------------------------------------------------------ link --

TEST(LinkEdge, EcnMarksExactlyAtThreshold) {
  Simulator sim;
  class Sink : public net::PacketHandler {
   public:
    void handle_packet(Packet pkt) override { got.push_back(pkt); }
    std::vector<Packet> got;
  } sink;
  Link::Config cfg;
  cfg.bandwidth_bps = 1e6;  // slow; everything queues
  cfg.ecn_threshold_bytes = 1;  // any queued byte marks
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  sim.schedule_at(SimTime::from_us(1), [&] {
    Packet p;
    p.flow = net::FlowKey{0, 1, 1, 2};
    p.payload = 100;
    link->send(p);  // queue empty at enqueue: unmarked
    link->send(p);  // first packet still serializing, queue empty again
    link->send(p);  // now one packet queued: marked
  });
  sim.run();
  ASSERT_EQ(sink.got.size(), 3u);
  EXPECT_FALSE(sink.got[0].ecn);
  EXPECT_TRUE(sink.got[2].ecn);
}

TEST(LinkEdge, BusyAndQueueAccessors) {
  Simulator sim;
  class Sink : public net::PacketHandler {
   public:
    void handle_packet(Packet) override {}
  } sink;
  Link::Config cfg;
  cfg.bandwidth_bps = 1e6;
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  EXPECT_FALSE(link->busy());
  EXPECT_EQ(link->queued_packets(), 0u);
  sim.schedule_at(SimTime::from_us(1), [&] {
    Packet p;
    p.flow = net::FlowKey{0, 1, 1, 2};
    p.payload = 1000;
    link->send(p);
    link->send(p);
    EXPECT_TRUE(link->busy());
    EXPECT_EQ(link->queued_packets(), 1u);  // one serializing, one queued
    EXPECT_EQ(link->queued_bytes(), 1058u);
  });
  sim.run();
  EXPECT_FALSE(link->busy());
}

/// The message of the std::invalid_argument that constructing a link
/// named "port7" with `cfg` throws, or "" when it constructs.
std::string link_config_error(const Link::Config& cfg) {
  Simulator sim;
  class Sink : public net::PacketHandler {
   public:
    void handle_packet(Packet) override {}
  } sink;
  try {
    Link link{sim, "port7", cfg, &sink};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(LinkEdge, RejectsNonFiniteBandwidthNamingTheLink) {
  for (double bw : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1e9}) {
    Link::Config cfg;
    cfg.bandwidth_bps = bw;
    const std::string msg = link_config_error(cfg);
    EXPECT_NE(msg.find("port7"), std::string::npos) << bw << ": " << msg;
    EXPECT_NE(msg.find("bandwidth"), std::string::npos) << bw << ": " << msg;
  }
}

TEST(LinkEdge, RejectsNegativePropagationAtConstruction) {
  Link::Config cfg;
  cfg.propagation = SimTime::from_ns(-1);
  const std::string msg = link_config_error(cfg);
  EXPECT_NE(msg.find("port7"), std::string::npos) << msg;
  EXPECT_NE(msg.find("propagation"), std::string::npos) << msg;
  // Zero propagation is a valid (back-to-back) wire.
  cfg.propagation = SimTime{};
  EXPECT_EQ(link_config_error(cfg), "");
}

// ------------------------------------------------------------------- tcp --

TEST(TcpWindowCaps, ReceiveWindowLimitsFlight) {
  Simulator sim{9};
  tcp::TcpConnection::Config cfg;
  cfg.rwnd = 4 * 1460;  // four segments
  auto* a = sim.add_component<tcp::Host>("a", 0, cfg);
  auto* b = sim.add_component<tcp::Host>("b", 1, cfg);
  Link::Config lc;
  lc.propagation = SimTime::from_us(50);  // long pipe: window binds
  lc.queue_capacity_bytes = 4'000'000;
  auto* ab = sim.add_component<Link>("ab", lc, b);
  auto* ba = sim.add_component<Link>("ba", lc, a);
  a->set_uplink(ab);
  b->set_uplink(ba);
  // Track in-flight bytes directly: highest data byte transmitted minus
  // highest cumulative ACK seen returning.
  std::uint32_t highest_sent = 0;
  std::uint32_t highest_acked = 1;
  std::uint32_t max_outstanding = 0;
  ab->on_transmit = [&](const Packet& pkt, SimTime) {
    if (pkt.payload > 0) {
      highest_sent = std::max(highest_sent, pkt.seq + pkt.payload);
      max_outstanding =
          std::max(max_outstanding, highest_sent - highest_acked);
    }
  };
  ba->on_transmit = [&](const Packet& pkt, SimTime) {
    if (pkt.has(net::TcpFlag::Ack)) {
      highest_acked = std::max(highest_acked, pkt.ack_seq);
    }
  };
  tcp::TcpConnection* conn = nullptr;
  bool complete = false;
  sim.schedule_at(SimTime::from_us(1), [&] {
    conn = a->open_flow(1, 100'000, 1);
    conn->on_complete = [&] { complete = true; };
  });
  sim.run_until(SimTime::from_sec(5));
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(complete);
  // The flight never exceeded the advertised window (small slack for the
  // ACK-in-flight race of this measurement).
  EXPECT_LE(max_outstanding, cfg.rwnd + 1460);
  EXPECT_GE(max_outstanding, cfg.rwnd / 2);  // the window did bind
}

TEST(TcpWindowCaps, SmallInitialSsthreshEntersCongestionAvoidance) {
  Simulator sim{10};
  tcp::TcpConnection::Config cfg;
  cfg.initial_ssthresh = 4 * 1460;
  auto* a = sim.add_component<tcp::Host>("a", 0, cfg);
  auto* b = sim.add_component<tcp::Host>("b", 1, cfg);
  Link::Config lc;
  lc.queue_capacity_bytes = 4'000'000;
  auto* ab = sim.add_component<Link>("ab", lc, b);
  auto* ba = sim.add_component<Link>("ba", lc, a);
  a->set_uplink(ab);
  b->set_uplink(ba);
  tcp::TcpConnection* conn = nullptr;
  sim.schedule_at(SimTime::from_us(1),
                  [&] { conn = a->open_flow(1, 500'000, 1); });
  sim.run_until(SimTime::from_ms(2));
  ASSERT_NE(conn, nullptr);
  // cwnd grew past ssthresh but only linearly: far below what pure slow
  // start would have reached on 500KB.
  EXPECT_GT(conn->cwnd(), 4.0 * 1460);
  EXPECT_LT(conn->cwnd(), 60.0 * 1460);
}

// ------------------------------------------------------------- workload --

TEST(Generator, InterarrivalMatchesLoadFormula) {
  Simulator sim{11};
  core::NetworkConfig ncfg;
  ncfg.spec.clusters = 2;
  ncfg.spec.cores = 2;
  auto net = core::build_full_network(sim, ncfg);
  workload::FixedFlowSize sizes{100'000};
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.5;
  gcfg.host_bandwidth_bps = 10e9;
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "gen", net.hosts, &sizes, &matrix, gcfg);
  // lambda = 0.5 * 16 hosts * 10e9 / 8 / 100000 = 100k flows/sec.
  EXPECT_NEAR(gen->mean_interarrival().to_seconds(), 1e-5, 1e-7);
}

TEST(Generator, LaunchCountTracksRate) {
  Simulator sim{12};
  core::NetworkConfig ncfg;
  ncfg.spec.clusters = 2;
  ncfg.spec.cores = 2;
  auto net = core::build_full_network(sim, ncfg);
  workload::FixedFlowSize sizes{10'000};
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.1;
  gcfg.stop_at = SimTime::from_ms(10);
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "gen", net.hosts, &sizes, &matrix, gcfg);
  gen->start();
  sim.run_until(SimTime::from_ms(50));
  // Expected arrivals: duration / mean_gap.
  const double expected =
      0.01 / gen->mean_interarrival().to_seconds();
  EXPECT_NEAR(static_cast<double>(gen->launched()), expected,
              expected * 0.15);
}

// ---------------------------------------------------------------- macro --

TEST(MacroWindows, EmptyWindowsDecayTowardMinimal) {
  approx::MacroClassifier mc;
  // Drive into a congested regime...
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 50; ++i) mc.observe(1e-3, i % 4 == 0);
    mc.advance_window();
  }
  EXPECT_NE(mc.state(), approx::MacroState::MinimalCongestion);
  // ...then stop all traffic: empty windows fold in zeros and the state
  // returns to MinimalCongestion.
  for (int w = 0; w < 30; ++w) mc.advance_window();
  EXPECT_EQ(mc.state(), approx::MacroState::MinimalCongestion);
}

// ----------------------------------------------------------------- pdes --

TEST(ParallelStats, AccumulateAcrossRuns) {
  sim::ParallelEngine::Config cfg;
  cfg.num_partitions = 2;
  cfg.lookahead = SimTime::from_us(1);
  sim::ParallelEngine eng{cfg};
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(2), [&] {
    eng.send_cross(0, 1, s0.now() + SimTime::from_us(2), [] {});
  });
  eng.run_until(SimTime::from_us(100));
  const auto rounds1 = eng.stats().sync_rounds;
  EXPECT_EQ(eng.stats().cross_messages, 1u);
  s0.schedule_at(SimTime::from_us(200), [&] {
    eng.send_cross(0, 1, s0.now() + SimTime::from_us(2), [] {});
  });
  eng.run_until(SimTime::from_us(300));
  EXPECT_EQ(eng.stats().cross_messages, 2u);
  EXPECT_GT(eng.stats().sync_rounds, rounds1);
}

}  // namespace
}  // namespace esim
