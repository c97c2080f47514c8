#include <gtest/gtest.h>

#include <cmath>

#include "approx/dataset.h"
#include "approx/features.h"
#include "approx/macro_model.h"
#include "approx/micro_model.h"
#include "approx/trace.h"
#include "approx/trainer.h"
#include "core/experiment.h"
#include "core/network.h"
#include "sim/random.h"
#include "workload/generator.h"

namespace esim::approx {
namespace {

using sim::SimTime;

net::ClosSpec two_cluster_spec() {
  net::ClosSpec s;
  s.clusters = 2;
  s.tors_per_cluster = 2;
  s.aggs_per_cluster = 2;
  s.hosts_per_tor = 4;
  s.cores = 2;
  return s;
}

net::Packet make_packet(net::HostId src, net::HostId dst,
                        std::uint16_t sport = 100,
                        std::uint32_t payload = 1460) {
  net::Packet p;
  p.id = (static_cast<std::uint64_t>(src) << 40) | sport;
  p.flow = net::FlowKey{src, dst, sport, 80};
  p.payload = payload;
  return p;
}

TEST(FeatureExtractor, DimensionsAndRanges) {
  FeatureExtractor fx{two_cluster_spec(), 1, Direction::Egress};
  const auto f = fx.extract(make_packet(8, 0), SimTime::from_us(10),
                            MacroState::MinimalCongestion);
  for (double v : f.v) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.6);
  }
  // Macro one-hot.
  EXPECT_EQ(f.v[9], 1.0);
  EXPECT_EQ(f.v[10], 0.0);
}

TEST(FeatureExtractor, MacroOneHotMoves) {
  FeatureExtractor fx{two_cluster_spec(), 1, Direction::Egress};
  const auto f = fx.extract(make_packet(8, 0), SimTime::from_us(10),
                            MacroState::HighCongestion);
  EXPECT_EQ(f.v[9], 0.0);
  EXPECT_EQ(f.v[11], 1.0);
}

TEST(FeatureExtractor, GapTracksInterArrival) {
  FeatureExtractor fx{two_cluster_spec(), 1, Direction::Egress};
  const auto f1 = fx.extract(make_packet(8, 0), SimTime::from_us(10),
                             MacroState::MinimalCongestion);
  EXPECT_EQ(f1.v[5], 0.0);  // first packet: no gap
  const auto f2 = fx.extract(make_packet(8, 0), SimTime::from_us(30),
                             MacroState::MinimalCongestion);
  EXPECT_NEAR(f2.v[5], std::log1p(20.0) / 10.0, 1e-12);
  fx.reset();
  const auto f3 = fx.extract(make_packet(8, 0), SimTime::from_us(50),
                             MacroState::MinimalCongestion);
  EXPECT_EQ(f3.v[5], 0.0);
}

TEST(FeatureExtractor, PathFeaturesMatchReplay) {
  const auto spec = two_cluster_spec();
  FeatureExtractor fx{spec, 1, Direction::Egress};
  const auto pkt = make_packet(8, 0);  // cluster 1 -> cluster 0
  const auto path = net::compute_path(spec, pkt.flow);
  const auto f = fx.extract(pkt, SimTime::from_us(1),
                            MacroState::MinimalCongestion);
  const double switches = spec.total_switches();
  EXPECT_NEAR(f.v[2], path.hops[0] / switches, 1e-12);  // src ToR
  EXPECT_NEAR(f.v[3], path.hops[1] / switches, 1e-12);  // up agg
  EXPECT_NEAR(f.v[4], (path.hops[2] + 1.0) / switches, 1e-12);
  EXPECT_EQ(f.v[8], 0.0);  // inter-cluster
}

TEST(FeatureExtractor, IngressUsesFarSideSwitches) {
  const auto spec = two_cluster_spec();
  FeatureExtractor fx{spec, 1, Direction::Ingress};
  const auto pkt = make_packet(0, 12);  // into cluster 1
  const auto path = net::compute_path(spec, pkt.flow);
  const auto f = fx.extract(pkt, SimTime::from_us(1),
                            MacroState::MinimalCongestion);
  const double switches = spec.total_switches();
  EXPECT_NEAR(f.v[2], path.hops[4] / switches, 1e-12);  // dst ToR
  EXPECT_NEAR(f.v[3], path.hops[3] / switches, 1e-12);  // down agg
}

TEST(MacroClassifier, StartsMinimal) {
  MacroClassifier mc;
  EXPECT_EQ(mc.state(), MacroState::MinimalCongestion);
}

TEST(MacroClassifier, LowLatencyStaysMinimal) {
  MacroClassifier::Config cfg;
  cfg.baseline_latency_s = 6e-6;
  MacroClassifier mc{cfg};
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 50; ++i) mc.observe(5e-6, false);
    mc.advance_window();
  }
  EXPECT_EQ(mc.state(), MacroState::MinimalCongestion);
}

TEST(MacroClassifier, HighDropsClassifyAsState4) {
  // Paper §4.1: "if drops are relatively high, it classifies the network
  // as (4)".
  MacroClassifier::Config cfg;
  cfg.high_drop_rate = 0.05;
  MacroClassifier mc{cfg};
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 50; ++i) mc.observe(50e-6, i % 5 == 0);
    mc.advance_window();
  }
  EXPECT_EQ(mc.state(), MacroState::DecreasingCongestion);
}

TEST(MacroClassifier, RisingLatencyIsIncreasingCongestion) {
  MacroClassifier::Config cfg;
  cfg.baseline_latency_s = 6e-6;
  MacroClassifier mc{cfg};
  double latency = 10e-6;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 50; ++i) mc.observe(latency, false);
    mc.advance_window();
    latency *= 1.6;  // keeps the smoothed signal rising
  }
  EXPECT_EQ(mc.state(), MacroState::IncreasingCongestion);
}

TEST(MacroClassifier, FallingHighLatencyIsHighCongestion) {
  MacroClassifier::Config cfg;
  cfg.baseline_latency_s = 6e-6;
  MacroClassifier mc{cfg};
  // Drive up...
  double latency = 200e-6;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 50; ++i) mc.observe(latency, false);
    mc.advance_window();
    latency *= 1.5;
  }
  // ...then ease down while still well above baseline.
  for (int w = 0; w < 3; ++w) {
    latency *= 0.7;
    for (int i = 0; i < 50; ++i) mc.observe(latency, false);
    mc.advance_window();
  }
  EXPECT_EQ(mc.state(), MacroState::HighCongestion);
}

TEST(MacroClassifier, ResetRestoresInitialState) {
  MacroClassifier mc;
  for (int i = 0; i < 10; ++i) mc.observe(1e-3, true);
  mc.advance_window();
  mc.reset();
  EXPECT_EQ(mc.state(), MacroState::MinimalCongestion);
  EXPECT_EQ(mc.latency_ewma(), 0.0);
}

TEST(MicroModel, PredictionShapesAndNormalization) {
  MicroModel::Config cfg;
  cfg.hidden = 8;
  cfg.layers = 2;
  MicroModel m{cfg};
  m.set_latency_normalization(std::log(20.0), 0.5);
  EXPECT_NEAR(m.denormalize_latency(0.0), 20e-6, 1e-12);
  EXPECT_NEAR(m.normalize_latency(20e-6), 0.0, 1e-9);
  EXPECT_NEAR(m.normalize_latency(m.denormalize_latency(1.3)), 1.3, 1e-9);

  PacketFeatures f;
  const auto p = m.predict(f);
  EXPECT_GE(p.drop_probability, 0.0);
  EXPECT_LE(p.drop_probability, 1.0);
  EXPECT_GT(p.latency_seconds, 0.0);
}

TEST(MicroModel, StatefulPredictionsEvolve) {
  MicroModel::Config cfg;
  cfg.hidden = 8;
  MicroModel m{cfg};
  PacketFeatures f;
  f.v[0] = 0.5;
  const auto p1 = m.predict(f);
  const auto p2 = m.predict(f);
  EXPECT_NE(p1.latency_seconds, p2.latency_seconds);  // hidden state moved
  m.reset_state();
  const auto p3 = m.predict(f);
  EXPECT_DOUBLE_EQ(p1.latency_seconds, p3.latency_seconds);
}

TEST(MicroModel, ParametersIncludeNormalization) {
  MicroModel::Config cfg;
  cfg.hidden = 4;
  MicroModel m{cfg};
  bool found = false;
  for (auto& p : m.parameters()) {
    if (p.name == "norm") found = true;
  }
  EXPECT_TRUE(found);
}

// Regression: copying a model must reset the copy's recurrent state, not
// share the source's streamed history — each ApproxCluster starts its
// private copy from zero state.
TEST(MicroModel, CopyResetsRecurrentState) {
  MicroModel::Config cfg;
  cfg.hidden = 8;
  MicroModel m{cfg};
  MicroModel fresh{m};  // identical weights, untouched state
  PacketFeatures f;
  f.v[0] = 0.5;
  f.v[3] = -0.25;
  for (int i = 0; i < 5; ++i) (void)m.predict(f);  // advance m's state

  MicroModel copied{m};
  MicroModel assigned{fresh};
  assigned = m;
  const auto expected = fresh.predict(f);  // first prediction, zero state
  const auto from_copy = copied.predict(f);
  const auto from_assign = assigned.predict(f);
  EXPECT_EQ(from_copy.latency_seconds, expected.latency_seconds);
  EXPECT_EQ(from_copy.drop_probability, expected.drop_probability);
  EXPECT_EQ(from_assign.latency_seconds, expected.latency_seconds);
  EXPECT_EQ(from_assign.drop_probability, expected.drop_probability);
}

// Runs a short full-fidelity 2-cluster simulation with a recorder on
// cluster 1 and returns the recorder + generator stats.
struct RecordedRun {
  std::vector<BoundaryRecord> records;
  std::uint64_t flows = 0;
};

RecordedRun record_boundary(std::uint64_t seed, SimTime duration) {
  sim::Simulator sim{seed};
  core::NetworkConfig cfg;
  cfg.spec = two_cluster_spec();
  auto network = core::build_full_network(sim, cfg);
  const auto taps = core::make_boundary_taps(network, 1);
  TraceRecorder recorder{cfg.spec, 1, taps};

  auto sizes = workload::mini_web_distribution();
  workload::ClusterMixTraffic matrix{cfg.spec, 0.3};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.3;
  gcfg.stop_at = duration;
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "gen", network.hosts, sizes.get(), &matrix, gcfg);
  gen->start();
  sim.run_until(duration + SimTime::from_ms(20));
  recorder.finalize();
  return RecordedRun{recorder.records(), gen->launched()};
}

TEST(TraceRecorder, CapturesBothDirections) {
  const auto run = record_boundary(5, SimTime::from_ms(10));
  ASSERT_GT(run.records.size(), 100u);
  std::size_t ingress = 0, egress = 0, completed = 0;
  for (const auto& r : run.records) {
    if (r.direction == Direction::Ingress) ++ingress;
    if (r.direction == Direction::Egress) ++egress;
    if (r.completed) ++completed;
  }
  EXPECT_GT(ingress, 20u);
  EXPECT_GT(egress, 20u);
  EXPECT_GT(completed, run.records.size() * 9 / 10);
}

TEST(TraceRecorder, LatenciesArePhysical) {
  const auto run = record_boundary(6, SimTime::from_ms(10));
  // Fabric traversal: at least 2 hops of 1us propagation plus
  // serialization; far below a second.
  for (const auto& r : run.records) {
    if (!r.completed || r.dropped) continue;
    const double lat = (r.exit - r.entry).to_seconds();
    EXPECT_GT(lat, 2e-6);
    EXPECT_LT(lat, 1.0);
  }
}

TEST(TraceRecorder, NoIntraClusterRecords) {
  const auto run = record_boundary(7, SimTime::from_ms(10));
  const auto spec = two_cluster_spec();
  for (const auto& r : run.records) {
    EXPECT_NE(spec.cluster_of_host(r.packet.flow.src_host),
              spec.cluster_of_host(r.packet.flow.dst_host))
        << "intra-cluster packet leaked into the boundary trace";
  }
}

TEST(Dataset, BuildsAlignedRows) {
  const auto run = record_boundary(8, SimTime::from_ms(10));
  const auto ds = build_dataset(two_cluster_spec(), 1, Direction::Egress,
                                run.records, MacroClassifier::Config{});
  ASSERT_GT(ds.size(), 50u);
  EXPECT_EQ(ds.features.size(), ds.drop_targets.size());
  EXPECT_EQ(ds.features.size(), ds.latency_log_us.size());
  EXPECT_GT(ds.std_log_us, 0.0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(ds.drop_targets[i] == 0.0 || ds.drop_targets[i] == 1.0);
    if (ds.drop_targets[i] == 0.0) {
      EXPECT_GT(ds.latency_log_us[i], 0.0);  // > 1us in log space
    }
  }
}

TEST(Trainer, LossDecreasesOnRealTrace) {
  const auto run = record_boundary(9, SimTime::from_ms(15));
  const auto ds = build_dataset(two_cluster_spec(), 1, Direction::Egress,
                                run.records, MacroClassifier::Config{});
  ASSERT_GT(ds.size(), 100u);

  MicroModel::Config mcfg;
  mcfg.hidden = 8;
  mcfg.layers = 1;
  MicroModel model{mcfg};

  TrainConfig tcfg;
  tcfg.batch_size = 16;
  tcfg.seq_len = 16;
  tcfg.batches = 60;
  tcfg.learning_rate = 1e-2;  // small net, small data: larger LR converges
  const auto report = train_micro_model(model, ds, tcfg);
  EXPECT_LT(report.final_loss, report.initial_loss);
  EXPECT_GT(report.drop_accuracy, 0.8);  // drops are rare at 30% load
  EXPECT_EQ(report.dataset_size, ds.size());
}

TEST(Trainer, LearnsSyntheticSeparableDrops) {
  // Synthetic dataset where feature 0 decides drops and feature 7 decides
  // latency: training must reach high accuracy and low latency error.
  sim::Rng rng{10};
  Dataset ds;
  for (int i = 0; i < 3000; ++i) {
    PacketFeatures f;
    f.v[0] = rng.uniform();
    f.v[7] = rng.uniform();
    const bool drop = f.v[0] > 0.7;
    ds.features.push_back(f);
    ds.drop_targets.push_back(drop ? 1.0 : 0.0);
    ds.latency_log_us.push_back(drop ? 0.0 : 1.0 + 2.0 * f.v[7]);
  }
  double sum = 0, sq = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.drop_targets[i] == 0.0) {
      sum += ds.latency_log_us[i];
      sq += ds.latency_log_us[i] * ds.latency_log_us[i];
      ++n;
    }
  }
  ds.mean_log_us = sum / n;
  ds.std_log_us = std::sqrt(sq / n - ds.mean_log_us * ds.mean_log_us);

  MicroModel::Config mcfg;
  mcfg.hidden = 12;
  mcfg.layers = 1;
  MicroModel model{mcfg};
  TrainConfig tcfg;
  tcfg.batch_size = 32;
  tcfg.seq_len = 8;
  tcfg.batches = 800;
  tcfg.learning_rate = 3e-2;
  tcfg.alpha = 1.0;
  const auto report = train_micro_model(model, ds, tcfg);
  EXPECT_GT(report.drop_accuracy, 0.93);
  EXPECT_LT(report.latency_mae, 0.35);
}

TEST(Trainer, RejectsBadInputs) {
  MicroModel::Config mcfg;
  mcfg.hidden = 4;
  MicroModel model{mcfg};
  Dataset empty;
  TrainConfig tcfg;
  EXPECT_THROW(train_micro_model(model, empty, tcfg),
               std::invalid_argument);
  Dataset tiny;
  for (int i = 0; i < 5; ++i) {
    tiny.features.push_back({});
    tiny.drop_targets.push_back(0.0);
    tiny.latency_log_us.push_back(1.0);
  }
  tcfg.seq_len = 32;
  EXPECT_THROW(train_micro_model(model, tiny, tcfg),
               std::invalid_argument);
  tcfg.seq_len = 2;
  tcfg.alpha = 0.0;
  EXPECT_THROW(train_micro_model(model, tiny, tcfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace esim::approx
