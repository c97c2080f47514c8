#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "approx/dataset.h"
#include "approx/evaluation.h"
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
  MacroClassifier mc;
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
  MacroClassifier mc;
  double latency = 10e-6;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 50; ++i) mc.observe(latency, false);
    mc.advance_window();
    latency *= 1.6;  // keeps the smoothed signal rising
  }
  EXPECT_EQ(mc.state(), MacroState::IncreasingCongestion);
}

TEST(MacroClassifier, FallingHighLatencyIsHighCongestion) {
  MacroClassifier mc;
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

  // Degenerate configs on a dataset that is otherwise large enough: each
  // must fail loudly and name its field, not train nothing, write NaN
  // weights or fail deep inside a shape check.
  Dataset rows;
  for (int i = 0; i < 500; ++i) {
    rows.features.push_back({});
    rows.drop_targets.push_back(i % 7 == 0 ? 1.0 : 0.0);
    rows.latency_log_us.push_back(1.0 + 0.001 * i);
  }
  rows.mean_log_us = 1.25;
  rows.std_log_us = 0.15;
  const auto rejects = [&](void (*mutate)(TrainConfig&), const char* field) {
    TrainConfig cfg;
    cfg.batches = 2;
    mutate(cfg);
    try {
      train_micro_model(model, rows, cfg);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
          << e.what();
    }
  };
  rejects([](TrainConfig& c) { c.batch_size = 0; }, "batch_size");
  rejects([](TrainConfig& c) { c.seq_len = 0; }, "seq_len");
  rejects([](TrainConfig& c) { c.batches = 0; }, "batches");
  rejects([](TrainConfig& c) { c.alpha = std::nan(""); }, "alpha");
  rejects([](TrainConfig& c) { c.learning_rate = std::nan(""); },
          "learning_rate");
  rejects([](TrainConfig& c) { c.learning_rate = -1e-3; }, "learning_rate");
  rejects([](TrainConfig& c) { c.momentum = 1.5; }, "momentum");
  rejects([](TrainConfig& c) { c.clip_norm = std::nan(""); }, "clip_norm");
  TrainConfig ok;
  ok.batches = 2;
  EXPECT_NO_THROW(train_micro_model(model, rows, ok));
}

// ---- Golden oracle ------------------------------------------------------
//
// Training and InferenceSession run on one kernel set (ml/kernels.h), so
// comparing the two paths cannot catch a kernel change that moves both.
// These constants can: they were recorded from the scalar Tensor loops
// that the shared kernels replaced, and must hold under every
// ESIM_INFERENCE_ISA variant the host supports.

std::uint64_t fold(std::uint64_t h, double v) {
  h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  return h ^ (h >> 32);
}

std::uint64_t fold_parameters(std::uint64_t h, MicroModel& model) {
  for (const auto& p : model.parameters()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      h = fold(h, p.value->data()[i]);
    }
  }
  return h;
}

/// 400 rows of 13 features in [-1, 1), with exact zeros in the one-hot
/// tail as real macro-state features have; drops follow feature 0 and
/// latency feature 7, so masked latency gradients (zero rows) occur.
Dataset golden_dataset() {
  sim::Rng rng{21};
  Dataset ds;
  for (int i = 0; i < 400; ++i) {
    PacketFeatures f;
    for (std::size_t k = 0; k < 9; ++k) f.v[k] = rng.uniform() * 2.0 - 1.0;
    f.v[9 + static_cast<std::size_t>(i) % 4] = 1.0;
    const bool drop = f.v[0] > 0.6;
    ds.features.push_back(f);
    ds.drop_targets.push_back(drop ? 1.0 : 0.0);
    ds.latency_log_us.push_back(drop ? 0.0 : 2.0 + f.v[7]);
  }
  ds.mean_log_us = 2.0;
  ds.std_log_us = 0.5;
  return ds;
}

struct GoldenTraining {
  std::uint64_t final_loss_bits;
  std::uint64_t hash;  ///< report fields, then every parameter's bits
};

/// Trains one model per shape — hidden 5 and 16 (gate rows 20/64 for
/// the LSTM, 15/48 for the GRU: full 8-row groups, 4-wide vectors and
/// scalar tails), 1 and 2 layers, batch 1, 3 and 32 — and checks each
/// against `golden`, in that loop order.
void expect_training_matches(ml::TrunkKind trunk,
                             const GoldenTraining (&golden)[12]) {
  const Dataset ds = golden_dataset();
  std::size_t k = 0;
  for (const std::size_t hidden : {5UL, 16UL}) {
    for (const std::size_t layers : {1UL, 2UL}) {
      for (const std::size_t batch : {1UL, 3UL, 32UL}) {
        MicroModel::Config mcfg;
        mcfg.hidden = hidden;
        mcfg.layers = layers;
        mcfg.trunk = trunk;
        mcfg.seed = 3;
        MicroModel model{mcfg};
        TrainConfig tcfg;
        tcfg.batch_size = batch;
        tcfg.seq_len = 7;
        tcfg.batches = 4;
        tcfg.learning_rate = 2e-2;
        tcfg.seed = 11;
        const TrainReport r = train_micro_model(model, ds, tcfg);
        std::uint64_t h = fold(0, r.initial_loss);
        h = fold(h, r.final_drop_loss);
        h = fold(h, r.final_latency_loss);
        h = fold(h, r.drop_accuracy);
        h = fold(h, r.latency_mae);
        h = fold_parameters(h, model);
        const auto loss_bits = std::bit_cast<std::uint64_t>(r.final_loss);
        EXPECT_EQ(loss_bits, golden[k].final_loss_bits)
            << "hidden " << hidden << " layers " << layers << " batch "
            << batch;
        EXPECT_EQ(h, golden[k].hash)
            << "hidden " << hidden << " layers " << layers << " batch "
            << batch << ": {0x" << std::hex << loss_bits << ", 0x" << h
            << "}";
        ++k;
      }
    }
  }
}

TEST(Trainer, WeightsMatchParentGoldenLstm) {
  const GoldenTraining golden[12] = {
      {0x3ff9c0db6c900556, 0x582107cf641bea1c},
      {0x3ff16ae0ae919fba, 0xe618b5093a380763},
      {0x3ff45a98f6a5887b, 0x451c0afe967e0d4},
      {0x3ffab081164f4bee, 0x695dc96ce3a10e1},
      {0x3ff1f7cecdb86615, 0x8184ded3933ce529},
      {0x3ff4dbaf0304d9bb, 0x51099955406d6c49},
      {0x3ffbb5f4cadeeef4, 0x7e3e058f38c2cb87},
      {0x3ff2c23a1e6de7ac, 0xd530d432f8331217},
      {0x3ff60764289ecc6a, 0x588fc2f62db1747},
      {0x3ffa990d25cea7ea, 0x628cf411c88f7799},
      {0x3ff1d213e961339c, 0x647407ce0cedd3cb},
      {0x3ff51b226255116a, 0xeccf93b52f54cd4a},
  };
  expect_training_matches(ml::TrunkKind::Lstm, golden);
}

TEST(Trainer, WeightsMatchParentGoldenGru) {
  const GoldenTraining golden[12] = {
      {0x3ff92ce32d8a2552, 0xd5cde049fa58f091},
      {0x3ff1d3cbec355988, 0xcccd9fc90c87d75f},
      {0x3ff458a700b4a36c, 0x70f27f3d4b80a2ab},
      {0x3ff8a5ef8ee25068, 0x2b046b13216a720f},
      {0x3ff18b335204ea42, 0xb9020b72d05c5eca},
      {0x3ff416142fbf745a, 0x607f14cb74fde7bd},
      {0x3ffbaf6f6a146e88, 0x5365013710a378d},
      {0x3ff2e7da1baf5361, 0xaef2d438933c4724},
      {0x3ff69119a50feca6, 0x2c4d0bdb3afd421a},
      {0x3ffb1b5f59cbc362, 0xd34d3fb9f79f5679},
      {0x3ff12806ec6f7168, 0x26e5dbb0111eb621},
      {0x3ff4677d8e046936, 0xed86392d0c16ea91},
  };
  expect_training_matches(ml::TrunkKind::Gru, golden);
}

// ---- train_from_trace ---------------------------------------------------

core::ExperimentConfig small_pipeline() {
  core::ExperimentConfig cfg;
  cfg.net.spec = two_cluster_spec();
  cfg.seed = 3;
  cfg.train_duration = SimTime::from_ms(5);
  cfg.model.hidden = 8;
  cfg.train.batches = 12;
  cfg.train.batch_size = 8;
  cfg.train.seq_len = 12;
  cfg.train.learning_rate = 1e-2;
  cfg.eval_holdout = 0.25;
  return cfg;
}

std::uint64_t fold_direction(MicroModel& model, const TrainReport& r,
                             const EvalMetrics& e) {
  std::uint64_t h = 0;
  for (const double v :
       {r.initial_loss, r.final_loss, r.final_drop_loss,
        r.final_latency_loss, r.drop_accuracy, r.latency_mae, e.drop_auc,
        e.drop_accuracy, e.drop_precision, e.drop_recall, e.base_drop_rate,
        e.latency_mae, e.latency_bias, e.latency_p90_abs_error}) {
    h = fold(h, v);
  }
  h = fold(h, static_cast<double>(r.dataset_size));
  h = fold(h, static_cast<double>(e.rows));
  return fold_parameters(h, model);
}

// Egress trains on a worker thread while ingress trains on the caller:
// both reports, both held-out evaluations and both models must equal
// what one-after-the-other training on one thread produces. The trace
// comes from record_boundary_trace's generator, so the values also pin
// its arrival stream.
TEST(TrainFromTrace, ConcurrentMatchesParent) {
  const auto cfg = small_pipeline();
  const auto trace = core::record_boundary_trace(cfg);
  const auto models = core::train_from_trace(cfg, trace);
  EXPECT_EQ(models.boundary_records, 28946u);
  ASSERT_TRUE(models.has_eval);
  const std::uint64_t ingress = fold_direction(
      *models.ingress, models.ingress_report, models.ingress_eval);
  const std::uint64_t egress = fold_direction(
      *models.egress, models.egress_report, models.egress_eval);
  EXPECT_EQ(ingress, 0x63d4d6234bc3de4fU) << std::hex << "0x" << ingress;
  EXPECT_EQ(egress, 0x5e7952c084dddc61U) << std::hex << "0x" << egress;
}

// A direction whose dataset is shorter than one sequence fails training.
// On the worker (egress) that failure must come back to the caller as
// the same exception — not std::terminate — and when both directions
// fail the worker is still joined before the exception leaves.
TEST(TrainFromTrace, ShortDatasetThrowsInvalidArgument) {
  auto cfg = small_pipeline();
  cfg.eval_holdout = 0.0;
  const auto keep_first = [](core::BoundaryTrace t, Direction dir,
                             std::size_t n) {
    std::size_t kept = 0;
    std::erase_if(t.records, [&](const BoundaryRecord& r) {
      return r.direction == dir && kept++ >= n;
    });
    return t;
  };
  const auto short_egress =
      keep_first(core::record_boundary_trace(cfg), Direction::Egress, 4);
  try {
    (void)core::train_from_trace(cfg, short_egress);
    ADD_FAILURE() << "short egress dataset accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("smaller than one sequence"),
              std::string::npos)
        << e.what();
  }
  const auto both_short = keep_first(short_egress, Direction::Ingress, 4);
  EXPECT_THROW((void)core::train_from_trace(cfg, both_short),
               std::invalid_argument);
}

}  // namespace
}  // namespace esim::approx
