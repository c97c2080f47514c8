// Tests for the request/response web-service application and the model
// evaluation utilities.
#include <gtest/gtest.h>

#include <cmath>

#include "approx/evaluation.h"
#include "approx/trainer.h"
#include "core/network.h"
#include "sim/random.h"
#include "workload/request_response.h"

namespace esim {
namespace {

using sim::SimTime;
using sim::Simulator;

core::NetworkConfig two_cluster() {
  core::NetworkConfig cfg;
  cfg.spec.clusters = 2;
  cfg.spec.tors_per_cluster = 2;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 4;
  cfg.spec.cores = 2;
  return cfg;
}

TEST(RequestResponse, ExchangesCompleteEndToEnd) {
  Simulator sim{21};
  auto net = core::build_full_network(sim, two_cluster());
  auto responses = workload::mini_web_distribution();
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  workload::RequestResponseApp::Config cfg;
  cfg.arrivals_per_second = 20'000;
  cfg.stop_at = SimTime::from_ms(10);
  auto* app = sim.add_component<workload::RequestResponseApp>(
      "rr", net.hosts, responses.get(), &matrix, cfg);
  app->start();
  sim.run_until(SimTime::from_ms(200));

  ASSERT_GT(app->exchanges().size(), 50u);
  EXPECT_GT(app->completed(), app->exchanges().size() * 9 / 10);
  for (const auto& ex : app->exchanges()) {
    if (!ex.done) continue;
    // An exchange takes at least two full network round trips (request
    // handshake+body, response handshake+body).
    EXPECT_GT(ex.duration().to_seconds(), 20e-6);
    EXPECT_NE(ex.client, ex.server);
  }
  const auto cdf = app->duration_cdf();
  EXPECT_EQ(cdf.size(), app->completed());
  EXPECT_GT(cdf.quantile(0.5), 0.0);
}

TEST(RequestResponse, ResponseSizesFollowDistribution) {
  Simulator sim{22};
  auto net = core::build_full_network(sim, two_cluster());
  workload::FixedFlowSize responses{50'000};
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  workload::RequestResponseApp::Config cfg;
  cfg.arrivals_per_second = 10'000;
  cfg.max_exchanges = 20;
  auto* app = sim.add_component<workload::RequestResponseApp>(
      "rr", net.hosts, &responses, &matrix, cfg);
  app->start();
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(app->exchanges().size(), 20u);
  for (const auto& ex : app->exchanges()) {
    EXPECT_EQ(ex.response_bytes, 50'000u);
  }
  EXPECT_EQ(app->completed(), 20u);
}

TEST(RequestResponse, RejectsBadConfig) {
  Simulator sim{23};
  auto net = core::build_full_network(sim, two_cluster());
  workload::FixedFlowSize responses{1000};
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  workload::RequestResponseApp::Config cfg;
  cfg.arrivals_per_second = 0;
  EXPECT_THROW(workload::RequestResponseApp(sim, "rr", net.hosts,
                                            &responses, &matrix, cfg),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Evaluation utilities.

approx::Dataset synthetic_dataset(int n, sim::Rng& rng) {
  approx::Dataset ds;
  for (int i = 0; i < n; ++i) {
    approx::PacketFeatures f;
    f.v[0] = rng.uniform();
    f.v[7] = rng.uniform();
    const bool drop = f.v[0] > 0.8;
    ds.features.push_back(f);
    ds.drop_targets.push_back(drop ? 1.0 : 0.0);
    ds.latency_log_us.push_back(drop ? 0.0 : 1.0 + f.v[7]);
  }
  double sum = 0, sq = 0;
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < ds.features.size(); ++i) {
    if (ds.drop_targets[i] < 0.5) {
      sum += ds.latency_log_us[i];
      sq += ds.latency_log_us[i] * ds.latency_log_us[i];
      ++cnt;
    }
  }
  ds.mean_log_us = sum / cnt;
  ds.std_log_us = std::sqrt(sq / cnt - ds.mean_log_us * ds.mean_log_us);
  return ds;
}

TEST(Evaluation, SplitIsChronological) {
  sim::Rng rng{30};
  const auto ds = synthetic_dataset(1000, rng);
  const auto [train, test] = approx::split_dataset(ds, 0.8);
  EXPECT_EQ(train.size(), 800u);
  EXPECT_EQ(test.size(), 200u);
  // First test row is the row after the last train row.
  EXPECT_EQ(test.features[0].v, ds.features[800].v);
  EXPECT_GT(train.std_log_us, 0.0);
  EXPECT_THROW(approx::split_dataset(ds, 0.0), std::invalid_argument);
  EXPECT_THROW(approx::split_dataset(ds, 1.0), std::invalid_argument);
}

TEST(Evaluation, TrainedModelScoresAboveChance) {
  sim::Rng rng{31};
  const auto ds = synthetic_dataset(3000, rng);
  const auto [train, test] = approx::split_dataset(ds, 0.7);

  approx::MicroModel::Config mcfg;
  mcfg.hidden = 10;
  mcfg.layers = 1;
  approx::MicroModel model{mcfg};
  approx::TrainConfig tcfg;
  tcfg.batch_size = 32;
  tcfg.seq_len = 8;
  tcfg.batches = 500;
  tcfg.learning_rate = 3e-2;
  approx::train_micro_model(model, train, tcfg);

  const auto metrics = approx::evaluate_micro_model(model, test);
  EXPECT_EQ(metrics.rows, test.size());
  EXPECT_GT(metrics.drop_auc, 0.9);  // separable problem: near-perfect rank
  EXPECT_GT(metrics.drop_accuracy, 0.9);
  EXPECT_GT(metrics.drop_recall, 0.5);
  EXPECT_GT(metrics.drop_precision, 0.5);
  EXPECT_NEAR(metrics.base_drop_rate, 0.2, 0.05);
  EXPECT_LT(metrics.latency_mae, 0.5);
}

TEST(Evaluation, UntrainedModelIsNearChance) {
  sim::Rng rng{32};
  const auto ds = synthetic_dataset(1500, rng);
  approx::MicroModel::Config mcfg;
  mcfg.hidden = 8;
  mcfg.layers = 1;
  approx::MicroModel model{mcfg};
  const auto metrics = approx::evaluate_micro_model(model, ds);
  EXPECT_GT(metrics.drop_auc, 0.2);
  EXPECT_LT(metrics.drop_auc, 0.8);
}

TEST(Evaluation, EmptyTestSetIsHarmless) {
  approx::MicroModel::Config mcfg;
  mcfg.hidden = 4;
  mcfg.layers = 1;
  approx::MicroModel model{mcfg};
  approx::Dataset empty;
  const auto metrics = approx::evaluate_micro_model(model, empty);
  EXPECT_EQ(metrics.rows, 0u);
}

}  // namespace
}  // namespace esim
