// Tests for the model evaluation utilities.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "approx/evaluation.h"
#include "approx/trainer.h"
#include "sim/random.h"

namespace esim {
namespace {

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
  // Pinned to the bit: average ranks are multiples of 0.5, so the rank
  // sum behind the AUC is exact whatever order it is summed in.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(metrics.drop_auc),
            0x3fefe348627f987bULL)
      << metrics.drop_auc;
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

// A drop head with zero weights scores every row the same: one tie group
// spans every rank, each drop adds the group's average rank, and the AUC
// comes out exactly 0.5.
TEST(Evaluation, AllTiedScoresGiveChanceAuc) {
  sim::Rng rng{33};
  const auto ds = synthetic_dataset(400, rng);
  approx::MicroModel::Config mcfg;
  mcfg.hidden = 4;
  mcfg.layers = 1;
  approx::MicroModel model{mcfg};
  model.drop_head().weight().zero();
  model.recompile();
  const auto metrics = approx::evaluate_micro_model(model, ds);
  ASSERT_GT(metrics.base_drop_rate, 0.0);
  ASSERT_LT(metrics.base_drop_rate, 1.0);
  EXPECT_EQ(metrics.drop_auc, 0.5);
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
