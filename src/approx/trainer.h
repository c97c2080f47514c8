// Micro-model training (paper §4.2): SGD with momentum on the joint loss
//   L = L_drop + alpha * L_latency
// where L_drop is binary cross entropy per packet, L_latency is MSE over
// normalized log-latency, and dropped packets back-propagate no latency
// error. The paper trains on >50,000 batches of size 64 with learning rate
// 1e-4 and momentum 0.9; all of these are configurable (the defaults are
// scaled down to laptop budgets — see DESIGN.md §1).
#pragma once

#include <cstdint>

#include "approx/dataset.h"
#include "approx/micro_model.h"

namespace esim::approx {

/// Training hyper-parameters.
struct TrainConfig {
  std::size_t batch_size = 64;   ///< sequences per batch (paper: 64)
  std::size_t seq_len = 32;      ///< BPTT truncation length
  std::size_t batches = 400;     ///< paper: >50,000
  double learning_rate = 1e-4;   ///< paper: 0.0001
  double momentum = 0.9;         ///< paper: 0.9
  double alpha = 0.5;            ///< latency-loss weight, 0 < alpha <= 1
  double clip_norm = 5.0;        ///< gradient clipping (0 = off)
  std::uint64_t seed = 7;        ///< batch sampling stream
};

/// What training achieved, for reports and tests.
struct TrainReport {
  double initial_loss = 0.0;
  double final_loss = 0.0;
  double final_drop_loss = 0.0;
  double final_latency_loss = 0.0;
  /// Drop-decision accuracy over the training set at threshold 0.5.
  double drop_accuracy = 0.0;
  /// Mean |error| of the latency head in normalized log space.
  double latency_mae = 0.0;
  std::size_t dataset_size = 0;
};

/// Trains `model` in place on `dataset`. The model's latency
/// normalization is set from the dataset statistics before training.
/// Throws std::invalid_argument, naming the field, when batch_size,
/// seq_len or batches is 0, alpha is outside (0, 1], the optimizer
/// fields fail ml::SgdMomentum's checks, or the dataset is smaller than
/// one sequence.
TrainReport train_micro_model(MicroModel& model, const Dataset& dataset,
                              const TrainConfig& config);

}  // namespace esim::approx
