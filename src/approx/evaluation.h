// Held-out evaluation of micro models.
//
// The paper's workflow generates "training and testing sets" (§3); this
// module provides the testing half: a chronological train/test split (the
// model must extrapolate forward in time, so random splits would leak)
// and classification/regression metrics beyond raw accuracy — drop
// prediction is a rare-event problem where accuracy alone is nearly
// meaningless, so ranking (AUC) and precision/recall are reported too.
#pragma once

#include <cstddef>
#include <utility>

#include "approx/dataset.h"
#include "approx/micro_model.h"

namespace esim::approx {

/// Held-out quality of one micro model.
struct EvalMetrics {
  // Drop head (classification).
  double drop_auc = 0.5;        ///< ranking quality; 0.5 = chance
  double drop_accuracy = 0.0;   ///< at threshold 0.5
  double drop_precision = 0.0;  ///< of predicted drops, fraction real
  double drop_recall = 0.0;     ///< of real drops, fraction predicted
  double base_drop_rate = 0.0;  ///< test-set drop fraction (context)

  // Latency head (regression, normalized log space).
  double latency_mae = 0.0;     ///< mean |error|
  double latency_bias = 0.0;    ///< mean signed error (under/over)
  double latency_p90_abs_error = 0.0;

  std::size_t rows = 0;
};

/// One streamed prediction scored against its dataset row: the per-row
/// rule of both the trainer's closing sweep and evaluate_micro_model.
struct RowScore {
  bool was_drop = false;
  bool said_drop = false;  ///< drop probability above 0.5
  /// Delivered rows only: predicted minus target latency, in the
  /// normalized log space the latency head is trained in.
  double latency_error = 0.0;
};

/// Scores `prediction` of `model` against row `row` of `data`.
RowScore score_row(const MicroModel& model, const Dataset& data,
                   std::size_t row, const MicroModel::Prediction& prediction);

/// Splits rows chronologically: the first `train_fraction` become the
/// training set, the rest the test set. Normalization statistics are
/// recomputed for each split from its own delivered rows.
std::pair<Dataset, Dataset> split_dataset(const Dataset& dataset,
                                          double train_fraction);

/// Streams the test set through the model (fresh hidden state) and
/// scores both heads. Resets the model's streaming state before and
/// after.
EvalMetrics evaluate_micro_model(MicroModel& model, const Dataset& test);

}  // namespace esim::approx
