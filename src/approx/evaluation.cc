#include "approx/evaluation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace esim::approx {
namespace {

void recompute_normalization(Dataset& ds) {
  double sum = 0, sumsq = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.drop_targets[i] > 0.5) continue;
    sum += ds.latency_log_us[i];
    sumsq += ds.latency_log_us[i] * ds.latency_log_us[i];
    ++n;
  }
  if (n == 0) return;
  ds.mean_log_us = sum / static_cast<double>(n);
  const double var =
      sumsq / static_cast<double>(n) - ds.mean_log_us * ds.mean_log_us;
  ds.std_log_us = var > 1e-12 ? std::sqrt(var) : 1.0;
}

}  // namespace

std::pair<Dataset, Dataset> split_dataset(const Dataset& dataset,
                                          double train_fraction) {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("split_dataset: fraction outside (0,1)");
  }
  const std::size_t cut = static_cast<std::size_t>(
      static_cast<double>(dataset.size()) * train_fraction);
  Dataset train, test;
  auto copy_range = [&](Dataset& out, std::size_t lo, std::size_t hi) {
    out.features.assign(dataset.features.begin() + lo,
                        dataset.features.begin() + hi);
    out.drop_targets.assign(dataset.drop_targets.begin() + lo,
                            dataset.drop_targets.begin() + hi);
    out.latency_log_us.assign(dataset.latency_log_us.begin() + lo,
                              dataset.latency_log_us.begin() + hi);
    recompute_normalization(out);
  };
  copy_range(train, 0, cut);
  copy_range(test, cut, dataset.size());
  return {std::move(train), std::move(test)};
}

RowScore score_row(const MicroModel& model, const Dataset& data,
                   std::size_t row, const MicroModel::Prediction& prediction) {
  RowScore r;
  r.was_drop = data.drop_targets[row] > 0.5;
  r.said_drop = prediction.drop_probability > 0.5;
  if (!r.was_drop) {
    const double target =
        (data.latency_log_us[row] - data.mean_log_us) / data.std_log_us;
    r.latency_error =
        model.normalize_latency(prediction.latency_seconds) - target;
  }
  return r;
}

EvalMetrics evaluate_micro_model(MicroModel& model, const Dataset& test) {
  EvalMetrics m;
  m.rows = test.size();
  if (test.size() == 0) return m;

  model.reset_state();
  // (drop probability, was dropped) per row, for the AUC.
  std::vector<std::pair<double, bool>> scored;
  scored.reserve(test.size());
  std::vector<double> lat_errors;
  std::size_t tp = 0, fp = 0, fn = 0, correct = 0, drops = 0;
  double bias = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const auto pred = model.predict(test.features[i]);
    const RowScore r = score_row(model, test, i, pred);
    scored.emplace_back(pred.drop_probability, r.was_drop);
    drops += r.was_drop ? 1 : 0;
    if (r.said_drop == r.was_drop) ++correct;
    if (r.said_drop && r.was_drop) ++tp;
    if (r.said_drop && !r.was_drop) ++fp;
    if (!r.said_drop && r.was_drop) ++fn;
    if (!r.was_drop) {
      lat_errors.push_back(std::abs(r.latency_error));
      bias += r.latency_error;
    }
  }
  model.reset_state();

  m.drop_accuracy =
      static_cast<double>(correct) / static_cast<double>(test.size());
  m.base_drop_rate =
      static_cast<double>(drops) / static_cast<double>(test.size());
  m.drop_precision =
      tp + fp == 0 ? 0.0
                   : static_cast<double>(tp) / static_cast<double>(tp + fp);
  m.drop_recall =
      tp + fn == 0 ? 0.0
                   : static_cast<double>(tp) / static_cast<double>(tp + fn);

  // AUC via the Mann-Whitney U statistic: probability a random dropped
  // packet scores above a random delivered one (ties count half). Rows
  // tied on score share the average of the 1-based ranks they span, a
  // multiple of 0.5, so the drops' rank sum is exact in any order.
  const std::size_t pos = drops, neg = test.size() - drops;
  if (pos > 0 && neg > 0) {
    std::sort(scored.begin(), scored.end());
    double rank_sum_pos = 0;
    std::size_t i = 0;
    while (i < scored.size()) {
      std::size_t j = i;
      while (j + 1 < scored.size() && scored[j + 1].first == scored[i].first) {
        ++j;
      }
      const double avg_rank = (static_cast<double>(i) +
                               static_cast<double>(j)) / 2.0 + 1.0;
      for (std::size_t k = i; k <= j; ++k) {
        if (scored[k].second) rank_sum_pos += avg_rank;
      }
      i = j + 1;
    }
    const double u = rank_sum_pos -
                     static_cast<double>(pos) *
                         (static_cast<double>(pos) + 1.0) / 2.0;
    m.drop_auc = u / (static_cast<double>(pos) * static_cast<double>(neg));
  }

  if (!lat_errors.empty()) {
    double sum = 0;
    for (double e : lat_errors) sum += e;
    m.latency_mae = sum / static_cast<double>(lat_errors.size());
    m.latency_bias = bias / static_cast<double>(lat_errors.size());
    std::sort(lat_errors.begin(), lat_errors.end());
    m.latency_p90_abs_error =
        lat_errors[static_cast<std::size_t>(0.9 * (lat_errors.size() - 1))];
  }
  return m;
}

}  // namespace esim::approx
