#include "approx/trainer.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "approx/evaluation.h"
#include "ml/loss.h"
#include "ml/optimizer.h"
#include "sim/random.h"

namespace esim::approx {

TrainReport train_micro_model(MicroModel& model, const Dataset& dataset,
                              const TrainConfig& config) {
  const std::size_t N = dataset.size();
  const std::size_t T = config.seq_len;
  const std::size_t B = config.batch_size;
  if (B == 0) {
    throw std::invalid_argument("train_micro_model: batch_size must be >= 1");
  }
  if (T == 0) {
    throw std::invalid_argument("train_micro_model: seq_len must be >= 1");
  }
  if (config.batches == 0) {
    throw std::invalid_argument("train_micro_model: batches must be >= 1");
  }
  if (N < T + 1) {
    throw std::invalid_argument(
        "train_micro_model: dataset smaller than one sequence");
  }
  if (!(config.alpha > 0.0 && config.alpha <= 1.0)) {  // NaN fails too
    throw std::invalid_argument("train_micro_model: alpha outside (0, 1]");
  }

  ml::SgdMomentum::Config ocfg;
  ocfg.learning_rate = config.learning_rate;
  ocfg.momentum = config.momentum;
  ocfg.clip_norm = config.clip_norm;
  // The Module overload bumps the model's weight version on every step,
  // so a compiled InferenceSession that misses the recompile below
  // throws instead of silently predicting with pre-training weights.
  // Built before the model is touched: its constructor validates ocfg.
  ml::SgdMomentum opt{model, ocfg};

  model.set_latency_normalization(dataset.mean_log_us, dataset.std_log_us);

  sim::Rng rng{config.seed};
  TrainReport report;
  report.dataset_size = N;

  ml::SequenceModel& trunk = model.trunk();
  ml::Linear& drop_head = model.drop_head();
  ml::Linear& latency_head = model.latency_head();

  for (std::size_t batch = 0; batch < config.batches; ++batch) {
    // Sample B random sequence starts.
    std::vector<std::size_t> starts(B);
    for (auto& s : starts) s = rng.uniform_int(N - T);

    // Assemble per-timestep tensors.
    std::vector<ml::Tensor> xs(T);
    std::vector<ml::Tensor> drop_t(T), lat_t(T), mask_t(T);
    for (std::size_t t = 0; t < T; ++t) {
      xs[t] = ml::Tensor{B, PacketFeatures::kDim};
      drop_t[t] = ml::Tensor{B, 1};
      lat_t[t] = ml::Tensor{B, 1};
      mask_t[t] = ml::Tensor{B, 1};
      for (std::size_t b = 0; b < B; ++b) {
        const std::size_t row = starts[b] + t;
        for (std::size_t k = 0; k < PacketFeatures::kDim; ++k) {
          xs[t].at(b, k) = dataset.features[row].v[k];
        }
        const double dropped = dataset.drop_targets[row];
        drop_t[t].at(b, 0) = dropped;
        mask_t[t].at(b, 0) = dropped > 0.5 ? 0.0 : 1.0;
        lat_t[t].at(b, 0) =
            dropped > 0.5
                ? 0.0
                : (dataset.latency_log_us[row] - dataset.mean_log_us) /
                      dataset.std_log_us;
      }
    }

    auto state = trunk.make_state(B);
    std::unique_ptr<ml::SequenceModel::Cache> cache;
    const auto hs = trunk.forward(xs, *state, cache);

    double drop_loss = 0.0, lat_loss = 0.0;
    std::vector<ml::Tensor> dhs(T);
    for (std::size_t t = 0; t < T; ++t) {
      const ml::Tensor logits = drop_head.forward(hs[t]);
      const ml::Tensor lat_pred = latency_head.forward(hs[t]);

      ml::Tensor dlogits, dlat;
      drop_loss += ml::bce_with_logits(logits, drop_t[t], &dlogits) /
                   static_cast<double>(T);
      lat_loss += ml::masked_mse(lat_pred, lat_t[t], mask_t[t], &dlat) /
                  static_cast<double>(T);
      dlogits.scale(1.0 / static_cast<double>(T));
      dlat.scale(config.alpha / static_cast<double>(T));

      dhs[t] = drop_head.backward(hs[t], dlogits);
      dhs[t].add(latency_head.backward(hs[t], dlat));
    }
    trunk.backward(*cache, dhs);
    opt.step();
    opt.zero_grad();

    const double loss = drop_loss + config.alpha * lat_loss;
    if (batch == 0) report.initial_loss = loss;
    report.final_loss = loss;
    report.final_drop_loss = drop_loss;
    report.final_latency_loss = lat_loss;
  }

  // Train completion: re-snapshot the inference session so predict()
  // serves the trained weights (sessions are immutable; the optimizer
  // wrote through the training tensors behind the compiled copy).
  model.recompile();

  // Evaluation sweep: streaming predictions over the dataset, scored by
  // evaluate_micro_model's per-row rule and summed in the same order.
  model.reset_state();
  std::size_t correct = 0, delivered = 0;
  double mae = 0.0;
  for (std::size_t i = 0; i < N; ++i) {
    const RowScore r =
        score_row(model, dataset, i, model.predict(dataset.features[i]));
    if (r.said_drop == r.was_drop) ++correct;
    if (!r.was_drop) {
      mae += std::abs(r.latency_error);
      ++delivered;
    }
  }
  report.drop_accuracy = static_cast<double>(correct) /
                         static_cast<double>(N);
  report.latency_mae =
      delivered == 0 ? 0.0 : mae / static_cast<double>(delivered);
  model.reset_state();
  return report;
}

}  // namespace esim::approx
