#include "ml/optimizer.h"

#include <cmath>
#include <stdexcept>

namespace esim::ml {

SgdMomentum::SgdMomentum(std::vector<Parameter> params, const Config& config)
    : params_{std::move(params)}, config_{config} {
  if (params_.empty()) {
    throw std::invalid_argument("SgdMomentum: no parameters");
  }
  // Written so NaN fails every check: a NaN rate would write NaN weights,
  // a NaN clip_norm would silently turn clipping off.
  if (!(std::isfinite(config_.learning_rate) && config_.learning_rate > 0.0)) {
    throw std::invalid_argument(
        "SgdMomentum: learning_rate must be finite and > 0");
  }
  if (!(config_.momentum >= 0.0 && config_.momentum < 1.0)) {
    throw std::invalid_argument("SgdMomentum: momentum must be in [0, 1)");
  }
  if (!(std::isfinite(config_.clip_norm) && config_.clip_norm >= 0.0)) {
    throw std::invalid_argument(
        "SgdMomentum: clip_norm must be finite and >= 0");
  }
  velocity_.reserve(params_.size());
  for (const auto& p : params_) {
    velocity_.emplace_back(p.value->rows(), p.value->cols());
  }
}

SgdMomentum::SgdMomentum(Module& module, const Config& config)
    : SgdMomentum{module.parameters(), config} {
  module_ = &module;
}

double SgdMomentum::step() {
  double sq = 0.0;
  for (const auto& p : params_) {
    for (std::size_t i = 0; i < p.grad->size(); ++i) {
      const double g = p.grad->data()[i];
      sq += g * g;
    }
  }
  const double norm = std::sqrt(sq);
  double scale = 1.0;
  if (config_.clip_norm > 0.0 && norm > config_.clip_norm) {
    scale = config_.clip_norm / norm;
  }
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Tensor& v = velocity_[k];
    const Tensor& g = *params_[k].grad;
    Tensor& w = *params_[k].value;
    for (std::size_t i = 0; i < w.size(); ++i) {
      v.data()[i] = config_.momentum * v.data()[i] -
                    config_.learning_rate * scale * g.data()[i];
      w.data()[i] += v.data()[i];
    }
  }
  if (module_ != nullptr) module_->bump_weight_version();
  return norm;
}

void SgdMomentum::zero_grad() {
  for (auto& p : params_) p.grad->zero();
}

}  // namespace esim::ml
