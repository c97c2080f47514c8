#include "ml/loss.h"

#include <cmath>
#include <stdexcept>

#include "ml/activations.h"

namespace esim::ml {
namespace {

void require_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
  }
}

}  // namespace

double bce_with_logits(const Tensor& logits, const Tensor& targets,
                       Tensor* dlogits) {
  require_same_shape(logits, targets, "bce_with_logits");
  const std::size_t n = logits.size();
  if (dlogits != nullptr) *dlogits = Tensor{logits.rows(), logits.cols()};
  if (n == 0) return 0.0;
  double loss = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double z = logits.at(r, c);
      const double y = targets.at(r, c);
      // max(z,0) - z*y + log(1 + exp(-|z|)) — stable for both signs.
      loss += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::abs(z)));
      if (dlogits != nullptr) {
        dlogits->at(r, c) =
            (sigmoid(z) - y) / static_cast<double>(n);
      }
    }
  }
  return loss / static_cast<double>(n);
}

double masked_mse(const Tensor& pred, const Tensor& target,
                  const Tensor& mask, Tensor* dpred) {
  require_same_shape(pred, target, "masked_mse");
  require_same_shape(pred, mask, "masked_mse");
  std::size_t count = 0;
  for (std::size_t r = 0; r < mask.rows(); ++r) {
    for (std::size_t c = 0; c < mask.cols(); ++c) {
      if (mask.at(r, c) != 0.0) ++count;
    }
  }
  if (dpred != nullptr) *dpred = Tensor{pred.rows(), pred.cols()};
  if (count == 0) return 0.0;
  double loss = 0.0;
  for (std::size_t r = 0; r < pred.rows(); ++r) {
    for (std::size_t c = 0; c < pred.cols(); ++c) {
      if (mask.at(r, c) == 0.0) continue;
      const double e = pred.at(r, c) - target.at(r, c);
      loss += e * e;
      if (dpred != nullptr) {
        dpred->at(r, c) = 2.0 * e / static_cast<double>(count);
      }
    }
  }
  return loss / static_cast<double>(count);
}

}  // namespace esim::ml
