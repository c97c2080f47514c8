// Loss functions for the micro model's two heads (paper §4.2):
// binary cross entropy for the per-packet drop decision and mean squared
// error for the latency regression, masked so that dropped packets
// back-propagate no latency error.
#pragma once

#include "ml/tensor.h"

namespace esim::ml {

/// Numerically stable binary cross entropy on logits. `logits` and
/// `targets` (0/1) share a shape. Returns the mean loss (0 for empty
/// input); when `dlogits` is non-null it receives dL/dlogits (same
/// shape, already averaged), on empty input too.
double bce_with_logits(const Tensor& logits, const Tensor& targets,
                       Tensor* dlogits);

/// Mean squared error over the elements where mask != 0. Returns 0 (and a
/// zero gradient) when the mask is empty. `dpred` receives dL/dpred.
double masked_mse(const Tensor& pred, const Tensor& target,
                  const Tensor& mask, Tensor* dpred);

}  // namespace esim::ml
