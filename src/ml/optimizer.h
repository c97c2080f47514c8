// Stochastic gradient descent with classical momentum — the optimizer the
// paper trained with (§4.2: "stochastic gradient descent ... with a
// learning rate of 0.0001 and momentum of 0.9").
#pragma once

#include <vector>

#include "ml/module.h"
#include "ml/tensor.h"

namespace esim::ml {

/// SGD + momentum over a fixed parameter set. Optionally clips the global
/// gradient norm before each step (useful for RNN stability).
class SgdMomentum {
 public:
  struct Config {
    double learning_rate = 1e-4;
    double momentum = 0.9;
    /// 0 disables clipping; otherwise the global L2 norm is clipped here.
    double clip_norm = 5.0;
  };

  /// Captures the parameter set (pointers must outlive the optimizer).
  /// Throws std::invalid_argument naming the field unless learning_rate
  /// is finite and > 0, momentum is in [0, 1) and clip_norm is finite
  /// and >= 0.
  SgdMomentum(std::vector<Parameter> params, const Config& config);

  /// Captures `module.parameters()` and additionally bumps the module's
  /// weight version on every step(), so compiled InferenceSessions
  /// watching the module detect the write and refuse to serve the stale
  /// snapshot. Trainers should prefer this overload.
  SgdMomentum(Module& module, const Config& config);

  /// Applies one update from the currently accumulated gradients.
  /// Returns the (pre-clip) global gradient norm, handy for diagnostics.
  double step();

  /// Zeroes all gradient accumulators.
  void zero_grad();

 private:
  std::vector<Parameter> params_;
  Config config_;
  std::vector<Tensor> velocity_;
  Module* module_ = nullptr;  // version-bumped on step(); may be null
};

}  // namespace esim::ml
