// Parameter registry shared by trainable layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/tensor.h"

namespace esim::ml {

/// A named weight tensor paired with its gradient accumulator. Both point
/// into the owning layer and remain valid for the layer's lifetime.
struct Parameter {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Anything with trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// All parameters of this module (stable order).
  virtual std::vector<Parameter> parameters() = 0;

  /// Clears every gradient accumulator.
  void zero_grad() {
    for (auto& p : parameters()) p.grad->zero();
  }

  /// Monotonic counter over in-place weight mutations. Writers that
  /// update this module's tensors (optimizer steps, ml::load_parameters)
  /// call bump_weight_version(); compiled snapshots
  /// (ml::InferenceSession) record the value they were built from and
  /// refuse to predict once it moves — a missed recompile becomes a
  /// loud error instead of silently serving stale weights.
  std::uint64_t weight_version() const { return weight_version_; }
  void bump_weight_version() { ++weight_version_; }

 private:
  std::uint64_t weight_version_ = 0;
};

}  // namespace esim::ml
