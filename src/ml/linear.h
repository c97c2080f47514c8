// Fully connected layer.
//
// Stateless forward/backward: the caller retains the forward input and
// passes it back for the gradient step. This keeps one layer usable at
// every timestep of a sequence without internal cache bookkeeping.
#pragma once

#include <cstddef>

#include "ml/module.h"
#include "ml/tensor.h"
#include "sim/random.h"

namespace esim::ml {

/// y = x W^T + b with W stored [out x in].
class Linear : public Module {
 public:
  /// Xavier-initialised layer; `rng` provides the (deterministic) draws.
  Linear(std::size_t in, std::size_t out, sim::Rng& rng);

  /// Forward: x is [N x in]; returns [N x out].
  Tensor forward(const Tensor& x) const;

  /// Backward for one forward call: `x` must be the same input, `dy` the
  /// loss gradient w.r.t. the output. Accumulates weight gradients and
  /// returns dL/dx.
  Tensor backward(const Tensor& x, const Tensor& dy);

  /// Direct access for tests/serialization.
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

  std::vector<Parameter> parameters() override;

 private:
  Tensor w_;   // [out x in]
  Tensor b_;   // [1 x out]
  Tensor gw_;  // same shape as w_
  Tensor gb_;  // same shape as b_
};

}  // namespace esim::ml
