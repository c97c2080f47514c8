// Gated recurrent units — the canonical "LSTM variant" the paper's §7
// proposes testing. Same step/forward/backward surface as ml::Lstm;
// gate math follows the PyTorch convention:
//   r = sigmoid(W_ir x + b_ir + W_hr h + b_hr)
//   z = sigmoid(W_iz x + b_iz + W_hz h + b_hz)
//   n = tanh  (W_in x + b_in + r * (W_hn h + b_hn))
//   h' = (1 - z) * n + z * h
#pragma once

#include <cstddef>
#include <vector>

#include "ml/module.h"
#include "ml/tensor.h"
#include "sim/random.h"

namespace esim::ml {

/// One GRU layer, stepped a timestep at a time on [batch x features].
class GruLayer : public Module {
 public:
  /// Hidden state for a batch: [B x H].
  struct State {
    Tensor h;
  };

  /// Forward intermediates for one step's backward pass.
  struct StepCache {
    Tensor x, h_prev;
    Tensor act;  // post-activation gates r|z|n, [B x 3H]
    Tensor gh;   // W_hh h_prev + b_hh, [B x 3H]; backward reads the n block
  };

  struct StepGrad {
    Tensor dx, dh_prev;
  };

  GruLayer(std::size_t input, std::size_t hidden, sim::Rng& rng);

  /// Zero state for `batch` sequences.
  State initial_state(std::size_t batch) const;

  /// One timestep; updates `state`, returns the new hidden output, fills
  /// `cache` when non-null.
  Tensor step(const Tensor& x, State& state, StepCache* cache) const;

  /// Backward through one cached step given dL/dh'. Accumulates
  /// parameter gradients and returns input/previous-state gradients.
  StepGrad step_backward(const StepCache& cache, const Tensor& dh);

  std::size_t input_size() const { return input_; }
  std::size_t hidden_size() const { return hidden_; }

  /// Read-only weight access for the inference-session compiler.
  const Tensor& w_ih() const { return w_ih_; }
  const Tensor& w_hh() const { return w_hh_; }
  const Tensor& b_ih() const { return b_ih_; }
  const Tensor& b_hh() const { return b_hh_; }

  std::vector<Parameter> parameters() override;

 private:
  std::size_t input_;
  std::size_t hidden_;
  // Gates packed [r, z, n] along the 3H axis.
  Tensor w_ih_;   // [3H x input]
  Tensor w_hh_;   // [3H x H]
  Tensor b_ih_;   // [1 x 3H]
  Tensor b_hh_;   // [1 x 3H]
  Tensor gw_ih_, gw_hh_, gb_ih_, gb_hh_;
};

/// A stack of GRU layers mirroring ml::Lstm's API.
class Gru : public Module {
 public:
  struct State {
    std::vector<GruLayer::State> layers;
  };
  struct SequenceCache {
    std::vector<std::vector<GruLayer::StepCache>> steps;
  };

  Gru(std::size_t input, std::size_t hidden, std::size_t num_layers,
      sim::Rng& rng);

  State initial_state(std::size_t batch) const;

  /// Streaming inference step through all layers.
  Tensor step(const Tensor& x, State& state) const;

  /// Training forward over a sequence, filling `cache`.
  std::vector<Tensor> forward(const std::vector<Tensor>& xs, State& state,
                              SequenceCache& cache) const;

  /// BPTT; `dhs[t]` is the gradient at the top output of step t.
  void backward(const SequenceCache& cache, const std::vector<Tensor>& dhs);

  std::size_t hidden_size() const { return layers_.front().hidden_size(); }
  std::size_t num_layers() const { return layers_.size(); }
  const std::vector<GruLayer>& layers() const { return layers_; }

  std::vector<Parameter> parameters() override;

 private:
  std::vector<GruLayer> layers_;
};

}  // namespace esim::ml
