// Long short-term memory layers with full backpropagation through time.
//
// This is the micro model's trunk (paper §4.2): a stacked LSTM whose
// hidden state carries the recent history of packets crossing a cluster
// boundary. Layout and math follow Hochreiter & Schmidhuber as popularised
// by modern frameworks: gates packed [input, forget, cell, output] along
// the 4H axis, forget-gate bias initialised to 1.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/module.h"
#include "ml/tensor.h"
#include "sim/random.h"

namespace esim::ml {

/// One LSTM layer operating a step at a time on [batch x features] rows.
class LstmLayer : public Module {
 public:
  /// Hidden and cell state for a batch: both [B x H].
  struct State {
    Tensor h;
    Tensor c;
  };

  /// Everything needed to backpropagate through one step.
  struct StepCache {
    Tensor x, h_prev, c_prev;
    Tensor act;     // post-activation gates i|f|g|o, [B x 4H]
    Tensor tanh_c;  // tanh of the new cell state, [B x H]
  };

  /// Gradients flowing out of one backward step.
  struct StepGrad {
    Tensor dx, dh_prev, dc_prev;
  };

  LstmLayer(std::size_t input, std::size_t hidden, sim::Rng& rng);

  /// Zero state for a batch of `batch` sequences.
  State initial_state(std::size_t batch) const;

  /// One timestep. `x` is [B x input]; updates `state` in place and
  /// returns the new hidden output ([B x H]); when `cache` is non-null it
  /// is filled for a later step_backward.
  Tensor step(const Tensor& x, State& state, StepCache* cache) const;

  /// Backward through one cached step. `dh`/`dc` are the gradients
  /// arriving at this step's h/c outputs (dc from the next timestep; pass
  /// zeros at the sequence end). Accumulates parameter gradients.
  StepGrad step_backward(const StepCache& cache, const Tensor& dh,
                         const Tensor& dc);

  std::size_t input_size() const { return input_; }
  std::size_t hidden_size() const { return hidden_; }

  /// Read-only weight access for the inference-session compiler.
  const Tensor& w_ih() const { return w_ih_; }
  const Tensor& w_hh() const { return w_hh_; }
  const Tensor& bias() const { return b_; }

  std::vector<Parameter> parameters() override;

 private:
  std::size_t input_;
  std::size_t hidden_;
  Tensor w_ih_;  // [4H x input]
  Tensor w_hh_;  // [4H x H]
  Tensor b_;     // [1 x 4H]
  Tensor gw_ih_, gw_hh_, gb_;
};

/// A stack of LSTM layers (the paper's prototype uses two).
class Lstm : public Module {
 public:
  /// Per-layer states.
  struct State {
    std::vector<LstmLayer::State> layers;
  };

  /// Caches for a whole forward sequence: caches[t][layer].
  struct SequenceCache {
    std::vector<std::vector<LstmLayer::StepCache>> steps;
  };

  Lstm(std::size_t input, std::size_t hidden, std::size_t num_layers,
       sim::Rng& rng);

  /// Zero state for `batch` parallel sequences.
  State initial_state(std::size_t batch) const;

  /// Streaming inference step: feeds one timestep through all layers,
  /// updating `state`; returns the top layer's hidden output [B x H].
  Tensor step(const Tensor& x, State& state) const;

  /// Training forward over a sequence xs[t] = [B x input], starting from
  /// `state` (updated in place to the final state). Returns the top
  /// hidden output per step and fills `cache`.
  std::vector<Tensor> forward(const std::vector<Tensor>& xs, State& state,
                              SequenceCache& cache) const;

  /// BPTT: `dhs[t]` is the loss gradient w.r.t. the top output at step t.
  /// Accumulates parameter gradients. Gradients are not propagated into
  /// the pre-sequence state (sequences are treated as truncation
  /// boundaries).
  void backward(const SequenceCache& cache,
                const std::vector<Tensor>& dhs);

  std::size_t hidden_size() const { return layers_.front().hidden_size(); }
  std::size_t input_size() const { return layers_.front().input_size(); }
  std::size_t num_layers() const { return layers_.size(); }
  const std::vector<LstmLayer>& layers() const { return layers_; }

  std::vector<Parameter> parameters() override;

 private:
  std::vector<LstmLayer> layers_;
};

}  // namespace esim::ml
