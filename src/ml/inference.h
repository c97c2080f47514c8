// The inference half of the train/infer split (DESIGN.md §8).
//
// Training keeps the autograd Tensor/StepCache machinery in ml/lstm.h and
// ml/gru.h. Inference runs through an InferenceSession: a compiled
// forward plan over one recurrent trunk plus optional fused linear heads.
// The session preallocates a single contiguous workspace (gate scratch,
// per-layer hidden/cell state, head outputs) at construction and steps
// through fused LSTM/GRU kernels — one pass over the packed gate block,
// no intermediate i/f/g/o/c/tanh_c tensors, zero heap allocation per
// predict() call.
//
// Contract: predictions are bit-identical to the naive Tensor step()
// reference. Both run on the one kernel set in ml/kernels.h — the
// session calls the packed x W^T tiles and the gate passes directly on
// its flat buffers, the reference reaches the same kernels through
// Tensor and LstmLayer/GruLayer — so every output scalar is produced by
// the same sequence of floating-point operations in the same order; only
// where intermediates live changes. tests/inference_session_test.cc
// holds this contract for both trunks, multi-layer stacks, and
// serialized-then-reloaded models, and pins the prediction stream to
// golden hashes that do not depend on either path.
//
// Sessions are immutable snapshots. Construction copies the weights into
// a session-owned buffer (natural row-major for serialization, plus the
// row-interleaved packed copy the kernels read); later in-place updates
// to the source tensors are NOT seen — rebuild the session after
// training steps (MicroModel::recompile(), or make_inference_session()
// again). Only the streaming hidden state mutates after build. The one
// mutation hook is the load path: weight_views() exposes named views
// over the natural buffer for ml::load_model, after which repack()
// refreshes the kernel copy.
//
// Stale-session safety net: a snapshot cannot see later writes, so a
// missed recompile used to silently predict with old weights. Builders
// now register the source Module(s) via watch_weight_source(); every
// predict entry point compares the recorded weight versions against the
// live modules and throws std::logic_error when a watched module was
// written since the snapshot (optimizer steps bump the version, see
// ml/module.h).
//
// Batched prediction (DESIGN.md §8): two entry points amortize weight
// streaming across packets, both bit-identical per output to the
// equivalent sequence of predict() calls.
//   * predict_batch(): one stream, N arrival-ordered timesteps. Each
//     layer batches its input-side W_ih matmul over all N steps (weights
//     stream once per batch), then applies the W_hh recurrence step by
//     step; recurrent state advances exactly as N predict() calls would.
//   * lanes mode (set_lane_count(L) + predict_lanes()): L independent
//     streams sharing weights but not state. Both gate matmuls batch
//     across lanes, so every weight matrix streams once per L packets.
// The batched kernels tile independent rows x lanes into vector
// registers; each (row, lane) product still sums p = 0..n-1 in the
// reference order, so the identity contract is unchanged.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ml/module.h"
#include "ml/tensor.h"

namespace esim::ml {

/// The trunk architectures available to the micro model.
enum class TrunkKind { Lstm, Gru };

/// Display name, e.g. "lstm".
const char* trunk_kind_name(TrunkKind kind);

/// Compiled allocation-free forward plan: recurrent trunk + fused heads.
class InferenceSession {
 public:
  /// Weight sources of one recurrent layer, snapshotted at construction.
  /// LSTM layers bind their single bias to `b_ih` and leave `b_hh` null;
  /// GRU layers bind both.
  struct LayerWeights {
    const Tensor* w_ih = nullptr;  ///< [G*H x input], G = 4 (LSTM) / 3 (GRU)
    const Tensor* w_hh = nullptr;  ///< [G*H x H]
    const Tensor* b_ih = nullptr;  ///< [1 x G*H]
    const Tensor* b_hh = nullptr;  ///< [1 x G*H], GRU only
  };

  /// One fused linear head over the top hidden output.
  struct HeadWeights {
    const Tensor* weight = nullptr;  ///< [out x H]
    const Tensor* bias = nullptr;    ///< [1 x out]
  };

  /// Shape-only description for an empty session, e.g. when loading a
  /// model file without its training-side module tree.
  struct Arch {
    TrunkKind kind = TrunkKind::Lstm;
    std::size_t input = 0;
    std::size_t hidden = 0;
    std::size_t layers = 0;
    std::vector<std::size_t> head_outputs;  ///< output width per head
  };

  /// Snapshot build: copies the current weight values out of live
  /// training tensors (see file comment — later tensor updates are not
  /// seen). Throws std::invalid_argument on missing tensors or shape
  /// mismatch.
  InferenceSession(TrunkKind kind, const std::vector<LayerWeights>& layers,
                   const std::vector<HeadWeights>& heads);

  /// Shape-only build: allocates zeroed weight storage for `arch`; fill
  /// it through weight_views() + ml::load_model, then call repack().
  explicit InferenceSession(const Arch& arch);

  /// Advances the streaming hidden state by one input row and returns the
  /// concatenated head outputs (or the top hidden output when the session
  /// has no heads). The returned span points into the session workspace
  /// and is valid until the next predict()/reset_state() call. Performs
  /// zero heap allocations. Throws std::invalid_argument if
  /// features.size() != input_size(). Throws std::logic_error when a
  /// watched weight source changed since the snapshot (stale session).
  std::span<const double> predict(std::span<const double> features);

  /// Batched streaming inference: consumes `n` consecutive timesteps
  /// (features.size() == n * input_size(), row-major, arrival order) and
  /// returns n concatenated output rows (n * output_size(), or
  /// n * hidden_size() for a headless session). Bit-identical to n
  /// predict() calls — including the final recurrent state — but each
  /// layer's input-side gate matmul runs once over the whole batch, so
  /// W_ih streams once per batch instead of once per packet. Zero heap
  /// allocations once capacity covers n (see reserve_batch; the first
  /// call at a new high-water n grows the batch workspace). The returned
  /// span is valid until the next predict*/reset_state() call. Requires
  /// lane_count() == 1.
  std::span<const double> predict_batch(std::span<const double> features,
                                        std::size_t n);

  /// Pre-sizes the batch workspace so predict_batch(n <= max_n) and
  /// predict_lanes() after set_lane_count(L <= max_n) allocate nothing.
  void reserve_batch(std::size_t max_n);

  /// Switches the session to `lanes` independent streams (state is
  /// zeroed; lane 0 is the predict()/predict_batch() stream when
  /// lanes == 1). Lanes share the weight snapshot but carry private
  /// hidden/cell state.
  void set_lane_count(std::size_t lanes);
  std::size_t lane_count() const { return lanes_; }

  /// Advances every lane by one timestep: features holds lane_count()
  /// input rows (lane-major), the result holds lane_count() output rows.
  /// Per lane bit-identical to a dedicated session running predict() on
  /// that lane's stream; both gate matmuls batch across lanes so every
  /// weight matrix streams once per call. Zero heap allocations (the
  /// lane workspace is sized by set_lane_count/reserve_batch).
  std::span<const double> predict_lanes(std::span<const double> features);

  /// Registers a weight-source module: predict entry points throw
  /// std::logic_error once the module's weight_version() moves past the
  /// value recorded here (i.e. the snapshot went stale). The module must
  /// outlive the session.
  void watch_weight_source(const Module& module);

  /// Zeroes the streaming hidden (and cell) state of every lane.
  void reset_state();

  TrunkKind kind() const { return kind_; }
  std::size_t input_size() const { return input_; }
  std::size_t hidden_size() const { return layers_.back().hidden; }
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t num_heads() const { return heads_.size(); }
  std::size_t output_size() const { return output_size_; }

  /// Named views over the natural (row-major) weight buffer, in the same
  /// order and with the same names as the training-side parameters() they
  /// mirror: `<trunk_prefix>l<i>.w_ih` etc. per layer, then
  /// `<head_name>.w` / `<head_name>.b` per head. Feed these to
  /// ml::load_model and call repack() afterwards. Throws
  /// std::invalid_argument when head_names does not match the head count.
  std::vector<WeightView> weight_views(
      const std::string& trunk_prefix,
      const std::vector<std::string>& head_names);

  /// Rebuilds the kernel-side packed weight copy from the natural buffer
  /// after writes through weight_views(). Part of the load sequence, not
  /// a per-step operation.
  void repack();

 private:
  struct Layer {
    std::size_t input = 0;
    std::size_t hidden = 0;
    std::size_t w_ih = 0, w_hh = 0, b_ih = 0, b_hh = 0;  // into weights_
    std::size_t pw_ih = 0, pw_hh = 0;  // packed copies, into packed_
    std::size_t h_off = 0;             // into state_
    std::size_t c_off = 0;             // into state_, LSTM only
  };

  struct Head {
    std::size_t out = 0;
    std::size_t w = 0, b = 0;  // into weights_
  };

  void assign_offsets(const Arch& arch);  // lays out weights_, fills layers_
  void finalize_plan();  // sizes state_/workspace_/packed_, packs weights
  void step(const Layer& layer, const double* x, double* gi,
            std::size_t lane);
  void combine(const Layer& layer, double* gi, double* gh, std::size_t lane);
  void check_fresh() const;  // throws on a stale watched weight source
  void write_heads(const double* h, double* out) const;
  std::size_t row_width() const;  // output_size_, or hidden when headless
  double* lane_state(std::size_t lane) { return state_.data() + lane * state_size_; }

  TrunkKind kind_ = TrunkKind::Lstm;
  std::size_t input_ = 0;
  std::vector<Layer> layers_;
  std::vector<Head> heads_;
  std::vector<double> weights_;    // natural row-major weight storage
  std::vector<double> packed_;     // row-interleaved kernel copy of w_ih/w_hh
  std::vector<double> state_;      // h (+ c) per layer, per lane, contiguous
  std::vector<double> workspace_;  // gate scratch, then head outputs
  std::vector<double> batch_x_;    // batch: per-step layer inputs/outputs
  std::vector<double> batch_gates_;  // batch: input-side gate rows, per step
  std::vector<double> batch_out_;  // batch: output rows, per step/lane
  std::size_t batch_capacity_ = 0;  // steps/lanes the batch buffers cover
  std::size_t state_size_ = 0;     // per-lane h (+ c) footprint
  std::size_t lanes_ = 1;
  std::size_t head_out_off_ = 0;   // into workspace_
  std::size_t output_size_ = 0;
  // Weight-source modules and the versions snapshotted from them.
  std::vector<std::pair<const Module*, std::uint64_t>> watched_;
};

}  // namespace esim::ml
