// The deep-learning micro model (paper §4.2): a recurrent trunk whose
// multi-dimensional hidden state feeds two fully connected heads, one
// predicting the packet-drop logit and one predicting (log-space,
// normalized) latency. One MicroModel handles one boundary direction.
//
// "The multi-dimensional hidden state output from the LSTM is given to one
//  fully connected layer to predict the latency and another fully
//  connected layer to predict packet drop. This is superior to training
//  two separate models as the neural network representation can learn the
//  joint distribution of drops and latency."
//
// The trunk defaults to the paper's two-layer LSTM; a GRU variant (§7's
// "new LSTM variants") is selectable via Config::trunk.
//
// Train/infer split (DESIGN.md §8): the packet hot path runs through a
// compiled ml::InferenceSession — an immutable snapshot of the weights
// taken at construction/copy/recompile() time — so predict() allocates
// nothing. After optimizer steps mutate the training tensors, call
// recompile() to re-snapshot (train_micro_model does this at train
// completion; after ml::load_parameters, predict() throws until the
// caller does). predict_reference() keeps the naive Tensor step() path as
// the bit-identical reference. A saved model is its parameters()
// (ml::save_parameters), normalization constants included; it reloads
// into a MicroModel built with the same Config.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>

#include "approx/features.h"
#include "ml/linear.h"
#include "ml/module.h"
#include "ml/sequence_model.h"

namespace esim::approx {

/// Recurrent trunk + drop head + latency head, with streaming state.
class MicroModel : public ml::Module {
 public:
  struct Config {
    std::size_t hidden = 32;  ///< paper prototype: 128; smaller by default
    std::size_t layers = 2;   ///< paper prototype: two-layer LSTM
    ml::TrunkKind trunk = ml::TrunkKind::Lstm;
    std::uint64_t seed = 1;   ///< weight initialisation stream
  };

  /// What the model asserts about one packet.
  struct Prediction {
    double drop_probability = 0.0;
    double latency_seconds = 0.0;
  };

  explicit MicroModel(const Config& config);

  /// Deep copies (each ApproxCluster owns private weights + state). The
  /// copy's recurrent state is always reset — streamed history is never
  /// shared between clusters.
  MicroModel(const MicroModel& other);
  MicroModel& operator=(const MicroModel& other);

  /// Streaming inference for one packet: advances the hidden state and
  /// returns the joint prediction. Latency is de-normalized via the stats
  /// set at training time. Runs the fused InferenceSession; performs no
  /// heap allocation. Throws std::logic_error if the compiled session is
  /// stale (weights written since the last recompile()).
  Prediction predict(std::span<const double> features);
  Prediction predict(const PacketFeatures& features) {
    return predict(std::span<const double>{features.v});
  }

  /// Batched streaming inference over n packets in arrival order:
  /// features holds n rows of PacketFeatures::kDim doubles, out receives
  /// n predictions. Recurrent state advances exactly as n predict()
  /// calls would and every prediction is bit-identical to the sequential
  /// path (ml::InferenceSession::predict_batch contract); the layer
  /// weight streams are amortized across the batch. Returns n. Zero heap
  /// allocations once reserve_batch() covers n.
  std::size_t predict_batch(std::span<const double> features,
                            std::span<Prediction> out);

  /// Pre-sizes the session's batch workspace for predict_batch(n <= max_n).
  void reserve_batch(std::size_t max_n);

  /// The naive Tensor step() path, kept as the reference implementation
  /// for the bit-identity contract, the fidelity observatory's second
  /// opinion and the baseline of bench/micro_kernel's
  /// BM_LstmInferenceReference. Streams its own hidden state, separate
  /// from the session's.
  Prediction predict_reference(std::span<const double> features);
  Prediction predict_reference(const PacketFeatures& features) {
    return predict_reference(std::span<const double>{features.v});
  }

  /// Clears the streaming hidden state (start of a new simulation) of
  /// both the session and the reference path.
  void reset_state();

  /// Sets the latency-target normalization (mean/std of ln(latency_us))
  /// computed by the trainer over the training set.
  void set_latency_normalization(double mean_log_us, double std_log_us);

  /// Converts a normalized latency-head output to seconds.
  double denormalize_latency(double head_output) const;

  /// Converts a latency in seconds to the normalized training target.
  double normalize_latency(double latency_seconds) const;

  /// Trainer access to the pieces.
  ml::SequenceModel& trunk() { return *trunk_; }
  ml::Linear& drop_head() { return drop_head_; }
  ml::Linear& latency_head() { return latency_head_; }

  /// Re-snapshots the session from the current weight values. Call after
  /// mutating weights in place (optimizer steps, ml::load_parameters);
  /// sessions are immutable and do not track later tensor writes.
  void recompile();

  /// The compiled hot-path plan.
  const ml::InferenceSession& session() const { return *session_; }

  const Config& config() const { return config_; }

  /// Includes the trunk, both heads, and the normalization constants (so
  /// serialized models carry them).
  std::vector<ml::Parameter> parameters() override;

 private:
  Config config_;
  std::unique_ptr<ml::SequenceModel> trunk_;
  ml::Linear drop_head_;
  ml::Linear latency_head_;
  ml::Tensor norm_{1, 2, {std::log(10.0), 1.0}};  // default: ~10us fabric

  ml::Tensor norm_grad_{1, 2};  // unused, present for the Parameter interface
  std::unique_ptr<ml::InferenceSession> session_;
  std::unique_ptr<ml::SequenceModel::State> ref_state_;  // reference path
};

}  // namespace esim::approx
