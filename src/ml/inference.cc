// The compiled forward plan (see inference.h). All arithmetic runs on
// ml/kernels.h, the kernel set training uses too; this file only lays
// out weights, state and scratch and sequences the kernel calls.
#include "ml/inference.h"

#include <algorithm>
#include <stdexcept>

#include "ml/kernels.h"

namespace esim::ml {
namespace {

void require_shape(const Tensor* t, std::size_t rows, std::size_t cols,
                   const char* what) {
  if (t == nullptr) {
    throw std::invalid_argument(std::string{"InferenceSession: missing "} +
                                what);
  }
  if (t->rows() != rows || t->cols() != cols) {
    throw std::invalid_argument(std::string{"InferenceSession: bad shape for "} +
                                what);
  }
}

std::size_t gate_factor(TrunkKind kind) {
  return kind == TrunkKind::Lstm ? 4 : 3;
}

}  // namespace

const char* trunk_kind_name(TrunkKind kind) {
  switch (kind) {
    case TrunkKind::Lstm:
      return "lstm";
    case TrunkKind::Gru:
      return "gru";
  }
  return "?";
}

InferenceSession::InferenceSession(TrunkKind kind,
                                   const std::vector<LayerWeights>& layers,
                                   const std::vector<HeadWeights>& heads)
    : kind_{kind} {
  if (layers.empty()) {
    throw std::invalid_argument("InferenceSession: no layers");
  }
  const std::size_t G = gate_factor(kind);
  const std::size_t hidden = layers.front().w_hh != nullptr
                                 ? layers.front().w_hh->cols()
                                 : 0;
  const std::size_t input =
      layers.front().w_ih != nullptr ? layers.front().w_ih->cols() : 0;
  if (hidden == 0 || input == 0) {
    throw std::invalid_argument("InferenceSession: zero dimension");
  }
  Arch arch;
  arch.kind = kind;
  arch.input = input;
  arch.hidden = hidden;
  arch.layers = layers.size();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const LayerWeights& lw = layers[l];
    const std::size_t in = l == 0 ? input : hidden;
    require_shape(lw.w_ih, G * hidden, in, "w_ih");
    require_shape(lw.w_hh, G * hidden, hidden, "w_hh");
    require_shape(lw.b_ih, 1, G * hidden, "b_ih");
    if (kind == TrunkKind::Gru) {
      require_shape(lw.b_hh, 1, G * hidden, "b_hh");
    } else if (lw.b_hh != nullptr) {
      throw std::invalid_argument("InferenceSession: LSTM layer with b_hh");
    }
  }
  for (const HeadWeights& hw : heads) {
    if (hw.weight == nullptr || hw.bias == nullptr) {
      throw std::invalid_argument("InferenceSession: missing head weights");
    }
    require_shape(hw.weight, hw.weight->rows(), hidden, "head weight");
    require_shape(hw.bias, 1, hw.weight->rows(), "head bias");
    arch.head_outputs.push_back(hw.weight->rows());
  }
  assign_offsets(arch);
  // Snapshot the current weight values into the owned natural buffer.
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const LayerWeights& lw = layers[l];
    const Layer& layer = layers_[l];
    std::copy_n(lw.w_ih->data(), lw.w_ih->size(),
                weights_.data() + layer.w_ih);
    std::copy_n(lw.w_hh->data(), lw.w_hh->size(),
                weights_.data() + layer.w_hh);
    std::copy_n(lw.b_ih->data(), lw.b_ih->size(),
                weights_.data() + layer.b_ih);
    if (kind == TrunkKind::Gru) {
      std::copy_n(lw.b_hh->data(), lw.b_hh->size(),
                  weights_.data() + layer.b_hh);
    }
  }
  for (std::size_t i = 0; i < heads.size(); ++i) {
    std::copy_n(heads[i].weight->data(), heads[i].weight->size(),
                weights_.data() + heads_[i].w);
    std::copy_n(heads[i].bias->data(), heads[i].bias->size(),
                weights_.data() + heads_[i].b);
  }
  finalize_plan();
}

InferenceSession::InferenceSession(const Arch& arch) : kind_{arch.kind} {
  if (arch.input == 0 || arch.hidden == 0 || arch.layers == 0) {
    throw std::invalid_argument("InferenceSession: zero dimension");
  }
  for (const std::size_t out : arch.head_outputs) {
    if (out == 0) {
      throw std::invalid_argument("InferenceSession: zero-width head");
    }
  }
  assign_offsets(arch);
  finalize_plan();
}

void InferenceSession::assign_offsets(const Arch& arch) {
  const std::size_t G = gate_factor(arch.kind);
  input_ = arch.input;
  std::size_t off = 0;
  layers_.reserve(arch.layers);
  for (std::size_t l = 0; l < arch.layers; ++l) {
    Layer layer;
    layer.input = l == 0 ? arch.input : arch.hidden;
    layer.hidden = arch.hidden;
    layer.w_ih = off;
    off += G * arch.hidden * layer.input;
    layer.w_hh = off;
    off += G * arch.hidden * arch.hidden;
    layer.b_ih = off;
    off += G * arch.hidden;
    if (arch.kind == TrunkKind::Gru) {
      layer.b_hh = off;
      off += G * arch.hidden;
    }
    layers_.push_back(layer);
  }
  heads_.reserve(arch.head_outputs.size());
  for (const std::size_t out : arch.head_outputs) {
    Head head;
    head.out = out;
    head.w = off;
    off += out * arch.hidden;
    head.b = off;
    off += out;
    heads_.push_back(head);
  }
  weights_.assign(off, 0.0);
}

void InferenceSession::finalize_plan() {
  std::size_t state_size = 0;
  for (Layer& layer : layers_) {
    layer.h_off = state_size;
    state_size += layer.hidden;
    if (kind_ == TrunkKind::Lstm) {
      layer.c_off = state_size;
      state_size += layer.hidden;
    }
  }
  state_.assign(state_size, 0.0);
  // Gate scratch: both kernels accumulate the input-side and hidden-side
  // matvec results in two G-wide blocks before combining.
  const std::size_t hidden = layers_.front().hidden;
  const std::size_t G = gate_factor(kind_) * hidden;
  const std::size_t scratch = 2 * G;
  output_size_ = 0;
  for (const Head& head : heads_) output_size_ += head.out;
  head_out_off_ = scratch;
  workspace_.assign(scratch + output_size_, 0.0);
  // Packed (8-row interleaved) copies of the gate matrices. Row counts
  // not divisible by 8 leave a tail the kernels read off the natural
  // buffer.
  std::size_t poff = 0;
  for (Layer& layer : layers_) {
    layer.pw_ih = poff;
    poff += kernels::packed_size(G, layer.input);
    layer.pw_hh = poff;
    poff += kernels::packed_size(G, layer.hidden);
  }
  packed_.assign(poff, 0.0);
  repack();
}

void InferenceSession::repack() {
  const std::size_t G = gate_factor(kind_) * layers_.front().hidden;
  for (const Layer& layer : layers_) {
    kernels::pack_rows8(weights_.data() + layer.w_ih, G, layer.input,
                        packed_.data() + layer.pw_ih);
    kernels::pack_rows8(weights_.data() + layer.w_hh, G, layer.hidden,
                        packed_.data() + layer.pw_hh);
  }
}

void InferenceSession::reset_state() {
  std::fill(state_.begin(), state_.end(), 0.0);
}

void InferenceSession::watch_weight_source(const Module& module) {
  watched_.emplace_back(&module, module.weight_version());
}

void InferenceSession::check_fresh() const {
  for (const auto& [module, version] : watched_) {
    if (module->weight_version() != version) {
      throw std::logic_error(
          "InferenceSession: stale weight snapshot — a watched source "
          "module was updated after this session was compiled; rebuild "
          "the session (MicroModel::recompile / make_inference_session)");
    }
  }
}

std::size_t InferenceSession::row_width() const {
  return heads_.empty() ? layers_.back().hidden : output_size_;
}

/// Head o: out[o] = dot(h, w row o) + b[o], matching Linear::forward
/// (matmul_nt + add_row_bias). Headless sessions copy the top hidden row.
void InferenceSession::write_heads(const double* h, double* out) const {
  const std::size_t hidden = layers_.back().hidden;
  if (heads_.empty()) {
    std::copy_n(h, hidden, out);
    return;
  }
  std::size_t k = 0;
  for (const Head& head : heads_) {
    const double* w = weights_.data() + head.w;
    const double* b = weights_.data() + head.b;
    for (std::size_t o = 0; o < head.out; ++o) {
      out[k++] = kernels::dot(w + o * hidden, hidden, h) + b[o];
    }
  }
}

// One streaming step of one layer. `gi` (when non-null) is a writable
// row holding the precomputed input-side gate values from a batched
// matmul — exactly what the product below would produce — and `x` may
// then be null. The gate pass (kernels::lstm_gates / gru_gates, the pass
// the training step runs) combines the input-side and hidden-side gate
// sums and advances h (and c) in place; all gate rows are computed
// before the state update, so reading h/c in place is safe.
void InferenceSession::step(const Layer& layer, const double* x,
                            double* gi) {
  const std::size_t G = gate_factor(kind_) * layer.hidden;
  double* gh = workspace_.data() + G;
  if (gi == nullptr) {
    gi = workspace_.data();
    kernels::matmul_nt(packed_.data() + layer.pw_ih,
                       weights_.data() + layer.w_ih, G, layer.input, x,
                       layer.input, 1, gi, G);
  }
  double* h = state_.data() + layer.h_off;
  kernels::matmul_nt(packed_.data() + layer.pw_hh,
                     weights_.data() + layer.w_hh, G, layer.hidden, h,
                     layer.hidden, 1, gh, G);
  if (kind_ == TrunkKind::Lstm) {
    kernels::lstm_gates(weights_.data() + layer.b_ih, gi, gh, h,
                        state_.data() + layer.c_off, nullptr, layer.hidden);
  } else {
    kernels::gru_gates(weights_.data() + layer.b_ih,
                       weights_.data() + layer.b_hh, gi, gh, h,
                       layer.hidden);
  }
}

std::span<const double> InferenceSession::predict(
    std::span<const double> features) {
  check_fresh();
  if (features.size() != input_) {
    throw std::invalid_argument("InferenceSession: feature width mismatch");
  }
  const double* x = features.data();
  for (const Layer& layer : layers_) {
    step(layer, x, nullptr);
    x = state_.data() + layer.h_off;  // feeds the layer above
  }
  const Layer& top = layers_.back();
  const double* h = state_.data() + top.h_off;
  if (heads_.empty()) {
    return {h, top.hidden};
  }
  double* out = workspace_.data() + head_out_off_;
  write_heads(h, out);
  return {out, output_size_};
}

void InferenceSession::reserve_batch(std::size_t max_n) {
  if (max_n <= batch_capacity_) return;
  const std::size_t hidden = layers_.front().hidden;
  const std::size_t G = gate_factor(kind_) * hidden;
  batch_x_.assign(max_n * hidden, 0.0);
  // One G-wide row of input-side gates per step; the recurrence runs
  // through the per-step workspace scratch.
  batch_gates_.assign(max_n * G, 0.0);
  batch_out_.assign(max_n * row_width(), 0.0);
  batch_capacity_ = max_n;
}

// Sequence-mode batch: layer by layer, each layer first runs its
// input-side gate matmul over all n timesteps (one weight stream per
// batch), then replays the W_hh recurrence step by step. Evaluation
// order differs from n predict() calls but every scalar is produced by
// the identical operation sequence from identical inputs, so outputs and
// final state match bit-for-bit.
std::span<const double> InferenceSession::predict_batch(
    std::span<const double> features, std::size_t n) {
  check_fresh();
  if (features.size() != n * input_) {
    throw std::invalid_argument("InferenceSession: feature width mismatch");
  }
  if (n == 0) return {batch_out_.data(), 0};
  reserve_batch(n);
  const std::size_t hidden = layers_.front().hidden;
  const std::size_t G = gate_factor(kind_) * hidden;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    // Layer 0 reads the caller's feature rows; upper layers read the
    // previous layer's per-step outputs parked in batch_x_.
    const double* X = l == 0 ? features.data() : batch_x_.data();
    const std::size_t ldx = l == 0 ? input_ : hidden;
    kernels::matmul_nt(packed_.data() + layer.pw_ih,
                       weights_.data() + layer.w_ih, G, layer.input, X, ldx,
                       n, batch_gates_.data(), G);
    // Recurrence: the batched rows are consumed in arrival order, and
    // this layer's h_t overwrites batch_x_ row t (safe — the batched
    // matmul above already read every input row).
    for (std::size_t t = 0; t < n; ++t) {
      step(layer, nullptr, batch_gates_.data() + t * G);
      std::copy_n(state_.data() + layer.h_off, hidden,
                  batch_x_.data() + t * hidden);
    }
  }
  const std::size_t width = row_width();
  for (std::size_t t = 0; t < n; ++t) {
    write_heads(batch_x_.data() + t * hidden, batch_out_.data() + t * width);
  }
  return {batch_out_.data(), n * width};
}

std::vector<WeightView> InferenceSession::weight_views(
    const std::string& trunk_prefix,
    const std::vector<std::string>& head_names) {
  if (head_names.size() != heads_.size()) {
    throw std::invalid_argument("InferenceSession: head name count mismatch");
  }
  const std::size_t G = gate_factor(kind_);
  std::vector<WeightView> views;
  views.reserve(layers_.size() * 4 + heads_.size() * 2);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const std::string prefix = trunk_prefix + "l" + std::to_string(l) + ".";
    double* base = weights_.data();
    views.push_back(
        {prefix + "w_ih", G * layer.hidden, layer.input, base + layer.w_ih});
    views.push_back(
        {prefix + "w_hh", G * layer.hidden, layer.hidden, base + layer.w_hh});
    if (kind_ == TrunkKind::Lstm) {
      views.push_back({prefix + "b", 1, G * layer.hidden, base + layer.b_ih});
    } else {
      views.push_back(
          {prefix + "b_ih", 1, G * layer.hidden, base + layer.b_ih});
      views.push_back(
          {prefix + "b_hh", 1, G * layer.hidden, base + layer.b_hh});
    }
  }
  for (std::size_t i = 0; i < heads_.size(); ++i) {
    const Head& head = heads_[i];
    double* base = weights_.data();
    views.push_back({head_names[i] + ".w", head.out, layers_.back().hidden,
                     base + head.w});
    views.push_back({head_names[i] + ".b", 1, head.out, base + head.b});
  }
  return views;
}

}  // namespace esim::ml
