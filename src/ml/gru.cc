#include "ml/gru.h"

#include <stdexcept>

#include "ml/kernels.h"

namespace esim::ml {

GruLayer::GruLayer(std::size_t input, std::size_t hidden, sim::Rng& rng)
    : input_{input},
      hidden_{hidden},
      w_ih_{3 * hidden, input},
      w_hh_{3 * hidden, hidden},
      b_ih_{1, 3 * hidden},
      b_hh_{1, 3 * hidden},
      gw_ih_{3 * hidden, input},
      gw_hh_{3 * hidden, hidden},
      gb_ih_{1, 3 * hidden},
      gb_hh_{1, 3 * hidden} {
  if (input == 0 || hidden == 0) {
    throw std::invalid_argument("GruLayer: zero dimension");
  }
  w_ih_.fill_xavier(rng);
  w_hh_.fill_xavier(rng);
}

GruLayer::State GruLayer::initial_state(std::size_t batch) const {
  return State{Tensor{batch, hidden_}};
}

Tensor GruLayer::step(const Tensor& x, State& state,
                      StepCache* cache) const {
  const std::size_t B = x.rows();
  const std::size_t H = hidden_;
  if (state.h.rows() != B) {
    throw std::invalid_argument("GruLayer::step: state shape mismatch");
  }

  Tensor gi = matmul_nt(x, w_ih_);        // [B x 3H]
  Tensor gh = matmul_nt(state.h, w_hh_);  // [B x 3H]
  if (cache != nullptr) {
    cache->x = x;
    cache->h_prev = state.h;
  }
  // Advances state.h in place, adds the biases into gi/gh and leaves
  // r|z|n in gi.
  for (std::size_t r = 0; r < B; ++r) {
    kernels::gru_gates(b_ih_.data(), b_hh_.data(), gi.data() + r * 3 * H,
                       gh.data() + r * 3 * H, state.h.data() + r * H, H);
  }
  if (cache != nullptr) {
    cache->act = std::move(gi);
    cache->gh = std::move(gh);
  }
  return state.h;
}

GruLayer::StepGrad GruLayer::step_backward(const StepCache& cache,
                                           const Tensor& dh) {
  const std::size_t B = dh.rows();
  const std::size_t H = hidden_;
  if (dh.cols() != H || cache.act.rows() != B) {
    throw std::invalid_argument("GruLayer::step_backward: shape mismatch");
  }

  // Pre-activation gate gradients for the input-side (gi) and
  // hidden-side (gh) linear maps; they differ only in the n slot.
  Tensor dgi{B, 3 * H};
  Tensor dgh{B, 3 * H};
  Tensor dh_prev_direct{B, H};
  for (std::size_t b = 0; b < B; ++b) {
    kernels::gru_gates_backward(
        cache.act.data() + b * 3 * H, cache.gh.data() + b * 3 * H,
        cache.h_prev.data() + b * H, dh.data() + b * H,
        dgi.data() + b * 3 * H, dgh.data() + b * 3 * H,
        dh_prev_direct.data() + b * H, H);
  }

  gw_ih_.add(matmul_tn(dgi, cache.x));
  gw_hh_.add(matmul_tn(dgh, cache.h_prev));
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t j = 0; j < 3 * H; ++j) {
      gb_ih_.at(0, j) += dgi.at(b, j);
      gb_hh_.at(0, j) += dgh.at(b, j);
    }
  }

  StepGrad out;
  out.dx = matmul(dgi, w_ih_);
  out.dh_prev = matmul(dgh, w_hh_);
  out.dh_prev.add(dh_prev_direct);
  return out;
}

std::vector<Parameter> GruLayer::parameters() {
  return {{"w_ih", &w_ih_, &gw_ih_},
          {"w_hh", &w_hh_, &gw_hh_},
          {"b_ih", &b_ih_, &gb_ih_},
          {"b_hh", &b_hh_, &gb_hh_}};
}

Gru::Gru(std::size_t input, std::size_t hidden, std::size_t num_layers,
         sim::Rng& rng) {
  if (num_layers == 0) throw std::invalid_argument("Gru: zero layers");
  layers_.reserve(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    layers_.emplace_back(l == 0 ? input : hidden, hidden, rng);
  }
}

Gru::State Gru::initial_state(std::size_t batch) const {
  State s;
  s.layers.reserve(layers_.size());
  for (const auto& layer : layers_) {
    s.layers.push_back(layer.initial_state(batch));
  }
  return s;
}

Tensor Gru::step(const Tensor& x, State& state) const {
  Tensor h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l].step(h, state.layers[l], nullptr);
  }
  return h;
}

std::vector<Tensor> Gru::forward(const std::vector<Tensor>& xs,
                                 State& state, SequenceCache& cache) const {
  cache.steps.assign(xs.size(),
                     std::vector<GruLayer::StepCache>(layers_.size()));
  std::vector<Tensor> hs;
  hs.reserve(xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    Tensor h = xs[t];
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      h = layers_[l].step(h, state.layers[l], &cache.steps[t][l]);
    }
    hs.push_back(std::move(h));
  }
  return hs;
}

void Gru::backward(const SequenceCache& cache,
                   const std::vector<Tensor>& dhs) {
  if (cache.steps.size() != dhs.size()) {
    throw std::invalid_argument("Gru::backward: length mismatch");
  }
  if (cache.steps.empty()) return;
  const std::size_t T = cache.steps.size();
  const std::size_t L = layers_.size();
  const std::size_t B = dhs.front().rows();

  std::vector<Tensor> dh_next(L);
  for (std::size_t l = 0; l < L; ++l) {
    dh_next[l] = Tensor{B, layers_[l].hidden_size()};
  }
  for (std::size_t t = T; t-- > 0;) {
    Tensor dh_down = dhs[t];
    for (std::size_t l = L; l-- > 0;) {
      Tensor dh = std::move(dh_down);
      dh.add(dh_next[l]);
      auto grad = layers_[l].step_backward(cache.steps[t][l], dh);
      dh_next[l] = std::move(grad.dh_prev);
      dh_down = std::move(grad.dx);
    }
  }
}

std::vector<Parameter> Gru::parameters() {
  std::vector<Parameter> out;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (auto& p : layers_[l].parameters()) {
      out.push_back(Parameter{"l" + std::to_string(l) + "." + p.name,
                              p.value, p.grad});
    }
  }
  return out;
}

}  // namespace esim::ml
