#include "ml/lstm.h"

#include <stdexcept>

#include "ml/kernels.h"

namespace esim::ml {

LstmLayer::LstmLayer(std::size_t input, std::size_t hidden, sim::Rng& rng)
    : input_{input},
      hidden_{hidden},
      w_ih_{4 * hidden, input},
      w_hh_{4 * hidden, hidden},
      b_{1, 4 * hidden},
      gw_ih_{4 * hidden, input},
      gw_hh_{4 * hidden, hidden},
      gb_{1, 4 * hidden} {
  if (input == 0 || hidden == 0) {
    throw std::invalid_argument("LstmLayer: zero dimension");
  }
  w_ih_.fill_xavier(rng);
  w_hh_.fill_xavier(rng);
  // Forget-gate bias starts at 1 so early training does not forget.
  for (std::size_t j = hidden_; j < 2 * hidden_; ++j) b_.at(0, j) = 1.0;
}

LstmLayer::State LstmLayer::initial_state(std::size_t batch) const {
  return State{Tensor{batch, hidden_}, Tensor{batch, hidden_}};
}

Tensor LstmLayer::step(const Tensor& x, State& state,
                       StepCache* cache) const {
  const std::size_t B = x.rows();
  const std::size_t H = hidden_;
  if (state.h.rows() != B || state.c.rows() != B || state.c.cols() != H) {
    throw std::invalid_argument("LstmLayer::step: state shape mismatch");
  }

  Tensor gates = matmul_nt(x, w_ih_);  // [B x 4H]
  const Tensor gh = matmul_nt(state.h, w_hh_);
  Tensor tanh_c;
  if (cache != nullptr) {
    cache->x = x;
    cache->h_prev = state.h;
    cache->c_prev = state.c;
    tanh_c = Tensor{B, H};
  }
  // Advances state.h/state.c in place and leaves i|f|g|o in `gates`.
  for (std::size_t r = 0; r < B; ++r) {
    kernels::lstm_gates(b_.data(), gates.data() + r * 4 * H,
                        gh.data() + r * 4 * H, state.h.data() + r * H,
                        state.c.data() + r * H,
                        cache != nullptr ? tanh_c.data() + r * H : nullptr, H);
  }
  if (cache != nullptr) {
    cache->act = std::move(gates);
    cache->tanh_c = std::move(tanh_c);
  }
  return state.h;
}

LstmLayer::StepGrad LstmLayer::step_backward(const StepCache& cache,
                                             const Tensor& dh,
                                             const Tensor& dc) {
  const std::size_t B = dh.rows();
  const std::size_t H = hidden_;
  if (dh.cols() != H || dc.rows() != B || dc.cols() != H ||
      cache.act.rows() != B) {
    throw std::invalid_argument("LstmLayer::step_backward: shape mismatch");
  }

  Tensor dgates{B, 4 * H};
  Tensor dc_prev{B, H};
  for (std::size_t r = 0; r < B; ++r) {
    kernels::lstm_gates_backward(
        cache.act.data() + r * 4 * H, cache.tanh_c.data() + r * H,
        cache.c_prev.data() + r * H, dh.data() + r * H, dc.data() + r * H,
        dgates.data() + r * 4 * H, dc_prev.data() + r * H, H);
  }

  gw_ih_.add(matmul_tn(dgates, cache.x));
  gw_hh_.add(matmul_tn(dgates, cache.h_prev));
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t j = 0; j < 4 * H; ++j) {
      gb_.at(0, j) += dgates.at(r, j);
    }
  }

  StepGrad out;
  out.dx = matmul(dgates, w_ih_);
  out.dh_prev = matmul(dgates, w_hh_);
  out.dc_prev = std::move(dc_prev);
  return out;
}

std::vector<Parameter> LstmLayer::parameters() {
  return {{"w_ih", &w_ih_, &gw_ih_},
          {"w_hh", &w_hh_, &gw_hh_},
          {"b", &b_, &gb_}};
}

Lstm::Lstm(std::size_t input, std::size_t hidden, std::size_t num_layers,
           sim::Rng& rng) {
  if (num_layers == 0) throw std::invalid_argument("Lstm: zero layers");
  layers_.reserve(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    layers_.emplace_back(l == 0 ? input : hidden, hidden, rng);
  }
}

Lstm::State Lstm::initial_state(std::size_t batch) const {
  State s;
  s.layers.reserve(layers_.size());
  for (const auto& layer : layers_) {
    s.layers.push_back(layer.initial_state(batch));
  }
  return s;
}

Tensor Lstm::step(const Tensor& x, State& state) const {
  Tensor h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l].step(h, state.layers[l], nullptr);
  }
  return h;
}

std::vector<Tensor> Lstm::forward(const std::vector<Tensor>& xs,
                                  State& state,
                                  SequenceCache& cache) const {
  cache.steps.assign(xs.size(),
                     std::vector<LstmLayer::StepCache>(layers_.size()));
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

void Lstm::backward(const SequenceCache& cache,
                    const std::vector<Tensor>& dhs) {
  if (cache.steps.size() != dhs.size()) {
    throw std::invalid_argument("Lstm::backward: length mismatch");
  }
  if (cache.steps.empty()) return;
  const std::size_t T = cache.steps.size();
  const std::size_t L = layers_.size();
  const std::size_t B = dhs.front().rows();

  // Running gradients entering each layer's (h, c) from the future.
  std::vector<Tensor> dh_next(L), dc_next(L);
  for (std::size_t l = 0; l < L; ++l) {
    dh_next[l] = Tensor{B, layers_[l].hidden_size()};
    dc_next[l] = Tensor{B, layers_[l].hidden_size()};
  }

  for (std::size_t t = T; t-- > 0;) {
    // Gradient flowing into the top layer at step t: loss + future.
    Tensor dh_down = dhs[t];
    for (std::size_t l = L; l-- > 0;) {
      Tensor dh = std::move(dh_down);
      dh.add(dh_next[l]);
      auto grad = layers_[l].step_backward(cache.steps[t][l], dh,
                                           dc_next[l]);
      dh_next[l] = std::move(grad.dh_prev);
      dc_next[l] = std::move(grad.dc_prev);
      dh_down = std::move(grad.dx);  // becomes dh for the layer below
    }
  }
}

std::vector<Parameter> Lstm::parameters() {
  std::vector<Parameter> out;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (auto& p : layers_[l].parameters()) {
      out.push_back(
          Parameter{"l" + std::to_string(l) + "." + p.name, p.value,
                    p.grad});
    }
  }
  return out;
}

}  // namespace esim::ml
