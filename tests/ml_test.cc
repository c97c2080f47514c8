#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/activations.h"
#include "ml/linear.h"
#include "ml/loss.h"
#include "ml/lstm.h"
#include "ml/optimizer.h"
#include "ml/serialize.h"
#include "ml/tensor.h"
#include "sim/random.h"

namespace esim::ml {
namespace {

using esim::sim::Rng;

TEST(Tensor, ConstructionAndAccess) {
  Tensor t{2, 3};
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0;
  EXPECT_EQ(t.at(1, 2), 5.0);
  EXPECT_EQ(t.sum(), 5.0);
  EXPECT_THROW((Tensor{2, 2, {1.0}}), std::invalid_argument);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a{2, 3, {1, 2, 3, 4, 5, 6}};
  Tensor b{3, 2, {7, 8, 9, 10, 11, 12}};
  const Tensor c = matmul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154);
  EXPECT_THROW(matmul(a, a), std::invalid_argument);
}

TEST(Tensor, TransposedVariantsAgree) {
  Rng rng{1};
  Tensor a{3, 4}, b{4, 5};
  a.fill_normal(rng, 1.0);
  b.fill_normal(rng, 1.0);
  // matmul_nt(a, bT) where bT is b transposed equals matmul(a, b).
  Tensor bt{5, 4};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  }
  const Tensor c1 = matmul(a, b);
  const Tensor c2 = matmul_nt(a, bt);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(c1.at(i, j), c2.at(i, j), 1e-12);
    }
  }
  // matmul_tn(aT..) : matmul_tn(x [k x m], y [k x n]) = x^T y.
  Tensor at{4, 3};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) at.at(j, i) = a.at(i, j);
  }
  const Tensor c3 = matmul_tn(at, b);  // (3x4) * (4x5)
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(c1.at(i, j), c3.at(i, j), 1e-12);
    }
  }
}

// The products run on ml/kernels.h, whose SIMD variants put output
// columns (matmul, matmul_tn) or rows (matmul_nt) side by side. Each
// element must still equal the plain loop to the bit: terms summed in
// p order from +0.0, and for matmul/matmul_tn the zero-A terms skipped,
// which an infinite B entry would expose (0 * inf is NaN). The shapes
// cross every block and tail: 1..37 output columns, 1..33 terms.
TEST(Tensor, ProductsMatchPlainLoopsBitForBit) {
  const auto same_bits = [](const Tensor& x, const Tensor& y) {
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(x.data()[i]) !=
          std::bit_cast<std::uint64_t>(y.data()[i])) {
        return false;
      }
    }
    return true;
  };
  Rng rng{12};
  for (const std::size_t m : {1UL, 3UL, 9UL}) {
    for (const std::size_t k : {1UL, 7UL, 33UL}) {
      for (const std::size_t n : {1UL, 5UL, 13UL, 16UL, 37UL}) {
        Tensor a{m, k}, b{k, n};
        a.fill_normal(rng, 1.0);
        b.fill_normal(rng, 1.0);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t p = i % 3; p < k; p += 3) a.at(i, p) = 0.0;
        }
        Tensor at{k, m}, bt{n, k};  // transposes, for matmul_tn/matmul_nt
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t p = 0; p < k; ++p) at.at(p, i) = a.at(i, p);
        }
        for (std::size_t p = 0; p < k; ++p) {
          for (std::size_t j = 0; j < n; ++j) bt.at(j, p) = b.at(p, j);
        }
        Tensor dense{m, n};  // no skips: what matmul_nt must produce
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (std::size_t p = 0; p < k; ++p) s += a.at(i, p) * bt.at(j, p);
            dense.at(i, j) = s;
          }
        }
        // Row 0 of a has a zero at p = 0, so an infinite b(0, j) must
        // not reach row 0 of the skipping products.
        b.at(0, n - 1) = std::numeric_limits<double>::infinity();
        Tensor skip{m, n};
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t p = 0; p < k; ++p) {
            const double av = a.at(i, p);
            if (av == 0.0) continue;
            for (std::size_t j = 0; j < n; ++j) {
              skip.at(i, j) += av * b.at(p, j);
            }
          }
        }
        SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n);
        EXPECT_TRUE(same_bits(matmul_nt(a, bt), dense));
        EXPECT_TRUE(same_bits(matmul(a, b), skip));
        EXPECT_TRUE(same_bits(matmul_tn(at, b), skip));
        EXPECT_TRUE(std::isfinite(skip.at(0, n - 1)));
      }
    }
  }
}

TEST(Tensor, RowBiasAndElementwise) {
  Tensor m{2, 2, {1, 2, 3, 4}};
  Tensor b{1, 2, {10, 20}};
  add_row_bias(m, b);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 11);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 24);
  m.scale(0.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 11);
  m.map([](double x) { return -x; });
  EXPECT_DOUBLE_EQ(m.at(0, 0), -5.5);
  EXPECT_DOUBLE_EQ(m.abs_max(), 12.0);
  Tensor wrong{1, 3};
  EXPECT_THROW(add_row_bias(m, wrong), std::invalid_argument);
  EXPECT_THROW(m.add(wrong), std::invalid_argument);
}

TEST(Activations, SigmoidStableAndCorrect) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(710.0), 1.0, 1e-12);   // no overflow
  EXPECT_NEAR(sigmoid(-710.0), 0.0, 1e-12);
  EXPECT_NEAR(dsigmoid_from_value(sigmoid(0.3)),
              (sigmoid(0.3 + 1e-6) - sigmoid(0.3 - 1e-6)) / 2e-6, 1e-6);
  EXPECT_NEAR(dtanh_from_value(std::tanh(0.7)),
              (std::tanh(0.7 + 1e-6) - std::tanh(0.7 - 1e-6)) / 2e-6, 1e-6);
}

// The fixed-sequence transcendentals must track libm tightly across the
// whole argument range the gates see: they replace std::exp/std::tanh in
// every model path, so a drift here is a silent accuracy regression in
// the trained models, not just in inference.
TEST(Activations, FixedSequenceKernelsMatchLibm) {
  for (int i = -4000; i <= 4000; ++i) {
    const double x = i * 0.01;  // [-40, 40], crosses every branch point
    const double e_ref = std::exp(x);
    const double e = exp_act(x);
    EXPECT_NEAR(e, e_ref, std::abs(e_ref) * 1e-14 + 1e-300)
        << "exp_act(" << x << ")";
    const double t_ref = std::tanh(x);
    EXPECT_NEAR(tanh_act(x), t_ref, 1e-14) << "tanh_act(" << x << ")";
    const double s_ref = 1.0 / (1.0 + std::exp(-x));
    EXPECT_NEAR(sigmoid(x), s_ref, 1e-14) << "sigmoid(" << x << ")";
  }
  // Saturating tails: exact values, no overflow/NaN.
  EXPECT_EQ(exp_act(-1000.0), 0.0);
  EXPECT_TRUE(std::isfinite(exp_act(1000.0)));
  EXPECT_DOUBLE_EQ(tanh_act(30.0), 1.0);
  EXPECT_DOUBLE_EQ(tanh_act(-30.0), -1.0);
  EXPECT_DOUBLE_EQ(sigmoid(800.0), 1.0);
  EXPECT_DOUBLE_EQ(sigmoid(-800.0), 0.0);
  // Odd symmetry of tanh_act holds bitwise (the vector port relies on
  // computing |x| and restoring the sign).
  for (double x : {0.01, 0.05, 0.3, 1.7, 8.0}) {
    EXPECT_DOUBLE_EQ(tanh_act(-x), -tanh_act(x));
  }
}

// ---------------------------------------------------------------------
// Gradient checking utilities.

/// Central finite difference of `loss()` w.r.t. one tensor element.
double numeric_grad(Tensor& t, std::size_t r, std::size_t c,
                    const std::function<double()>& loss, double eps = 1e-5) {
  const double orig = t.at(r, c);
  t.at(r, c) = orig + eps;
  const double up = loss();
  t.at(r, c) = orig - eps;
  const double down = loss();
  t.at(r, c) = orig;
  return (up - down) / (2 * eps);
}

void expect_grad_matches(Tensor& value, const Tensor& analytic,
                         const std::function<double()>& loss,
                         const std::string& label) {
  ASSERT_EQ(value.rows(), analytic.rows()) << label;
  ASSERT_EQ(value.cols(), analytic.cols()) << label;
  for (std::size_t r = 0; r < value.rows(); ++r) {
    for (std::size_t c = 0; c < value.cols(); ++c) {
      const double num = numeric_grad(value, r, c, loss);
      const double ana = analytic.at(r, c);
      const double tol = 1e-6 + 1e-4 * std::max(std::abs(num), std::abs(ana));
      EXPECT_NEAR(ana, num, tol) << label << "[" << r << "," << c << "]";
    }
  }
}

TEST(Linear, ForwardKnownValues) {
  Rng rng{2};
  Linear lin{2, 2, rng};
  lin.weight() = Tensor{2, 2, {1, 2, 3, 4}};
  lin.bias() = Tensor{1, 2, {0.5, -0.5}};
  Tensor x{1, 2, {10, 20}};
  const Tensor y = lin.forward(x);
  // y = x W^T + b = [10*1+20*2+0.5, 10*3+20*4-0.5]
  EXPECT_DOUBLE_EQ(y.at(0, 0), 50.5);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 109.5);
}

TEST(Linear, GradientCheck) {
  Rng rng{3};
  Linear lin{3, 2, rng};
  Tensor x{4, 3};
  x.fill_normal(rng, 1.0);
  Tensor target{4, 2};
  target.fill_normal(rng, 1.0);

  auto loss_fn = [&] {
    const Tensor y = lin.forward(x);
    Tensor mask{4, 2};
    mask.map([](double) { return 1.0; });
    return masked_mse(y, target, mask, nullptr);
  };

  lin.zero_grad();
  const Tensor y = lin.forward(x);
  Tensor mask{4, 2};
  mask.map([](double) { return 1.0; });
  Tensor dy;
  masked_mse(y, target, mask, &dy);
  const Tensor dx = lin.backward(x, dy);

  auto params = lin.parameters();
  expect_grad_matches(*params[0].value, *params[0].grad, loss_fn, "w");
  expect_grad_matches(*params[1].value, *params[1].grad, loss_fn, "b");
  expect_grad_matches(x, dx, loss_fn, "x");
}

TEST(Loss, BceKnownValuesAndGrad) {
  Tensor logits{1, 2, {0.0, 2.0}};
  Tensor targets{1, 2, {1.0, 0.0}};
  Tensor d;
  const double loss = bce_with_logits(logits, targets, &d);
  // Element 1: -log(sigmoid(0)) = log 2. Element 2: -log(1-sigmoid(2)).
  const double expect0 = std::log(2.0);
  const double expect1 = -std::log(1.0 - sigmoid(2.0));
  EXPECT_NEAR(loss, (expect0 + expect1) / 2.0, 1e-12);
  auto loss_fn = [&] { return bce_with_logits(logits, targets, nullptr); };
  expect_grad_matches(logits, d, loss_fn, "logits");
}

TEST(Loss, BceExtremeLogitsStable) {
  Tensor logits{1, 2, {1000.0, -1000.0}};
  Tensor targets{1, 2, {1.0, 0.0}};
  const double loss = bce_with_logits(logits, targets, nullptr);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

TEST(Loss, MaskedMseIgnoresMasked) {
  Tensor pred{1, 3, {1.0, 5.0, 9.0}};
  Tensor target{1, 3, {1.5, 100.0, 8.0}};
  Tensor mask{1, 3, {1.0, 0.0, 1.0}};
  Tensor d;
  const double loss = masked_mse(pred, target, mask, &d);
  EXPECT_NEAR(loss, (0.25 + 1.0) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 0.0);  // masked element gets no gradient
  auto loss_fn = [&] { return masked_mse(pred, target, mask, nullptr); };
  expect_grad_matches(pred, d, loss_fn, "pred");
}

TEST(Loss, MaskedMseEmptyMask) {
  Tensor pred{1, 2, {1.0, 2.0}};
  Tensor target{1, 2, {3.0, 4.0}};
  Tensor mask{1, 2};
  Tensor d;
  EXPECT_EQ(masked_mse(pred, target, mask, &d), 0.0);
  EXPECT_EQ(d.abs_max(), 0.0);
}

TEST(Loss, BceEmptyInputWritesGradient) {
  // A caller reusing its gradient tensor must not keep a previous call's
  // values and shape when the next batch is empty.
  Tensor d{2, 2, {1.0, 2.0, 3.0, 4.0}};
  const Tensor empty{0, 3};
  EXPECT_EQ(bce_with_logits(empty, empty, &d), 0.0);
  EXPECT_EQ(d.rows(), 0u);
  EXPECT_EQ(d.cols(), 3u);
}

TEST(Lstm, ShapesAndStateCarry) {
  Rng rng{4};
  Lstm lstm{3, 5, 2, rng};
  auto state = lstm.initial_state(2);
  Tensor x{2, 3};
  x.fill_normal(rng, 1.0);
  const Tensor h1 = lstm.step(x, state);
  EXPECT_EQ(h1.rows(), 2u);
  EXPECT_EQ(h1.cols(), 5u);
  const Tensor h2 = lstm.step(x, state);
  // Same input, different state: outputs must differ.
  double diff = 0;
  for (std::size_t j = 0; j < 5; ++j) {
    diff += std::abs(h1.at(0, j) - h2.at(0, j));
  }
  EXPECT_GT(diff, 1e-9);
}

TEST(Lstm, StreamingMatchesSequenceForward) {
  Rng rng{5};
  Lstm lstm{3, 4, 2, rng};
  std::vector<Tensor> xs;
  for (int t = 0; t < 6; ++t) {
    Tensor x{2, 3};
    x.fill_normal(rng, 1.0);
    xs.push_back(x);
  }
  auto s1 = lstm.initial_state(2);
  Lstm::SequenceCache cache;
  const auto hs = lstm.forward(xs, s1, cache);

  auto s2 = lstm.initial_state(2);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const Tensor h = lstm.step(xs[t], s2);
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(h.at(r, j), hs[t].at(r, j), 1e-12);
      }
    }
  }
}

TEST(Lstm, GradientCheckThroughTime) {
  Rng rng{6};
  Lstm lstm{2, 3, 2, rng};
  const std::size_t B = 2, T = 4;
  std::vector<Tensor> xs;
  std::vector<Tensor> targets;
  for (std::size_t t = 0; t < T; ++t) {
    Tensor x{B, 2}, y{B, 3};
    x.fill_normal(rng, 1.0);
    y.fill_normal(rng, 1.0);
    xs.push_back(x);
    targets.push_back(y);
  }
  Tensor ones{B, 3};
  ones.map([](double) { return 1.0; });

  auto loss_fn = [&] {
    auto state = lstm.initial_state(B);
    Lstm::SequenceCache cache;
    const auto hs = lstm.forward(xs, state, cache);
    double total = 0;
    for (std::size_t t = 0; t < T; ++t) {
      total += masked_mse(hs[t], targets[t], ones, nullptr);
    }
    return total;
  };

  lstm.zero_grad();
  auto state = lstm.initial_state(B);
  Lstm::SequenceCache cache;
  const auto hs = lstm.forward(xs, state, cache);
  std::vector<Tensor> dhs;
  for (std::size_t t = 0; t < T; ++t) {
    Tensor d;
    masked_mse(hs[t], targets[t], ones, &d);
    dhs.push_back(std::move(d));
  }
  lstm.backward(cache, dhs);

  for (auto& p : lstm.parameters()) {
    expect_grad_matches(*p.value, *p.grad, loss_fn, p.name);
  }
}

TEST(Lstm, LearnsToEchoPreviousInput) {
  // Sanity: a small LSTM trained with our optimizer learns y_t = x_{t-1},
  // which requires using its memory. Loss must drop substantially.
  Rng rng{7};
  Lstm lstm{1, 8, 1, rng};
  Linear head{8, 1, rng};
  std::vector<Parameter> params = lstm.parameters();
  for (auto& p : head.parameters()) params.push_back(p);
  SgdMomentum::Config ocfg;
  ocfg.learning_rate = 0.05;
  ocfg.momentum = 0.9;
  SgdMomentum opt{params, ocfg};

  const std::size_t B = 8, T = 6;
  Tensor ones{B, 1};
  ones.map([](double) { return 1.0; });

  double first_loss = 0, last_loss = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<Tensor> xs;
    for (std::size_t t = 0; t < T; ++t) {
      Tensor x{B, 1};
      x.fill_normal(rng, 1.0);
      xs.push_back(x);
    }
    auto state = lstm.initial_state(B);
    Lstm::SequenceCache cache;
    const auto hs = lstm.forward(xs, state, cache);
    double loss = 0;
    std::vector<Tensor> dhs(T);
    std::vector<Tensor> ys(T);
    for (std::size_t t = 0; t < T; ++t) {
      ys[t] = head.forward(hs[t]);
      Tensor dy;
      if (t == 0) {
        dhs[t] = Tensor{B, 8};
        continue;
      }
      loss += masked_mse(ys[t], xs[t - 1], ones, &dy);
      dhs[t] = head.backward(hs[t], dy);
    }
    lstm.backward(cache, dhs);
    opt.step();
    opt.zero_grad();
    lstm.zero_grad();
    head.zero_grad();
    if (iter == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.2);
}

TEST(Optimizer, ConvergesOnLinearRegression) {
  Rng rng{8};
  Linear lin{2, 1, rng};
  SgdMomentum::Config cfg;
  cfg.learning_rate = 0.05;
  SgdMomentum opt{lin.parameters(), cfg};
  Tensor ones{16, 1};
  ones.map([](double) { return 1.0; });
  double loss = 0;
  for (int iter = 0; iter < 500; ++iter) {
    Tensor x{16, 2};
    x.fill_normal(rng, 1.0);
    Tensor target{16, 1};
    for (std::size_t r = 0; r < 16; ++r) {
      target.at(r, 0) = 3.0 * x.at(r, 0) - 2.0 * x.at(r, 1) + 0.5;
    }
    const Tensor y = lin.forward(x);
    Tensor dy;
    loss = masked_mse(y, target, ones, &dy);
    lin.backward(x, dy);
    opt.step();
    opt.zero_grad();
  }
  EXPECT_LT(loss, 1e-3);
  EXPECT_NEAR(lin.weight().at(0, 0), 3.0, 0.05);
  EXPECT_NEAR(lin.weight().at(0, 1), -2.0, 0.05);
  EXPECT_NEAR(lin.bias().at(0, 0), 0.5, 0.05);
}

TEST(Optimizer, ClipsLargeGradients) {
  Rng rng{9};
  Linear lin{1, 1, rng};
  SgdMomentum::Config cfg;
  cfg.clip_norm = 1.0;
  cfg.learning_rate = 1.0;
  cfg.momentum = 0.0;
  SgdMomentum opt{lin.parameters(), cfg};
  auto params = lin.parameters();
  params[0].grad->at(0, 0) = 100.0;
  const double before = params[0].value->at(0, 0);
  const double norm = opt.step();
  EXPECT_GT(norm, 99.0);
  // Update magnitude is clipped to ~1 * lr.
  EXPECT_NEAR(std::abs(params[0].value->at(0, 0) - before), 1.0, 1e-6);
}

TEST(Optimizer, RejectsBadConfig) {
  Rng rng{10};
  Linear lin{2, 1, rng};
  const auto rejects = [&](const SgdMomentum::Config& cfg, const char* field) {
    try {
      SgdMomentum opt{lin.parameters(), cfg};
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
          << e.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {0.0, -1e-3, nan, inf}) {
    SgdMomentum::Config cfg;
    cfg.learning_rate = v;
    rejects(cfg, "learning_rate");
  }
  for (const double v : {-0.1, 1.0, 1.5, nan}) {
    SgdMomentum::Config cfg;
    cfg.momentum = v;
    rejects(cfg, "momentum");
  }
  for (const double v : {-1.0, nan, inf}) {
    SgdMomentum::Config cfg;
    cfg.clip_norm = v;
    rejects(cfg, "clip_norm");
  }
  // The edges that stay legal: no momentum, clipping off.
  SgdMomentum::Config edge;
  edge.momentum = 0.0;
  edge.clip_norm = 0.0;
  EXPECT_NO_THROW((SgdMomentum{lin.parameters(), edge}));
}

TEST(Serialize, RoundTrip) {
  Rng rng{10};
  Lstm a{3, 4, 2, rng};
  Lstm b{3, 4, 2, rng};  // different weights
  const std::string path = ::testing::TempDir() + "/esim_ml_roundtrip.bin";
  save_parameters(path, a.parameters());
  const std::uint64_t version = b.weight_version();
  load_parameters(path, b);
  EXPECT_EQ(b.weight_version(), version + 1);  // compiled sessions go stale
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(*pa[i].value == *pb[i].value) << pa[i].name;
  }
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchThrows) {
  Rng rng{11};
  Lstm a{3, 4, 1, rng};
  Lstm b{3, 5, 1, rng};
  const std::string path = ::testing::TempDir() + "/esim_ml_mismatch.bin";
  save_parameters(path, a.parameters());
  EXPECT_THROW(load_parameters(path, b), std::runtime_error);
  EXPECT_THROW(load_parameters("/nonexistent/x.bin", a),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileThrows) {
  Rng rng{12};
  Lstm a{3, 4, 1, rng};
  Lstm b{3, 4, 1, rng};
  const std::string path = ::testing::TempDir() + "/esim_ml_truncated.bin";
  save_parameters(path, a.parameters());
  // Cut the file at various points: mid-payload, mid-header, mid-name.
  for (const long keep : {16L, 9L, 120L}) {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_GT(size, keep);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), keep), 0);
    EXPECT_THROW(load_parameters(path, b), std::runtime_error)
        << "kept " << keep << " bytes";
    save_parameters(path, a.parameters());  // restore for the next cut
  }
  std::remove(path.c_str());
}

// Loads `path` into `m` and expects a std::runtime_error whose message
// contains `needle`; the module must come out untouched.
void expect_load_error(const std::string& path, Module& m,
                       const std::string& needle) {
  std::vector<Tensor> before;
  for (const auto& p : m.parameters()) before.push_back(*p.value);
  const std::uint64_t version = m.weight_version();
  try {
    load_parameters(path, m);
    ADD_FAILURE() << "loaded " << path;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << e.what();
  }
  const auto after = m.parameters();
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(*after[i].value == before[i]) << after[i].name;
  }
  EXPECT_EQ(m.weight_version(), version);
}

// A file that names one parameter twice has the module's parameter
// count, so only the names can tell that another parameter is missing.
TEST(Serialize, DuplicateNameThrows) {
  Rng rng{13};
  Lstm a{3, 4, 1, rng};
  Lstm b{3, 4, 1, rng};
  auto params = a.parameters();
  ASSERT_GE(params.size(), 2u);
  params[1] = params[0];
  const std::string path = ::testing::TempDir() + "/esim_ml_duplicate.bin";
  save_parameters(path, params);
  expect_load_error(path, b, params[0].name + " appears twice");
  std::remove(path.c_str());
}

// A name length past the end of the file is refused before the name is
// allocated: 17 bytes must not cost gigabytes.
TEST(Serialize, NameLengthPastEndOfFileThrows) {
  Rng rng{14};
  Lstm b{3, 4, 1, rng};
  const std::string path = ::testing::TempDir() + "/esim_ml_namelen.bin";
  // Magic, the module's parameter count, a name length, 5 bytes of name.
  const std::uint32_t words[] = {
      0x45534D4C, static_cast<std::uint32_t>(b.parameters().size()),
      0xFFFFFFF0};
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(words, sizeof words, 1, f), 1u);
  ASSERT_EQ(std::fwrite("l0.w_", 5, 1, f), 1u);
  std::fclose(f);
  expect_load_error(path, b, "name length 4294967280");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace esim::ml
