// Kernel variants and their dispatch (see kernels.h). A naive dot
// product is bound by its serial addsd chain, not by multiply
// throughput. The variants here compute many independent outputs at
// once — gate rows of a packed group, lanes of a batch, columns of a
// product row — and each output still sums its terms in exactly the
// scalar order, so every result matches the scalar variant to the last
// bit while the independent chains fill the FPU pipeline. Vector lanes
// do the same IEEE mul-then-add as scalar code: this file is compiled
// with -ffp-contract=off and the AVX2 clones do not enable FMA, so no
// fused multiply-add can change a rounding.
#include "ml/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "ml/activations.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ESIM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace esim::ml::kernels {
namespace {

// ---- x W^T over packed 8-row groups ------------------------------------

/// matvec over `groups` packed groups: out[g*8 + r] = dot(row g*8+r, x).
/// Eight independent scalar chains per group.
void matvec_scalar(const double* pk, std::size_t groups, std::size_t n,
                   const double* x, double* out) {
  for (std::size_t g = 0; g < groups; ++g) {
    const double* w = pk + g * 8 * n;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      const double xv = x[p];
      const double* col = w + p * 8;
      s0 += xv * col[0];
      s1 += xv * col[1];
      s2 += xv * col[2];
      s3 += xv * col[3];
      s4 += xv * col[4];
      s5 += xv * col[5];
      s6 += xv * col[6];
      s7 += xv * col[7];
    }
    double* o = out + g * 8;
    o[0] = s0;
    o[1] = s1;
    o[2] = s2;
    o[3] = s3;
    o[4] = s4;
    o[5] = s5;
    o[6] = s6;
    o[7] = s7;
  }
}

/// `lanes` input rows (stride ldx) against one packed block, output rows
/// at stride ldo. The portable variant has no cross-lane amortization:
/// one matvec per lane.
void matmul_scalar(const double* pk, std::size_t groups, std::size_t n,
                   const double* x, std::size_t ldx, std::size_t lanes,
                   double* out, std::size_t ldo) {
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    matvec_scalar(pk, groups, n, x + lane * ldx, out + lane * ldo);
  }
}

#ifdef ESIM_X86_DISPATCH

/// AVX2 matvec: two groups (16 rows) per pass = four independent ymm
/// accumulator chains, enough to cover the vaddpd latency. One row per
/// lane; each lane performs the exact scalar operation sequence.
__attribute__((target("avx2"))) void matvec_avx2(const double* pk,
                                                 std::size_t groups,
                                                 std::size_t n,
                                                 const double* x,
                                                 double* out) {
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    const double* a = pk + g * 8 * n;
    const double* b = a + 8 * n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d b0 = _mm256_setzero_pd();
    __m256d b1 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < n; ++p) {
      const __m256d xv = _mm256_broadcast_sd(x + p);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(xv, _mm256_loadu_pd(a + p * 8)));
      a1 = _mm256_add_pd(a1,
                         _mm256_mul_pd(xv, _mm256_loadu_pd(a + p * 8 + 4)));
      b0 = _mm256_add_pd(b0, _mm256_mul_pd(xv, _mm256_loadu_pd(b + p * 8)));
      b1 = _mm256_add_pd(b1,
                         _mm256_mul_pd(xv, _mm256_loadu_pd(b + p * 8 + 4)));
    }
    _mm256_storeu_pd(out + g * 8, a0);
    _mm256_storeu_pd(out + g * 8 + 4, a1);
    _mm256_storeu_pd(out + g * 8 + 8, b0);
    _mm256_storeu_pd(out + g * 8 + 12, b1);
  }
  if (g < groups) {
    const double* a = pk + g * 8 * n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < n; ++p) {
      const __m256d xv = _mm256_broadcast_sd(x + p);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(xv, _mm256_loadu_pd(a + p * 8)));
      a1 = _mm256_add_pd(a1,
                         _mm256_mul_pd(xv, _mm256_loadu_pd(a + p * 8 + 4)));
    }
    _mm256_storeu_pd(out + g * 8, a0);
    _mm256_storeu_pd(out + g * 8 + 4, a1);
  }
}

/// AVX2 matmul: four lanes share every weight load. The 4x8 (lane x row)
/// tile keeps eight independent ymm accumulator chains — two per lane —
/// so one pass over a weight group serves four input rows. Per (lane,
/// row) the arithmetic is the exact matvec sequence.
__attribute__((target("avx2"))) void matmul_avx2(
    const double* pk, std::size_t groups, std::size_t n, const double* x,
    std::size_t ldx, std::size_t lanes, double* out, std::size_t ldo) {
  std::size_t lane = 0;
  for (; lane + 4 <= lanes; lane += 4) {
    const double* x0 = x + lane * ldx;
    const double* x1 = x0 + ldx;
    const double* x2 = x1 + ldx;
    const double* x3 = x2 + ldx;
    double* o0 = out + lane * ldo;
    double* o1 = o0 + ldo;
    double* o2 = o1 + ldo;
    double* o3 = o2 + ldo;
    for (std::size_t g = 0; g < groups; ++g) {
      const double* w = pk + g * 8 * n;
      __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
      __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
      __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
      __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < n; ++p) {
        const __m256d w0 = _mm256_loadu_pd(w + p * 8);
        const __m256d w1 = _mm256_loadu_pd(w + p * 8 + 4);
        __m256d xv = _mm256_broadcast_sd(x0 + p);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(xv, w0));
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(xv, w1));
        xv = _mm256_broadcast_sd(x1 + p);
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(xv, w0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(xv, w1));
        xv = _mm256_broadcast_sd(x2 + p);
        a20 = _mm256_add_pd(a20, _mm256_mul_pd(xv, w0));
        a21 = _mm256_add_pd(a21, _mm256_mul_pd(xv, w1));
        xv = _mm256_broadcast_sd(x3 + p);
        a30 = _mm256_add_pd(a30, _mm256_mul_pd(xv, w0));
        a31 = _mm256_add_pd(a31, _mm256_mul_pd(xv, w1));
      }
      _mm256_storeu_pd(o0 + g * 8, a00);
      _mm256_storeu_pd(o0 + g * 8 + 4, a01);
      _mm256_storeu_pd(o1 + g * 8, a10);
      _mm256_storeu_pd(o1 + g * 8 + 4, a11);
      _mm256_storeu_pd(o2 + g * 8, a20);
      _mm256_storeu_pd(o2 + g * 8 + 4, a21);
      _mm256_storeu_pd(o3 + g * 8, a30);
      _mm256_storeu_pd(o3 + g * 8 + 4, a31);
    }
  }
  for (; lane < lanes; ++lane) {
    matvec_avx2(pk, groups, n, x + lane * ldx, out + lane * ldo);
  }
}

#endif  // ESIM_X86_DISPATCH

// ---- A B and A^T B, skipping zero a entries ----------------------------

void matmul_skip_scalar(const double* a, std::size_t ai, std::size_t ap,
                        const double* b, std::size_t m, std::size_t k,
                        std::size_t n, double* c) {
  std::fill_n(c, m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[i * ai + p * ap];
      if (av == 0.0) continue;
      const double* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

#ifdef ESIM_X86_DISPATCH

/// Columns side by side: each 16-column block of an output row stays in
/// four ymm accumulators while p runs, so every element sums its terms
/// in the scalar order with the same zero skips. A partial last block
/// masks its loads and stores: masked-off lanes load 0.0 and are never
/// stored, and a vector with no lane in range points at the block start
/// so no address past the row is formed.
__attribute__((target("avx2"))) void matmul_skip_avx2(
    const double* a, std::size_t ai, std::size_t ap, const double* b,
    std::size_t m, std::size_t k, std::size_t n, double* c) {
  const __m256i lane = _mm256_set_epi64x(3, 2, 1, 0);
  for (std::size_t j0 = 0; j0 < n; j0 += 16) {
    const std::size_t width = std::min<std::size_t>(16, n - j0);
    const __m256i w = _mm256_set1_epi64x(static_cast<long long>(width));
    __m256i mask[4];
    std::size_t off[4];
    for (std::size_t q = 0; q < 4; ++q) {
      mask[q] = _mm256_cmpgt_epi64(
          w, _mm256_add_epi64(lane, _mm256_set1_epi64x(
                                        static_cast<long long>(4 * q))));
      off[q] = 4 * q < width ? 4 * q : 0;
    }
    for (std::size_t i = 0; i < m; ++i) {
      __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
      __m256d s2 = _mm256_setzero_pd(), s3 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < k; ++p) {
        const double av = a[i * ai + p * ap];
        if (av == 0.0) continue;
        const __m256d va = _mm256_set1_pd(av);
        const double* brow = b + p * n + j0;
        s0 = _mm256_add_pd(
            s0, _mm256_mul_pd(va, _mm256_maskload_pd(brow + off[0], mask[0])));
        s1 = _mm256_add_pd(
            s1, _mm256_mul_pd(va, _mm256_maskload_pd(brow + off[1], mask[1])));
        s2 = _mm256_add_pd(
            s2, _mm256_mul_pd(va, _mm256_maskload_pd(brow + off[2], mask[2])));
        s3 = _mm256_add_pd(
            s3, _mm256_mul_pd(va, _mm256_maskload_pd(brow + off[3], mask[3])));
      }
      double* crow = c + i * n + j0;
      _mm256_maskstore_pd(crow + off[0], mask[0], s0);
      _mm256_maskstore_pd(crow + off[1], mask[1], s1);
      _mm256_maskstore_pd(crow + off[2], mask[2], s2);
      _mm256_maskstore_pd(crow + off[3], mask[3], s3);
    }
  }
}

// ---- Vector activation twins (see ml/activations.h) -------------------
//
// exp4/sigmoid4/tanh4 replay exp_act/sigmoid/tanh_act four elements at a
// time with the exact same IEEE op sequence (same reduction constants,
// same Estrin association, plain mul/add, nearest-even rounding for the
// exponent split), so every element is bit-identical to the scalar call.
// Where the scalar code branches, the vector code computes both sides
// and blends — the selected lane value is the same.

__attribute__((target("avx2"))) inline __m256d exp4(__m256d x) {
  x = _mm256_min_pd(x, _mm256_set1_pd(kExpClamp));
  const __m256d under =
      _mm256_cmp_pd(x, _mm256_set1_pd(-kExpClamp), _CMP_LT_OQ);
  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kExpLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Lo)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d r8 = _mm256_mul_pd(r4, r4);
  const __m256d q0 = _mm256_add_pd(_mm256_set1_pd(1.0), r);
  const __m256d q1 = _mm256_add_pd(
      _mm256_set1_pd(0.5), _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 6.0)));
  const __m256d q2 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 24.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 120.0)));
  const __m256d q3 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 720.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 5040.0)));
  const __m256d q4 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 40320.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 362880.0)));
  const __m256d q5 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 3628800.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 39916800.0)));
  const __m256d q6 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 479001600.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 6227020800.0)));
  const __m256d lo = _mm256_add_pd(
      _mm256_add_pd(q0, _mm256_mul_pd(r2, q1)),
      _mm256_mul_pd(r4, _mm256_add_pd(q2, _mm256_mul_pd(r2, q3))));
  const __m256d hi = _mm256_add_pd(_mm256_add_pd(q4, _mm256_mul_pd(r2, q5)),
                                   _mm256_mul_pd(r4, q6));
  const __m256d p = _mm256_add_pd(lo, _mm256_mul_pd(r8, hi));
  // 2^k from exponent bits; k is integral and |k| <= 1022 after the
  // clamp, so the int32 hop is exact. Out-of-range lanes compute garbage
  // here and are masked to the scalar result (0.0) below.
  const __m128i ki = _mm256_cvtpd_epi32(k);
  const __m256i ke = _mm256_add_epi64(_mm256_cvtepi32_epi64(ki),
                                      _mm256_set1_epi64x(1023));
  const __m256d s = _mm256_castsi256_pd(_mm256_slli_epi64(ke, 52));
  return _mm256_andnot_pd(under, _mm256_mul_pd(p, s));
}

__attribute__((target("avx2"))) inline __m256d sigmoid4(__m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d a = _mm256_andnot_pd(sign, x);
  const __m256d e = exp4(_mm256_xor_pd(a, sign));  // exp(-|x|)
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
  const __m256d num = _mm256_blendv_pd(one, e, neg);
  return _mm256_div_pd(num, _mm256_add_pd(one, e));
}

__attribute__((target("avx2"))) inline __m256d tanh4(__m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d a = _mm256_andnot_pd(sign, x);
  const __m256d z = _mm256_mul_pd(x, x);
  __m256d p = _mm256_set1_pd(21844.0 / 6081075.0);
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(-1382.0 / 155925.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(62.0 / 2835.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(-17.0 / 315.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(2.0 / 15.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(-1.0 / 3.0));
  const __m256d small =
      _mm256_add_pd(x, _mm256_mul_pd(_mm256_mul_pd(x, z), p));
  const __m256d e = exp4(_mm256_mul_pd(_mm256_set1_pd(-2.0), a));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d r =
      _mm256_div_pd(_mm256_sub_pd(one, e), _mm256_add_pd(one, e));
  const __m256d big = _mm256_or_pd(r, _mm256_and_pd(x, sign));
  const __m256d use_small =
      _mm256_cmp_pd(a, _mm256_set1_pd(kTanhSmall), _CMP_LT_OQ);
  return _mm256_blendv_pd(big, small, use_small);
}

#endif  // ESIM_X86_DISPATCH

// ---- Gate passes, forward and backward ---------------------------------
//
// Each *_unit function is one hidden unit's exact op sequence: the scalar
// variants run it for every unit, the AVX2 variants for the units past
// their last full vector. The expressions are the gate math of
// ml/lstm.h and ml/gru.h; the AVX2 bodies transcribe them term for term.

inline void lstm_unit(double* gates, double* h, double* c, double* tanh_c,
                      std::size_t H, std::size_t u) {
  const double gv = sigmoid(gates[u]);
  const double gf = sigmoid(gates[H + u]);
  const double gg = tanh_act(gates[2 * H + u]);
  const double go = sigmoid(gates[3 * H + u]);
  const double cv = gf * c[u] + gv * gg;
  const double tc = tanh_act(cv);
  gates[u] = gv;
  gates[H + u] = gf;
  gates[2 * H + u] = gg;
  gates[3 * H + u] = go;
  c[u] = cv;
  h[u] = go * tc;
  if (tanh_c != nullptr) tanh_c[u] = tc;
}

inline void gru_unit(double* gi, const double* gh, double* h, std::size_t H,
                     std::size_t u) {
  const double rv = sigmoid(gi[u] + gh[u]);
  const double zv = sigmoid(gi[H + u] + gh[H + u]);
  const double nv = tanh_act(gi[2 * H + u] + rv * gh[2 * H + u]);
  h[u] = (1.0 - zv) * nv + zv * h[u];
  gi[u] = rv;
  gi[H + u] = zv;
  gi[2 * H + u] = nv;
}

inline void lstm_unit_backward(const double* act, const double* tanh_c,
                               const double* c_prev, const double* dh,
                               const double* dc, double* dgates,
                               double* dc_prev, std::size_t H,
                               std::size_t u) {
  const double i = act[u];
  const double f = act[H + u];
  const double g = act[2 * H + u];
  const double o = act[3 * H + u];
  const double tc = tanh_c[u];
  const double dh_v = dh[u];
  const double dct = dc[u] + dh_v * o * dtanh_from_value(tc);
  const double do_v = dh_v * tc;
  const double di = dct * g;
  const double dg = dct * i;
  const double df = dct * c_prev[u];
  dgates[u] = di * dsigmoid_from_value(i);
  dgates[H + u] = df * dsigmoid_from_value(f);
  dgates[2 * H + u] = dg * dtanh_from_value(g);
  dgates[3 * H + u] = do_v * dsigmoid_from_value(o);
  dc_prev[u] = dct * f;
}

inline void gru_unit_backward(const double* act, const double* gh,
                              const double* h_prev, const double* dh,
                              double* dgi, double* dgh, double* dh_direct,
                              std::size_t H, std::size_t u) {
  const double r = act[u];
  const double z = act[H + u];
  const double n = act[2 * H + u];
  const double g = dh[u];
  const double dz = g * (h_prev[u] - n);
  const double dn = g * (1.0 - z);
  const double dan = dn * dtanh_from_value(n);  // pre-tanh
  const double dr = dan * gh[2 * H + u];
  const double daz = dz * dsigmoid_from_value(z);
  const double dar = dr * dsigmoid_from_value(r);
  dgi[u] = dar;
  dgi[H + u] = daz;
  dgi[2 * H + u] = dan;
  dgh[u] = dar;
  dgh[H + u] = daz;
  dgh[2 * H + u] = dan * r;
  dh_direct[u] = g * z;
}

void lstm_gates_scalar(const double* b, double* gates, const double* gh,
                       double* h, double* c, double* tanh_c, std::size_t H) {
  for (std::size_t j = 0; j < 4 * H; ++j) gates[j] = gates[j] + gh[j] + b[j];
  for (std::size_t u = 0; u < H; ++u) lstm_unit(gates, h, c, tanh_c, H, u);
}

void gru_gates_scalar(const double* b_ih, const double* b_hh, double* gi,
                      double* gh, double* h, std::size_t H) {
  for (std::size_t j = 0; j < 3 * H; ++j) {
    gi[j] += b_ih[j];
    gh[j] += b_hh[j];
  }
  for (std::size_t u = 0; u < H; ++u) gru_unit(gi, gh, h, H, u);
}

void lstm_gates_backward_scalar(const double* act, const double* tanh_c,
                                const double* c_prev, const double* dh,
                                const double* dc, double* dgates,
                                double* dc_prev, std::size_t H) {
  for (std::size_t u = 0; u < H; ++u) {
    lstm_unit_backward(act, tanh_c, c_prev, dh, dc, dgates, dc_prev, H, u);
  }
}

void gru_gates_backward_scalar(const double* act, const double* gh,
                               const double* h_prev, const double* dh,
                               double* dgi, double* dgh, double* dh_direct,
                               std::size_t H) {
  for (std::size_t u = 0; u < H; ++u) {
    gru_unit_backward(act, gh, h_prev, dh, dgi, dgh, dh_direct, H, u);
  }
}

#ifdef ESIM_X86_DISPATCH

__attribute__((target("avx2"))) void lstm_gates_avx2(
    const double* b, double* gates, const double* gh, double* h, double* c,
    double* tanh_c, std::size_t H) {
  const std::size_t G = 4 * H;
  std::size_t j = 0;
  for (; j + 4 <= G; j += 4) {
    const __m256d v = _mm256_add_pd(
        _mm256_add_pd(_mm256_loadu_pd(gates + j), _mm256_loadu_pd(gh + j)),
        _mm256_loadu_pd(b + j));
    _mm256_storeu_pd(gates + j, v);
  }
  for (; j < G; ++j) gates[j] = gates[j] + gh[j] + b[j];
  std::size_t u = 0;
  for (; u + 4 <= H; u += 4) {
    const __m256d gv = sigmoid4(_mm256_loadu_pd(gates + u));
    const __m256d gf = sigmoid4(_mm256_loadu_pd(gates + H + u));
    const __m256d gg = tanh4(_mm256_loadu_pd(gates + 2 * H + u));
    const __m256d go = sigmoid4(_mm256_loadu_pd(gates + 3 * H + u));
    const __m256d cv = _mm256_add_pd(
        _mm256_mul_pd(gf, _mm256_loadu_pd(c + u)), _mm256_mul_pd(gv, gg));
    const __m256d tc = tanh4(cv);
    _mm256_storeu_pd(gates + u, gv);
    _mm256_storeu_pd(gates + H + u, gf);
    _mm256_storeu_pd(gates + 2 * H + u, gg);
    _mm256_storeu_pd(gates + 3 * H + u, go);
    _mm256_storeu_pd(c + u, cv);
    _mm256_storeu_pd(h + u, _mm256_mul_pd(go, tc));
    if (tanh_c != nullptr) _mm256_storeu_pd(tanh_c + u, tc);
  }
  for (; u < H; ++u) lstm_unit(gates, h, c, tanh_c, H, u);
}

__attribute__((target("avx2"))) void gru_gates_avx2(const double* b_ih,
                                                    const double* b_hh,
                                                    double* gi, double* gh,
                                                    double* h,
                                                    std::size_t H) {
  const std::size_t G = 3 * H;
  std::size_t j = 0;
  for (; j + 4 <= G; j += 4) {
    _mm256_storeu_pd(gi + j, _mm256_add_pd(_mm256_loadu_pd(gi + j),
                                           _mm256_loadu_pd(b_ih + j)));
    _mm256_storeu_pd(gh + j, _mm256_add_pd(_mm256_loadu_pd(gh + j),
                                           _mm256_loadu_pd(b_hh + j)));
  }
  for (; j < G; ++j) {
    gi[j] += b_ih[j];
    gh[j] += b_hh[j];
  }
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t u = 0;
  for (; u + 4 <= H; u += 4) {
    const __m256d rv = sigmoid4(_mm256_add_pd(_mm256_loadu_pd(gi + u),
                                              _mm256_loadu_pd(gh + u)));
    const __m256d zv =
        sigmoid4(_mm256_add_pd(_mm256_loadu_pd(gi + H + u),
                               _mm256_loadu_pd(gh + H + u)));
    const __m256d nv = tanh4(
        _mm256_add_pd(_mm256_loadu_pd(gi + 2 * H + u),
                      _mm256_mul_pd(rv, _mm256_loadu_pd(gh + 2 * H + u))));
    const __m256d hv = _mm256_loadu_pd(h + u);
    _mm256_storeu_pd(
        h + u, _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(one, zv), nv),
                             _mm256_mul_pd(zv, hv)));
    _mm256_storeu_pd(gi + u, rv);
    _mm256_storeu_pd(gi + H + u, zv);
    _mm256_storeu_pd(gi + 2 * H + u, nv);
  }
  for (; u < H; ++u) gru_unit(gi, gh, h, H, u);
}

__attribute__((target("avx2"))) void lstm_gates_backward_avx2(
    const double* act, const double* tanh_c, const double* c_prev,
    const double* dh, const double* dc, double* dgates, double* dc_prev,
    std::size_t H) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t u = 0;
  for (; u + 4 <= H; u += 4) {
    const __m256d i = _mm256_loadu_pd(act + u);
    const __m256d f = _mm256_loadu_pd(act + H + u);
    const __m256d g = _mm256_loadu_pd(act + 2 * H + u);
    const __m256d o = _mm256_loadu_pd(act + 3 * H + u);
    const __m256d tc = _mm256_loadu_pd(tanh_c + u);
    const __m256d dhv = _mm256_loadu_pd(dh + u);
    const __m256d dct = _mm256_add_pd(
        _mm256_loadu_pd(dc + u),
        _mm256_mul_pd(_mm256_mul_pd(dhv, o),
                      _mm256_sub_pd(one, _mm256_mul_pd(tc, tc))));
    const __m256d dov = _mm256_mul_pd(dhv, tc);
    const __m256d di = _mm256_mul_pd(dct, g);
    const __m256d dg = _mm256_mul_pd(dct, i);
    const __m256d df = _mm256_mul_pd(dct, _mm256_loadu_pd(c_prev + u));
    // dsigmoid_from_value(s) = s * (1 - s), dtanh_from_value(t) = 1 - t*t.
    const __m256d si = _mm256_mul_pd(i, _mm256_sub_pd(one, i));
    const __m256d sf = _mm256_mul_pd(f, _mm256_sub_pd(one, f));
    const __m256d tg = _mm256_sub_pd(one, _mm256_mul_pd(g, g));
    const __m256d so = _mm256_mul_pd(o, _mm256_sub_pd(one, o));
    _mm256_storeu_pd(dgates + u, _mm256_mul_pd(di, si));
    _mm256_storeu_pd(dgates + H + u, _mm256_mul_pd(df, sf));
    _mm256_storeu_pd(dgates + 2 * H + u, _mm256_mul_pd(dg, tg));
    _mm256_storeu_pd(dgates + 3 * H + u, _mm256_mul_pd(dov, so));
    _mm256_storeu_pd(dc_prev + u, _mm256_mul_pd(dct, f));
  }
  for (; u < H; ++u) {
    lstm_unit_backward(act, tanh_c, c_prev, dh, dc, dgates, dc_prev, H, u);
  }
}

__attribute__((target("avx2"))) void gru_gates_backward_avx2(
    const double* act, const double* gh, const double* h_prev,
    const double* dh, double* dgi, double* dgh, double* dh_direct,
    std::size_t H) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t u = 0;
  for (; u + 4 <= H; u += 4) {
    const __m256d r = _mm256_loadu_pd(act + u);
    const __m256d z = _mm256_loadu_pd(act + H + u);
    const __m256d n = _mm256_loadu_pd(act + 2 * H + u);
    const __m256d g = _mm256_loadu_pd(dh + u);
    const __m256d dz =
        _mm256_mul_pd(g, _mm256_sub_pd(_mm256_loadu_pd(h_prev + u), n));
    const __m256d dn = _mm256_mul_pd(g, _mm256_sub_pd(one, z));
    const __m256d dan =
        _mm256_mul_pd(dn, _mm256_sub_pd(one, _mm256_mul_pd(n, n)));
    const __m256d dr = _mm256_mul_pd(dan, _mm256_loadu_pd(gh + 2 * H + u));
    const __m256d daz =
        _mm256_mul_pd(dz, _mm256_mul_pd(z, _mm256_sub_pd(one, z)));
    const __m256d dar =
        _mm256_mul_pd(dr, _mm256_mul_pd(r, _mm256_sub_pd(one, r)));
    _mm256_storeu_pd(dgi + u, dar);
    _mm256_storeu_pd(dgi + H + u, daz);
    _mm256_storeu_pd(dgi + 2 * H + u, dan);
    _mm256_storeu_pd(dgh + u, dar);
    _mm256_storeu_pd(dgh + H + u, daz);
    _mm256_storeu_pd(dgh + 2 * H + u, _mm256_mul_pd(dan, r));
    _mm256_storeu_pd(dh_direct + u, _mm256_mul_pd(g, z));
  }
  for (; u < H; ++u) {
    gru_unit_backward(act, gh, h_prev, dh, dgi, dgh, dh_direct, H, u);
  }
}

#endif  // ESIM_X86_DISPATCH

// ---- Dispatch ----------------------------------------------------------

struct Table {
  void (*matmul_nt)(const double*, std::size_t, std::size_t, const double*,
                    std::size_t, std::size_t, double*, std::size_t);
  void (*matmul_skip)(const double*, std::size_t, std::size_t, const double*,
                      std::size_t, std::size_t, std::size_t, double*);
  void (*lstm_gates)(const double*, double*, const double*, double*, double*,
                     double*, std::size_t);
  void (*gru_gates)(const double*, const double*, double*, double*, double*,
                    std::size_t);
  void (*lstm_gates_backward)(const double*, const double*, const double*,
                              const double*, const double*, double*, double*,
                              std::size_t);
  void (*gru_gates_backward)(const double*, const double*, const double*,
                             const double*, double*, double*, double*,
                             std::size_t);
};

/// Every variant is bit-identical, so this is purely a throughput
/// decision: AVX2 when the CPU has it. A forced value other than `scalar`
/// or `avx2` selects scalar.
Table select_kernels() {
  Table t{matmul_scalar,
          matmul_skip_scalar,
          lstm_gates_scalar,
          gru_gates_scalar,
          lstm_gates_backward_scalar,
          gru_gates_backward_scalar};
#ifdef ESIM_X86_DISPATCH
  bool use_avx2 = __builtin_cpu_supports("avx2");
  const char* force = std::getenv("ESIM_INFERENCE_ISA");
  if (force != nullptr && force[0] != '\0') {
    use_avx2 = use_avx2 && std::string_view{force} == "avx2";
  }
  if (use_avx2) {
    t = {matmul_avx2,
         matmul_skip_avx2,
         lstm_gates_avx2,
         gru_gates_avx2,
         lstm_gates_backward_avx2,
         gru_gates_backward_avx2};
  }
#endif
  return t;
}

/// Selected once, during static initialization: nothing in the program
/// calls a kernel before main starts.
const Table g_kernels = select_kernels();

}  // namespace

void pack_rows8(const double* w, std::size_t rows, std::size_t n,
                double* pk) {
  for (std::size_t g = 0; g < rows / 8; ++g) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t r = 0; r < 8; ++r) {
        pk[g * 8 * n + p * 8 + r] = w[(g * 8 + r) * n + p];
      }
    }
  }
}

void matmul_nt(const double* pk, const double* w, std::size_t rows,
               std::size_t n, const double* x, std::size_t ldx,
               std::size_t lanes, double* out, std::size_t ldo) {
  g_kernels.matmul_nt(pk, rows / 8, n, x, ldx, lanes, out, ldo);
  for (std::size_t j = rows / 8 * 8; j < rows; ++j) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[lane * ldo + j] = dot(w + j * n, n, x + lane * ldx);
    }
  }
}

double dot(const double* w, std::size_t n, const double* x) {
  double s = 0.0;
  for (std::size_t p = 0; p < n; ++p) s += x[p] * w[p];
  return s;
}

void matmul_skip(const double* a, std::size_t ai, std::size_t ap,
                 const double* b, std::size_t m, std::size_t k, std::size_t n,
                 double* c) {
  g_kernels.matmul_skip(a, ai, ap, b, m, k, n, c);
}

void lstm_gates(const double* b, double* gates, const double* gh, double* h,
                double* c, double* tanh_c, std::size_t H) {
  g_kernels.lstm_gates(b, gates, gh, h, c, tanh_c, H);
}

void gru_gates(const double* b_ih, const double* b_hh, double* gi, double* gh,
               double* h, std::size_t H) {
  g_kernels.gru_gates(b_ih, b_hh, gi, gh, h, H);
}

void lstm_gates_backward(const double* act, const double* tanh_c,
                         const double* c_prev, const double* dh,
                         const double* dc, double* dgates, double* dc_prev,
                         std::size_t H) {
  g_kernels.lstm_gates_backward(act, tanh_c, c_prev, dh, dc, dgates, dc_prev,
                                H);
}

void gru_gates_backward(const double* act, const double* gh,
                        const double* h_prev, const double* dh, double* dgi,
                        double* dgh, double* dh_direct, std::size_t H) {
  g_kernels.gru_gates_backward(act, gh, h_prev, dh, dgi, dgh, dh_direct, H);
}

}  // namespace esim::ml::kernels
