// Activation functions and their derivatives.
//
// The transcendentals here are deliberately NOT libm: exp_act / tanh_act /
// sigmoid evaluate a fixed IEEE operation sequence (Cody-Waite range
// reduction, Taylor-Horner core, exponent-bit scaling) so the AVX2 ports
// in ml/kernels.cc can replay the exact same sequence four elements at
// a time and stay bit-identical to this scalar form. libm's exp/tanh have
// no such vector twin — their table-driven paths cannot be reproduced
// lane-for-lane — and the scalar activation pass is what dominated the
// per-packet inference cost once the matmuls were fused.
//
// Every consumer of the model numerics (the gate passes in ml/kernels.cc
// that training and InferenceSession share, and the loss) uses these,
// so the session-vs-reference and batched-vs-sequential bit-identity
// contracts are unaffected by the approximation error (~1 ulp core,
// <= ~1e-15 relative overall vs true exp/tanh).
//
// Bit-identity rules for the vector ports: same operation order, plain
// mul/add (no FMA contraction — kernels.cc is compiled with
// -ffp-contract=off; this header's other TUs target baseline x86-64,
// which has no FMA to contract into), round-to-nearest-even for the
// exponent split, and branch selection that computes the same value the
// mask blend selects.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace esim::ml {

// exp core: exp(x) = 2^k * exp(r), k = round(x / ln 2), |r| <= ln2/2.
inline constexpr double kExpLog2E = 1.4426950408889634074;     // 1/ln 2
inline constexpr double kExpLn2Hi = 6.93147180369123816490e-1;  // ln 2 head
inline constexpr double kExpLn2Lo = 1.90821492927058770002e-10;  // ln 2 tail
/// exp saturates outside [-708, 708] (the double normal range): below it
/// returns exactly 0, above it evaluates at 708. Callers here only ever
/// need the saturating tails (sigmoid/tanh arguments).
inline constexpr double kExpClamp = 708.0;
/// Below this |x|, tanh uses the odd Taylor polynomial directly; above
/// it, the exp form (1 - e) / (1 + e) has no meaningful cancellation.
inline constexpr double kTanhSmall = 0.0625;

/// exp(x) with a fixed op sequence: degree-13 Taylor core on the reduced
/// argument (truncation ~4e-18 relative), scaled by 2^k built from
/// exponent bits. |k| <= 1022 after the clamp, so the bit build never
/// overflows the exponent field. The polynomial is evaluated in Estrin
/// form — Horner's 13-deep multiply-add chain stalls the out-of-order
/// window when gate elements evaluate back to back; Estrin's tree is
/// ~2x shallower for a handful of extra multiplies.
inline double exp_act(double x) {
  if (x > kExpClamp) x = kExpClamp;
  if (x < -kExpClamp) return 0.0;
  const double k = std::nearbyint(x * kExpLog2E);
  const double r = (x - k * kExpLn2Hi) - k * kExpLn2Lo;
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const double q0 = 1.0 + r;
  const double q1 = 0.5 + r * (1.0 / 6.0);
  const double q2 = 1.0 / 24.0 + r * (1.0 / 120.0);
  const double q3 = 1.0 / 720.0 + r * (1.0 / 5040.0);
  const double q4 = 1.0 / 40320.0 + r * (1.0 / 362880.0);
  const double q5 = 1.0 / 3628800.0 + r * (1.0 / 39916800.0);
  const double q6 = 1.0 / 479001600.0 + r * (1.0 / 6227020800.0);
  const double lo = (q0 + r2 * q1) + r4 * (q2 + r2 * q3);
  const double hi = (q4 + r2 * q5) + r4 * q6;
  const double p = lo + r8 * hi;
  const auto ki = static_cast<std::int64_t>(k);
  const double s = std::bit_cast<double>((ki + 1023) << 52);
  return p * s;
}

/// tanh(x): odd Taylor polynomial below kTanhSmall, otherwise
/// (1 - e) / (1 + e) with e = exp_act(-2|x|) and the sign restored.
/// Saturates to exactly +-1.0 for |x| >= ~19 (as true tanh rounds).
inline double tanh_act(double x) {
  const double a = std::abs(x);
  if (a < kTanhSmall) {
    const double z = x * x;
    double p = 21844.0 / 6081075.0;
    p = p * z + -1382.0 / 155925.0;
    p = p * z + 62.0 / 2835.0;
    p = p * z + -17.0 / 315.0;
    p = p * z + 2.0 / 15.0;
    p = p * z + -1.0 / 3.0;
    return x + (x * z) * p;
  }
  const double e = exp_act(-2.0 * a);
  const double r = (1.0 - e) / (1.0 + e);
  return x < 0.0 ? -r : r;
}

/// Logistic sigmoid, numerically stable on both tails: both branches
/// share e = exp_act(-|x|) so the vector port can blend the numerator.
inline double sigmoid(double x) {
  if (x >= 0) {
    const double z = exp_act(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = exp_act(x);
  return z / (1.0 + z);
}

/// d/dx sigmoid(x) expressed via the activation value s = sigmoid(x).
inline double dsigmoid_from_value(double s) { return s * (1.0 - s); }

/// d/dx tanh(x) expressed via the activation value t = tanh(x).
inline double dtanh_from_value(double t) { return 1.0 - t * t; }

}  // namespace esim::ml
