// The one numeric kernel set of the ML stack (DESIGN.md §8). Training
// (Tensor matmuls, LstmLayer/GruLayer steps and their backward passes)
// and serving (InferenceSession) both call these entry points; nothing
// else in src/ml computes a matrix product or a gate pass of its own.
//
// Every entry point is bit-identical across its scalar and AVX2 variants:
// each output element is produced by the exact IEEE operation sequence of
// the plain scalar loop its comment states — a dot product sums
// p = 0..n-1 from +0.0, one mul and one add per term (kernels.cc is
// compiled with -ffp-contract=off, and no variant enables FMA), and the
// gate passes replay ml/activations.h lane for lane. SIMD variants only
// put independent output elements side by side in vector lanes. The
// variant is picked once per process: AVX2 when the CPU has it, else
// scalar; ESIM_INFERENCE_ISA=scalar|avx2 pins one, for tests and benches
// (the name predates training's use of the same dispatch). Any other
// value selects scalar.
#pragma once

#include <cstddef>

namespace esim::ml::kernels {

/// Doubles in the packed copy of the first (rows / 8) * 8 rows of a
/// [rows x n] matrix (the trailing rows % 8 rows are not packed).
constexpr std::size_t packed_size(std::size_t rows, std::size_t n) {
  return rows / 8 * 8 * n;
}

/// Packs the full 8-row groups of row-major w [rows x n] column-
/// interleaved, so the SIMD tiles load one column of eight rows as
/// contiguous vectors: pk[g*8n + p*8 + r] = w[(8g + r)*n + p].
void pack_rows8(const double* w, std::size_t rows, std::size_t n, double* pk);

/// out[l*ldo + j] = sum_p x[l*ldx + p] * w[j*n + p] for every lane
/// l < lanes and row j < rows: x W^T. Full 8-row groups read the packed
/// copy pk (pack_rows8 of w), the remaining rows read w itself.
void matmul_nt(const double* pk, const double* w, std::size_t rows,
               std::size_t n, const double* x, std::size_t ldx,
               std::size_t lanes, double* out, std::size_t ldo);

/// sum_p x[p] * w[p], p = 0..n-1, from +0.0.
double dot(const double* w, std::size_t n, const double* x);

/// c[i*n + j] = sum_p a(i, p) * b[p*n + j] for i < m, j < n, where
/// a(i, p) = a[i*ai + p*ap] and terms with a(i, p) == 0 are skipped
/// (not added). c is [m x n], overwritten. ai = k, ap = 1 is A B for
/// A [m x k]; ai = 1, ap = m is A^T B for A [k x m].
void matmul_skip(const double* a, std::size_t ai, std::size_t ap,
                 const double* b, std::size_t m, std::size_t k, std::size_t n,
                 double* c);

/// LSTM gate pass for one row (ml/lstm.h layout, gates i|f|g|o):
/// gates[j] = (gates[j] + gh[j]) + b[j] for j < 4H, then
/// i, f, o = sigmoid, g = tanh, c' = f*c + i*g, h' = o*tanh(c'). c is
/// read before h and c are overwritten with h', c'. The post-activation
/// i|f|g|o replace the sums in `gates`; tanh(c') goes to tanh_c unless
/// it is null.
void lstm_gates(const double* b, double* gates, const double* gh, double* h,
                double* c, double* tanh_c, std::size_t H);

/// GRU gate pass for one row (ml/gru.h layout, gates r|z|n):
/// gi += b_ih, gh += b_hh over 3H, r = sigmoid(gi_r + gh_r),
/// z = sigmoid(gi_z + gh_z), n = tanh(gi_n + r*gh_n),
/// h' = (1 - z)*n + z*h. h is overwritten with h' and the
/// post-activation r|z|n replace gi; gh keeps its bias-added sums.
void gru_gates(const double* b_ih, const double* b_hh, double* gi, double* gh,
               double* h, std::size_t H);

/// Backward of lstm_gates for one row. `act` is the i|f|g|o row it left
/// in `gates`, tanh_c and c_prev its tanh(c') and input c; dh, dc the
/// gradients arriving at h', c'. Writes the pre-activation gate gradients
/// dgates (4H) and dc_prev (H).
void lstm_gates_backward(const double* act, const double* tanh_c,
                         const double* c_prev, const double* dh,
                         const double* dc, double* dgates, double* dc_prev,
                         std::size_t H);

/// Backward of gru_gates for one row. `act` is the r|z|n row it left in
/// gi, gh its bias-added hidden-side sums, h_prev its input h, dh the
/// gradient arriving at h'. Writes the gradients of the input-side and
/// hidden-side gate sums (dgi, dgh: 3H each) and dh's direct path into
/// h_prev (dh_direct = dh * z).
void gru_gates_backward(const double* act, const double* gh,
                        const double* h_prev, const double* dh, double* dgi,
                        double* dgh, double* dh_direct, std::size_t H);

}  // namespace esim::ml::kernels
