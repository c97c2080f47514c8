// Minimal dense tensor (2-D, row-major, double precision).
//
// This is the numerical substrate standing in for the paper's PyTorch/ATEN
// dependency. It is deliberately small: the micro model needs matrix
// multiplies, elementwise maps, and nothing else. Correctness of everything
// built on top is established by finite-difference gradient checks in the
// test suite rather than by reference to an external framework.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/random.h"

namespace esim::ml {

/// Row-major 2-D matrix of doubles. A vector is a 1 x n or n x 1 Tensor.
class Tensor {
 public:
  /// Empty 0x0 tensor.
  Tensor() = default;

  /// Zero-initialized rows x cols tensor.
  Tensor(std::size_t rows, std::size_t cols);

  /// Tensor filled from `values` (size must equal rows*cols).
  Tensor(std::size_t rows, std::size_t cols, std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  /// Element access (no bounds check in release).
  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Raw storage (row-major).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Sets every element to zero.
  void zero();

  /// Fills with N(0, stddev) values from `rng`.
  void fill_normal(sim::Rng& rng, double stddev);

  /// Xavier/Glorot uniform initialisation for a [out x in] weight.
  void fill_xavier(sim::Rng& rng);

  /// Elementwise in-place: this += other (shapes must match).
  void add(const Tensor& other);

  /// Elementwise in-place: this += scale * other.
  void add_scaled(const Tensor& other, double scale);

  /// In-place scalar multiply.
  void scale(double k);

  /// Applies `fn` to every element in place.
  void map(const std::function<double(double)>& fn);

  /// Sum of all elements.
  double sum() const;

  /// Largest absolute element (0 for empty).
  double abs_max() const;

  bool operator==(const Tensor&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// The three products run on ml/kernels.h. Every element of C sums its
// terms p = 0..k-1 in order from +0.0 (matmul and matmul_tn skip the
// terms whose A entry is zero), so results do not depend on the kernel
// variant the process dispatched to.

/// C = A (m x k) * B (k x n).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A (m x k) * B^T where B is (n x k). The natural layout for weight
/// matrices stored [out x in].
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C = A^T (k x m -> m x k) * B (k x n). Used in backward passes.
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Adds a 1 x n bias row to every row of a (m x n) matrix, in place.
void add_row_bias(Tensor& m, const Tensor& bias);

}  // namespace esim::ml
