#include "ml/tensor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.h"

namespace esim::ml {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_{rows}, cols_{cols}, data_(rows * cols, 0.0) {}

Tensor::Tensor(std::size_t rows, std::size_t cols,
               std::vector<double> values)
    : rows_{rows}, cols_{cols}, data_{std::move(values)} {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Tensor: values size mismatch");
  }
}

void Tensor::zero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Tensor::fill_normal(sim::Rng& rng, double stddev) {
  for (auto& v : data_) v = rng.normal(0.0, stddev);
}

void Tensor::fill_xavier(sim::Rng& rng) {
  // Glorot uniform: U(-a, a), a = sqrt(6 / (fan_in + fan_out)).
  const double a =
      std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (auto& v : data_) v = rng.uniform(-a, a);
}

void Tensor::add(const Tensor& other) { add_scaled(other, 1.0); }

void Tensor::add_scaled(const Tensor& other, double scale) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("Tensor::add: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void Tensor::scale(double k) {
  for (auto& v : data_) v *= k;
}

void Tensor::map(const std::function<double(double)>& fn) {
  for (auto& v : data_) v = fn(v);
}

double Tensor::sum() const {
  double s = 0;
  for (double v : data_) s += v;
  return s;
}

double Tensor::abs_max() const {
  double m = 0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimensions differ");
  }
  Tensor c{a.rows(), b.cols()};
  kernels::matmul_skip(a.data(), a.cols(), 1, b.data(), a.rows(), a.cols(),
                       b.cols(), c.data());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt: inner dimensions differ");
  }
  Tensor c{a.rows(), b.rows()};
  std::vector<double> packed(kernels::packed_size(b.rows(), b.cols()));
  kernels::pack_rows8(b.data(), b.rows(), b.cols(), packed.data());
  kernels::matmul_nt(packed.data(), b.data(), b.rows(), b.cols(), a.data(),
                     a.cols(), a.rows(), c.data(), c.cols());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_tn: inner dimensions differ");
  }
  Tensor c{a.cols(), b.cols()};
  kernels::matmul_skip(a.data(), 1, a.cols(), b.data(), a.cols(), a.rows(),
                       b.cols(), c.data());
  return c;
}

void add_row_bias(Tensor& m, const Tensor& bias) {
  if (bias.rows() != 1 || bias.cols() != m.cols()) {
    throw std::invalid_argument("add_row_bias: bias shape mismatch");
  }
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* row = m.data() + i * m.cols();
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] += bias.at(0, j);
  }
}

}  // namespace esim::ml
