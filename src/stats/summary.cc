#include "stats/summary.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace esim::stats {

void Summary::add(double x) {
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Summary::reset() { *this = Summary{}; }

Ewma::Ewma(double alpha) : alpha_{alpha} {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("Ewma: alpha must be in (0, 1]");
  }
}

void Ewma::add(double x) {
  if (!valid_) {
    value_ = x;
    valid_ = true;
  } else {
    value_ = (1.0 - alpha_) * value_ + alpha_ * x;
  }
}

void Ewma::reset() {
  value_ = 0.0;
  valid_ = false;
}

}  // namespace esim::stats
