// Streaming summary statistics (Welford) and exponentially weighted moving
// averages. These are the numerical primitives used by measurement
// collectors and by the macro congestion-state classifier.
#pragma once

#include <cstdint>
#include <limits>

namespace esim::stats {

/// Single-pass streaming summary: count, mean, variance, min, max.
/// Uses Welford's algorithm, so it is numerically stable for long runs.
class Summary {
 public:
  /// Adds one observation.
  void add(double x);

  /// Number of observations.
  std::uint64_t count() const { return count_; }
  /// Mean of observations (0 when empty).
  double mean() const { return mean_; }
  /// Unbiased sample variance (0 when count < 2).
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;
  /// Smallest observation (+inf when empty).
  double min() const { return min_; }
  /// Largest observation (-inf when empty).
  double max() const { return max_; }
  /// Sum of observations.
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Resets to the empty state.
  void reset();

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exponentially weighted moving average with configurable smoothing.
/// add(x): ewma <- (1-alpha)*ewma + alpha*x. Before the first sample the
/// value() is 0 and valid() is false.
class Ewma {
 public:
  /// alpha in (0, 1]; larger = more responsive.
  explicit Ewma(double alpha = 0.1);

  /// Folds in one observation.
  void add(double x);

  /// Current smoothed value.
  double value() const { return value_; }

  /// True once at least one sample has been added.
  bool valid() const { return valid_; }

  /// Resets to the empty state.
  void reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool valid_ = false;
};

}  // namespace esim::stats
