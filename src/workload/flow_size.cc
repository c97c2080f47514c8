#include "workload/flow_size.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace esim::workload {

FixedFlowSize::FixedFlowSize(std::uint64_t bytes) : bytes_{bytes} {
  if (bytes == 0) throw std::invalid_argument("FixedFlowSize: zero size");
}

std::uint64_t FixedFlowSize::sample(sim::Rng&) const { return bytes_; }

double FixedFlowSize::mean() const { return static_cast<double>(bytes_); }

EmpiricalFlowSize::EmpiricalFlowSize(
    std::vector<std::pair<std::uint64_t, double>> knots)
    : knots_{std::move(knots)} {
  if (knots_.size() < 2) {
    throw std::invalid_argument("EmpiricalFlowSize: need >= 2 knots");
  }
  for (std::size_t i = 0; i < knots_.size(); ++i) {
    if (knots_[i].first == 0 || knots_[i].second < 0 ||
        knots_[i].second > 1) {
      throw std::invalid_argument("EmpiricalFlowSize: knot out of range");
    }
    if (i > 0 && (knots_[i].first <= knots_[i - 1].first ||
                  knots_[i].second <= knots_[i - 1].second)) {
      throw std::invalid_argument(
          "EmpiricalFlowSize: knots must strictly increase");
    }
  }
  if (knots_.back().second != 1.0) {
    throw std::invalid_argument("EmpiricalFlowSize: last CDF value != 1");
  }

  // Mean of the piecewise log-linear interpolation, computed numerically
  // (the sampler interpolates sizes geometrically between knots).
  double mean = 0.0;
  double prev_p = 0.0;
  double prev_x = static_cast<double>(knots_.front().first);
  // Probability mass below the first knot maps to the first knot size.
  mean += knots_.front().second * prev_x;
  prev_p = knots_.front().second;
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    const double x = static_cast<double>(knots_[i].first);
    const double p = knots_[i].second;
    // E[size | segment] for log-linear interp: integrate exp(ln x) over u.
    const double lx0 = std::log(prev_x);
    const double lx1 = std::log(x);
    double seg_mean;
    if (std::abs(lx1 - lx0) < 1e-12) {
      seg_mean = x;
    } else {
      seg_mean = (std::exp(lx1) - std::exp(lx0)) / (lx1 - lx0);
    }
    mean += (p - prev_p) * seg_mean;
    prev_p = p;
    prev_x = x;
  }
  mean_ = mean;
}

std::uint64_t EmpiricalFlowSize::sample(sim::Rng& rng) const {
  const double u = rng.uniform();
  if (u <= knots_.front().second) return knots_.front().first;
  auto it = std::lower_bound(
      knots_.begin(), knots_.end(), u,
      [](const auto& knot, double p) { return knot.second < p; });
  if (it == knots_.end()) return knots_.back().first;
  const auto& [x1, p1] = *it;
  const auto& [x0, p0] = *(it - 1);
  const double t = (u - p0) / (p1 - p0);
  const double lx =
      std::log(static_cast<double>(x0)) +
      t * (std::log(static_cast<double>(x1)) -
           std::log(static_cast<double>(x0)));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::exp(lx)));
}

double EmpiricalFlowSize::mean() const { return mean_; }

std::unique_ptr<EmpiricalFlowSize> web_search_distribution() {
  // Discretized CDF of the DCTCP web-search workload (Alizadeh et al.,
  // SIGCOMM 2010, Figure 4 of that paper), as used by pFabric and other
  // follow-up simulation studies.
  return std::make_unique<EmpiricalFlowSize>(
      std::vector<std::pair<std::uint64_t, double>>{
          {6'000, 0.15},
          {13'000, 0.20},
          {19'000, 0.30},
          {33'000, 0.40},
          {53'000, 0.53},
          {133'000, 0.60},
          {667'000, 0.70},
          {1'340'000, 0.80},
          {3'300'000, 0.90},
          {6'700'000, 0.95},
          {20'000'000, 0.98},
          {30'000'000, 1.00},
      });
}

std::unique_ptr<EmpiricalFlowSize> mini_web_distribution() {
  // Same qualitative shape at 1/100 scale: short simulated spans still
  // complete statistically many flows.
  return std::make_unique<EmpiricalFlowSize>(
      std::vector<std::pair<std::uint64_t, double>>{
          {1'000, 0.15},
          {2'000, 0.30},
          {4'000, 0.50},
          {8'000, 0.65},
          {20'000, 0.80},
          {60'000, 0.92},
          {200'000, 0.98},
          {500'000, 1.00},
      });
}

}  // namespace esim::workload
