// Flow-size distributions.
//
// The paper drives its evaluation with "a well-known trace of datacenter
// web traffic" — the DCTCP web-search workload [Alizadeh et al., SIGCOMM
// 2010]. The raw trace is not public; what is published (and what every
// follow-up simulation uses) is its flow-size CDF: a heavy-tailed mix where
// most flows are small queries but most *bytes* belong to multi-megabyte
// background flows. `web_search_distribution()` reproduces that CDF as a
// piecewise log-linear sampler (substitution documented in DESIGN.md §1).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace esim::workload {

/// Samples flow sizes in bytes.
class FlowSizeDistribution {
 public:
  virtual ~FlowSizeDistribution() = default;

  /// Draws one flow size (>= 1 byte).
  virtual std::uint64_t sample(sim::Rng& rng) const = 0;

  /// Mean flow size in bytes (used to convert offered load to arrival
  /// rate).
  virtual double mean() const = 0;
};

/// Every flow has the same size. Useful in tests and ablations.
class FixedFlowSize final : public FlowSizeDistribution {
 public:
  explicit FixedFlowSize(std::uint64_t bytes);
  std::uint64_t sample(sim::Rng& rng) const override;
  double mean() const override;

 private:
  std::uint64_t bytes_;
};

/// Piecewise log-linear interpolation of an empirical CDF given as
/// (size_bytes, cumulative_probability) knots.
class EmpiricalFlowSize final : public FlowSizeDistribution {
 public:
  /// Knots must be strictly increasing in both coordinates, with the last
  /// probability equal to 1.
  explicit EmpiricalFlowSize(
      std::vector<std::pair<std::uint64_t, double>> knots);

  std::uint64_t sample(sim::Rng& rng) const override;
  double mean() const override;

  /// The knots this distribution interpolates.
  const std::vector<std::pair<std::uint64_t, double>>& knots() const {
    return knots_;
  }

 private:
  std::vector<std::pair<std::uint64_t, double>> knots_;
  double mean_;
};

/// The DCTCP web-search flow-size distribution (see file comment). Every
/// run draws from mini_web_distribution() instead; this full-scale CDF is
/// the shape that one scales down, and the EmpiricalFlowSize tests'
/// fixture.
std::unique_ptr<EmpiricalFlowSize> web_search_distribution();

/// A lighter "web mice" mix used for fast unit/integration runs: same
/// shape (mostly small flows, a thin heavy tail) but with a mean two
/// orders of magnitude smaller, so short simulations still complete many
/// flows.
std::unique_ptr<EmpiricalFlowSize> mini_web_distribution();

}  // namespace esim::workload
