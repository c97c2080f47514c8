// Deterministic pseudo-random number generation for simulation.
//
// All stochastic behaviour in ElephantSim (traffic arrival, flow sizes, ECMP
// perturbation, ML weight initialisation, ...) flows through `Rng`, a
// xoshiro256++ generator seeded via SplitMix64. Identical seeds produce
// identical simulations on every platform, which the test suite relies on.
#pragma once

#include <cstdint>

namespace esim::sim {

/// xoshiro256++ PRNG (Blackman & Vigna). Small, fast, and with 256 bits of
/// state — far more than the simulation needs, and trivially seedable from a
/// single 64-bit value through SplitMix64 so distinct seeds give independent
/// streams.
class Rng {
 public:
  /// Seeds the generator. Distinct seeds yield statistically independent
  /// streams; the default gives a fixed, documented stream.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling, so
  /// the result is exactly uniform.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Exponentially distributed value with the given mean (rate = 1/mean).
  /// Used for Poisson inter-arrival gaps.
  double exponential(double mean);

  /// Standard normal via Box–Muller (used by ML weight initialisation).
  double normal();

  /// Normal with explicit mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);

  /// Forks a child generator whose stream is independent of (and
  /// deterministically derived from) this one. Used to give each component
  /// its own stream so adding a component never perturbs another's draws.
  Rng fork();

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace esim::sim
