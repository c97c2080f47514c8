// Deterministic pseudo-random number generation for simulation.
//
// All stochastic behaviour in ElephantSim (traffic arrival, flow sizes,
// sampled drops, ML weight initialisation, ...) flows through `Rng`, a
// xoshiro256++ generator seeded via SplitMix64. Identical seeds produce
// identical simulations on every platform, which the test suite relies on.
// Inside a run only traffic generators and approximated clusters draw, each
// from a stream of the seed and its own identity (derive_stream).
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

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// SplitMix64's finalizer: a full-avalanche 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Who draws from a run's seed; each kind's tag keeps its streams apart.
enum class StreamTag : std::uint64_t {
  arrivals = 1,  ///< workload::TrafficGenerator, by rank on its simulator
  drops = 2,     ///< core::ApproxCluster, by cluster index
};

/// The stream of consumer `index` of kind `tag` in a run seeded with
/// `seed`: one SplitMix64 step per value, so each is mixed before the next.
Rng derive_stream(std::uint64_t seed, StreamTag tag, std::uint64_t index);

}  // namespace esim::sim
