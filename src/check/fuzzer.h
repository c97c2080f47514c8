// Seeded scenario generation and failure shrinking.
//
// ScenarioFuzzer::next() samples a fresh, valid leaf-spine Scenario from a
// seeded sim::Rng: Clos dimensions, fabric queue depth, TCP variant, and a
// flow list with globally unique start times (see scenario.h for why). The
// whole sequence is a pure function of the fuzzer seed, so a failing run
// is reproducible from `--seed N` alone even before the repro file is
// written.
//
// shrink() greedily minimizes a failing scenario against a caller-supplied
// "still fails" predicate: drop flow chunks (ddmin-style), halve flow
// sizes, shave topology dimensions, and halve the horizon — accepting any
// candidate that validates and still fails. The result is what lands in
// the repro file.
//
// random_hybrid_scenario() and random_granularity_scenario() sample
// scenarios with an approximation block, each a pure function of its
// seed (hybrid corpora reproduce from the seed; they have no text form).
#pragma once

#include <cstdint>
#include <functional>

#include "check/scenario.h"
#include "sim/random.h"

namespace esim::check {

class ScenarioFuzzer {
 public:
  struct Options {
    std::uint32_t min_flows = 4;
    std::uint32_t max_flows = 24;
    /// Flow sizes are drawn as multiples of one MSS up to this many.
    std::uint32_t max_flow_mss = 64;
  };

  explicit ScenarioFuzzer(std::uint64_t seed) : rng_{seed} {}
  ScenarioFuzzer(std::uint64_t seed, const Options& options)
      : rng_{seed}, options_{options} {}

  /// Samples the next scenario in this fuzzer's deterministic sequence.
  Scenario next();

  /// Greedily minimizes `failing` while `still_fails(candidate)` holds,
  /// within 160 predicate evaluations. The predicate is only called on
  /// candidates that pass validate().
  Scenario shrink(const Scenario& failing,
                  const std::function<bool(const Scenario&)>& still_fails)
      const;

 private:
  sim::Rng rng_;
  Options options_;
};

/// Samples a hybrid scenario (3-4 clusters, batched inference, a seeded
/// model recipe) as a pure function of `scenario_seed`.
Scenario random_hybrid_scenario(std::uint64_t scenario_seed);

/// Samples an adaptive-granularity scenario: quiescent-heavy traffic
/// (sparse early flows, a long silence) with one incast burst into an
/// approximated cluster, plus classification thresholds tuned so the
/// controller actually demotes to fluid and promotes back. Pure function
/// of `scenario_seed`.
Scenario random_granularity_scenario(std::uint64_t scenario_seed);

}  // namespace esim::check
