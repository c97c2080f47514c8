// Differential execution: one scenario, several engines, digest compare,
// and first-divergence localization.
//
// The runner executes a Scenario under any EngineSpec (sequential
// Simulator, or PDES with N partitions), wiring a StateDigest into the
// engine, injecting the scenario's flow list, and reducing the run to a
// Digest. diff() compares two engines; on mismatch it bisects over the
// virtual-time horizon to the earliest end time at which the digests
// already differ, then reruns both sides with record capture to name the
// first divergent per-link packet event with context.
//
// Comparison relation:
//   * different engine configs  -> Digest::engine_invariant_equal
//     (packet/flow/final lanes; pop order is engine-specific)
//   * identical engine configs  -> full Digest equality, pop order
//     included (rerun determinism).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/digest.h"
#include "check/scenario.h"
#include "core/partitioner.h"
#include "sim/parallel.h"
#include "sim/time.h"

namespace esim::check {

/// Which engine to run a scenario under.
struct EngineSpec {
  /// 0 = sequential Simulator; >= 1 = ParallelEngine with this many
  /// partitions.
  std::uint32_t partitions = 0;
  /// Injected ordering bug: invert the FES same-time tie-break in every
  /// engine/partition of this run (see EventQueue::debug_set_invert_
  /// tiebreak). Used to prove the harness catches ordering regressions.
  bool invert_tiebreak = false;

  bool operator==(const EngineSpec&) const = default;

  std::string label() const;
};

/// Everything one engine run produced.
struct RunOutcome {
  Digest digest;
  std::uint64_t flows_completed = 0;
  /// Captured per-link packet logs (only when the runner asked for them).
  std::map<std::string, std::vector<PacketRecord>> records;
};

/// The first observable difference between two runs, localized to one
/// link's packet stream.
struct FirstDivergence {
  bool found = false;
  std::string link;        ///< link whose streams diverge earliest
  std::size_t index = 0;   ///< record index within that link's stream
  std::int64_t time_ns = 0;
  std::string base_record;   ///< "<end of stream>" when one side is short
  std::string other_record;
  std::vector<std::string> context;  ///< records preceding the divergence

  std::string to_string() const;
};

/// Result of one differential comparison.
struct DiffReport {
  bool equivalent = false;
  bool full_compare = false;  ///< identical specs: order lane included
  EngineSpec base;
  EngineSpec other;
  Digest base_digest;
  Digest other_digest;
  /// Bisected earliest horizon (ns) at which digests already differ; 0
  /// when equivalent or bisection disabled.
  std::int64_t divergence_window_ns = 0;
  FirstDivergence first;

  std::string to_string() const;
};

/// Schedules on `sim` every flow whose source host lives on partition `p`
/// (per `partition_of_host`), with its completion wired into `digest`.
/// Sequential runs pass all-zero ownership and p = 0.
void inject_flows(sim::Simulator& sim, const std::vector<FlowSpec>& flows,
                  const std::vector<tcp::Host*>& hosts,
                  const std::vector<std::uint32_t>& partition_of_host,
                  std::uint32_t p, StateDigest& digest);

/// Executes scenarios under engines and compares digests.
class DiffRunner {
 public:
  struct Options {
    /// PDES conservative lookahead; must be <= the 1us link propagation.
    sim::SimTime lookahead = sim::SimTime::from_us(1);
    /// PDES window mode. Defaults to per-pair so the gate exercises the
    /// scale-out path (per-pair lookahead + SPSC drains) by default.
    sim::ParallelEngine::WindowMode window_mode =
        sim::ParallelEngine::WindowMode::per_pair;
    /// Switch placement for partitioned builds.
    core::PlacementPolicy placement = core::PlacementPolicy::graph_cut;
    /// Bisect + capture on mismatch (diff only).
    bool localize = true;
    /// Bisection stops when the window is this tight.
    std::int64_t bisect_resolution_ns = 1000;
    /// Record-capture cap during localization reruns.
    std::size_t max_capture = 1 << 20;
  };

  DiffRunner() = default;
  explicit DiffRunner(const Options& options) : options_{options} {}

  /// Runs `scenario` under `engine` until `end` (<= scenario duration),
  /// returning the digest (and captured records when `capture`).
  RunOutcome run(const Scenario& scenario, const EngineSpec& engine,
                 sim::SimTime end, bool capture = false) const;

  /// Full-duration run.
  RunOutcome run(const Scenario& scenario, const EngineSpec& engine) const {
    return run(scenario, engine, sim::SimTime::from_ns(scenario.duration_ns));
  }

  /// Compares `base` and `other` on `scenario`; localizes on mismatch.
  DiffReport diff(const Scenario& scenario, const EngineSpec& base,
                  const EngineSpec& other) const;

  /// The standing gate: sequential vs PDES at each partition count, plus
  /// a rerun-determinism check of the widest PDES config against itself.
  /// Returns one report per comparison.
  std::vector<DiffReport> check_all(
      const Scenario& scenario,
      const std::vector<std::uint32_t>& partition_counts,
      bool inject_tiebreak_bug = false) const;

 private:
  Options options_;
};

}  // namespace esim::check
