// Phase-memoizing execution: run a periodic scenario phase by phase,
// recording each phase's state delta on first occurrence and
// fast-forwarding over verified repeats (DESIGN.md §13).
//
// The runner builds its engine and network through check::run_scenario,
// the harness's one run path, and replaces that path's "inject, run to the
// horizon" with a phase loop chunked at workload phase boundaries
// (workload::PhasePattern). At run start each partition reserves one FES
// sequence per injection of every phase, in (phase, index) order; a
// phase's injections enter the FES under those sequences only when the
// phase runs live, so pops order exactly as if all were scheduled up
// front. Every phase leaves a rolling counter summary: a live phase
// hashes its component counter deltas, a replayed one leaves the summary
// its entry recorded. When memoization is enabled and the boundary is
// quiescent (every partition's FES empty), the runner computes the phase
// signature and either applies a verified cached delta (hit: jump virtual
// time past the phase, scheduling nothing) or records the phase while
// simulating it live (miss). Any verification failure — pattern mismatch,
// route divergence, stale-connection collision — is a near-miss, counted
// by reason; a predicted ephemeral-port wrap skips the lookup
// (port_wrap_skips). Either way the phase falls back to live simulation,
// never an unsound fast-forward. A run validates its pattern rather than
// sorting its flow list, and hashes its constants once; a replayed phase
// then costs O(pattern + its entry) in aggregate mode, and a live phase
// adds O(components) for its counter snapshots, however many phases and
// flows the run has.
//
// Comparison contract (verified by tools/esim_diffcheck memo):
//   * memo-on vs memo-off under the SAME engine spec, both chunked at
//     phase boundaries: FULL digest equality, order lane included.
//   * memo-off (chunked) vs check::DiffRunner (unchunked): full equality
//     sequential; engine-invariant lanes under PDES (chunking changes
//     drain-round seq assignment, not behaviour).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "check/diff_runner.h"
#include "check/digest.h"
#include "check/scenario.h"
#include "memo/phase_cache.h"
#include "workload/phases.h"

namespace esim::memo {

/// Memoization knobs for one MemoRunner. A phase signature carries the
/// previous phase's rolling counter summary (one phase of history).
struct MemoConfig {
  bool enabled = true;
  PhaseCache::Limits limits{};
  /// TEST-ONLY: collapse every phase signature to a constant, so *only*
  /// hit-time verification separates phases. Property tests use this to
  /// prove a signature collision can never cause a false hit.
  bool debug_collide_signatures = false;
};

/// Everything one memoized (or memo-off) run produced.
struct MemoRunOutcome {
  /// Full digest; meaningful only when the run was digest-attached.
  check::Digest digest;
  bool digest_attached = false;
  /// Engine-invariant end-of-run component fingerprint (always computed;
  /// the aggregate-only equivalence check).
  std::uint64_t final_state_fp = 0;
  std::uint64_t flows_completed = 0;
  /// Per partition, the FES sequence its next schedule would take at run
  /// end. A replayed phase advances it as if the phase ran, so memo-on
  /// equals memo-off.
  std::vector<std::uint64_t> fes_next_seq;
  MemoStats stats;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
};

/// Throws std::invalid_argument unless `pattern` can drive `scenario`:
/// a valid pattern (PhasePattern::validate) and scenario shape
/// (Scenario::validate_shape), every pattern endpoint below the host
/// count, and the phase span within the duration. For a flow list equal
/// to pattern.expand(1) these are exactly Scenario::validate_flows's
/// rules: ids are j + 1, per-host offsets are unique and below the period,
/// and every start falls inside the span. O(pattern).
void validate_periodic(const check::Scenario& scenario,
                       const workload::PhasePattern& pattern);

/// Executes periodic scenarios phase by phase with memoization.
class MemoRunner {
 public:
  explicit MemoRunner(const MemoConfig& memo)
      : memo_{memo}, cache_{memo.limits} {}

  /// Runs `scenario` (whose flow list must be pattern.expand(1), and
  /// which must pass validate_periodic — throws otherwise) under
  /// `engine`, chunked at pattern boundaries. Throws
  /// std::invalid_argument for a scenario with approximated clusters:
  /// ApproxCluster::start() re-arms its macro-window timer every window,
  /// so such a run always has a pending event, no phase boundary is ever
  /// quiescent, and memoization could never engage. The phase
  /// cache persists across run() calls on one MemoRunner, so a second run
  /// of the same scenario can hit from the first's recordings.
  ///
  /// `with_digest` picks the recording granularity: true attaches a
  /// StateDigest and records/replays full pop and packet streams (the
  /// equivalence-harness mode); false records aggregates only and leaves
  /// MemoRunOutcome::digest zero (the speedup mode).
  MemoRunOutcome run(const check::Scenario& scenario,
                     const workload::PhasePattern& pattern,
                     const check::EngineSpec& engine, bool with_digest);

  /// Accumulated cache accounting across all run() calls.
  const MemoStats& stats() const { return stats_; }
  const PhaseCache& cache() const { return cache_; }

 private:
  MemoConfig memo_;
  PhaseCache cache_;
  MemoStats stats_;
};

}  // namespace esim::memo
