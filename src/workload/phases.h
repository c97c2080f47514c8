// Phase-boundary annotations for periodic workloads.
//
// ML-training traffic is phase-repetitive: every training step replays the
// same communication pattern (PAPERS.md, "Supercharging Packet-level
// Network Simulation of Large Model Training via Memoization and
// Fast-Forwarding"). A PhasePattern makes that structure explicit — one
// relative flow pattern, a period, a repetition count — so the phase
// memoization layer (src/memo) knows exactly where phase boundaries fall
// and which injections belong to which phase, instead of inferring
// periodicity from the flow list. Everything stays pre-materialized (no
// live randomness), matching the check::Scenario philosophy.
#pragma once

#include <cstdint>
#include <vector>

namespace esim::workload {

/// One flow of the repeating pattern, in phase-relative terms.
struct PhaseFlow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
  /// Start offset within the phase, in [0, period_ns).
  std::int64_t offset_ns = 0;

  bool operator==(const PhaseFlow&) const = default;
};

/// A periodic workload: `pattern` injected at every phase boundary
/// k * period_ns for k in [0, phases).
struct PhasePattern {
  std::int64_t period_ns = 1'000'000;
  std::uint32_t phases = 1;
  std::vector<PhaseFlow> pattern;

  bool operator==(const PhasePattern&) const = default;

  /// Virtual time spanned by all phases.
  std::int64_t total_duration_ns() const {
    return period_ns * static_cast<std::int64_t>(phases);
  }

  /// Start of phase `k` (also the end of phase k-1).
  std::int64_t boundary_ns(std::uint32_t k) const {
    return period_ns * static_cast<std::int64_t>(k);
  }

  /// One absolute flow injection produced by expand(). Flow ids are
  /// assigned phase-major — first_flow_id + phase * pattern.size() +
  /// index — so a flow's id minus its phase's base recovers its index in
  /// the pattern. The memo layer leans on exactly that arithmetic to remap
  /// a recorded phase's flow ids onto a later phase's.
  struct Injection {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t bytes = 0;
    std::int64_t start_ns = 0;
    std::uint64_t flow_id = 0;
    std::uint32_t phase = 0;
    std::uint32_t index_in_phase = 0;
  };

  /// Materializes every phase's injections in (phase, index) order.
  std::vector<Injection> expand(std::uint64_t first_flow_id = 1) const;

  /// Throws std::invalid_argument on inconsistencies: non-positive period
  /// or phase count, empty pattern, offsets outside [0, period), src ==
  /// dst, zero bytes, or two same-source flows sharing an offset (which
  /// would leave that host's port assignment order-dependent — the same
  /// rule check::Scenario::validate enforces).
  void validate() const;
};

}  // namespace esim::workload
