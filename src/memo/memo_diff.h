// The memo diffcheck lane: replay equivalence between memoized and
// unmemoized execution (DESIGN.md §13).
//
// check_memo runs one periodic scenario under every requested engine as
// one check::Group per engine spec. The baseline is memo-off, digest-
// attached and chunked at phase boundaries; against it:
//   1. memo-on, chunked: FULL digest equality (order lane included) and
//      equal completion counts — a verified fast-forward is bit-invisible;
//   2. the unchunked reference run (check::run_scenario): full equality
//      sequential, engine-invariant under PDES (chunking only perturbs
//      drain-round seq assignment) — the chunked baseline is anchored to
//      the seed harness, not just to itself;
//   3. memo-on aggregate-only (no digest): final-state fingerprint equal
//      to the memo-off run's — the speedup mode lands on the same network
//      state. This run is not logged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "memo/memo_runner.h"
#include "workload/phases.h"

namespace esim::memo {

/// A scenario whose flow list is exactly pattern.expand(1).
struct PeriodicScenario {
  check::Scenario scenario;
  workload::PhasePattern pattern;
};

/// Derives a periodic scenario from `base` by folding its flow list into
/// one phase pattern repeated `phases` times: each base flow becomes a
/// pattern flow whose offset is its start time folded into the first half
/// of the period (bumped minimally to keep per-source offsets unique).
/// The scenario's duration becomes the phase span and, when
/// `host_pair_ecmp`, port-sensitive ECMP is turned off so repeated phases
/// are path-identical despite fresh ephemeral ports.
PeriodicScenario make_periodic(const check::Scenario& base,
                               std::uint32_t phases, std::int64_t period_ns,
                               bool host_pair_ecmp = true);

/// Runs the full memo equivalence check on `ps` under the sequential
/// engine plus a PDES engine per entry of `partition_counts`. Returns ""
/// on pass, else the failing comparisons. When `accumulate` is non-null
/// the memo-on runners' stats are added to it (the fuzz gate asserts the
/// corpus produced real hits); every digest-attached run's digest is
/// appended, in run order, to `digests_out` when non-null.
std::string check_memo(const PeriodicScenario& ps,
                       const std::vector<std::uint32_t>& partition_counts,
                       const MemoConfig& memo = {},
                       MemoStats* accumulate = nullptr,
                       std::vector<check::Digest>* digests_out = nullptr);

}  // namespace esim::memo
