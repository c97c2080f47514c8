// Deterministic topology-aware partitioning of a Clos fabric.
//
// The paper's Figure 1 argument is that conservative PDES collapses when
// cross-partition links are dense: every crossing shrinks the safe window
// and adds a message per traversal. Placement is therefore the first-order
// lever — `rack % P` round-robin maximizes crossings on a Clos (it splits
// every cluster across every partition), while a cut-minimizing placement
// keeps whole clusters together so only the agg<->core fabric crosses.
//
// make_partition_plan builds the switch-level link multigraph (hosts ride
// with their ToR; host<->ToR links can therefore never cross) and runs a
// greedy Kernighan–Lin / Fiduccia–Mattheyses-style refinement:
//
//   1. Seed: switches are laid out in locality order (cluster 0's ToRs,
//      then its aggs, cluster 1's ..., then cores) and chunked into P
//      contiguous, weight-balanced blocks. Node weight models event load
//      (a ToR carries its hosts).
//   2. Refine: repeated deterministic passes move the single best
//      (gain, node id, target partition)-ordered node whose move reduces
//      the number of crossing links — or keeps it equal while strictly
//      improving balance — subject to a per-partition weight cap. Passes
//      stop when no admissible move remains.
//
// The result depends only on (spec, P, policy) — no RNG, no iteration
// over unordered containers — so every engine and every run of the same
// build sees the identical placement; the determinism gate
// (esim_diffcheck) relies on that.
#pragma once

#include <cstdint>
#include <vector>

#include "net/clos.h"

namespace esim::core {

/// Placement policy for partitioned builds.
enum class PlacementPolicy : std::uint8_t {
  /// Legacy rack-round-robin (`rack r -> partition r % P`), kept as the
  /// baseline the scaling bench compares against.
  round_robin,
  /// Greedy KL/FM-style cut minimization (the default).
  graph_cut,
};

/// A deterministic switch -> partition assignment plus its cut accounting.
struct PartitionPlan {
  std::uint32_t partitions = 0;
  /// Partition owning each switch, dense by SwitchId.
  std::vector<std::uint32_t> partition_of_switch;
  /// Directed fabric links whose endpoints land in different partitions.
  std::uint64_t cut_links = 0;
  /// All directed fabric links (ToR<->agg and agg<->core, both
  /// directions; host<->ToR links never cross and are not counted).
  std::uint64_t total_links = 0;

  /// Partition owning host `h` (its ToR's partition).
  std::uint32_t partition_of_host(const net::ClosSpec& spec,
                                  net::HostId h) const {
    return partition_of_switch[spec.tor_of_host(h)];
  }
};

/// Computes a partition plan for `spec` over `partitions` partitions.
/// Deterministic and engine-invariant: equal inputs give equal plans.
PartitionPlan make_partition_plan(const net::ClosSpec& spec,
                                  std::uint32_t partitions,
                                  PlacementPolicy policy);

/// Deterministically assigns `weights.size()` items to `partitions` bins,
/// balancing total weight (greedy: each item goes to the currently
/// lightest bin; ties to the lowest index). Used for island placements
/// (e.g. approximated clusters over partitions 1..P-1) where no links
/// exist between items so cut size is not at stake.
std::vector<std::uint32_t> assign_balanced(
    const std::vector<std::uint64_t>& weights, std::uint32_t partitions);

}  // namespace esim::core
