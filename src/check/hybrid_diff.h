// Differential checking for the hybrid (approx-cluster) simulator, with
// and without cross-packet batched inference (DESIGN.md §8).
//
// Two equivalence relations matter here, and they need different drop
// modes because component RNG streams are forked from each partition's
// root generator in creation order:
//
//   A. Batching on vs off on the SAME engine (sequential): component
//      creation order — and therefore every cluster's RNG stream — is
//      identical, so this comparison runs with sampled drops. Digest
//      identity proves the batched path consumes per-packet drop draws
//      at admission in arrival order, exactly like the unbatched path
//      (the RNG draw-order contract of ApproxCluster::decide_drop).
//
//   B. Sequential vs PDES with batching active on BOTH: cluster
//      components live on different partitions and fork different
//      streams, so sampled drops would diverge by construction, not by
//      bug. This comparison runs with threshold drops (p > 0.5), which
//      consume no randomness; it proves N>1 coalescing respects the
//      shrunken cluster->core lookahead horizon across the PDES cut.
//
// Both comparisons use Digest::engine_invariant_equal: the batched mode
// schedules flush timers the unbatched mode does not, so raw event
// counts (and the order lane) legitimately differ while packet, flow,
// and final lanes must not.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "approx/micro_model.h"
#include "check/digest.h"
#include "check/scenario.h"
#include "core/granularity.h"
#include "core/network.h"
#include "telemetry/fidelity.h"

namespace esim::check {

/// A self-contained hybrid differential-test input: topology, approx
/// knobs, a deterministic model recipe, and a pre-materialized flow
/// list. Like check::Scenario, it carries no live randomness — a
/// HybridScenario is a pure function of the fuzz seed that produced it.
struct HybridScenario {
  std::uint64_t seed = 5;  ///< engine seed (components fork from it)
  std::uint32_t clusters = 3;
  std::uint32_t tors_per_cluster = 2;
  std::uint32_t aggs_per_cluster = 2;
  std::uint32_t hosts_per_tor = 2;
  std::uint32_t cores = 2;

  /// Weight-initialisation stream for the boundary models (ingress uses
  /// model_seed, egress model_seed + 7).
  std::uint64_t model_seed = 1;
  /// Boundary-model architecture. The fuzz corpus keeps the tiny default
  /// (speed); bench_granularity scales it up so per-packet inference
  /// carries production-like weight in its tier comparisons.
  std::uint32_t model_hidden = 8;
  std::uint32_t model_layers = 1;
  /// Drop-head bias: sigmoid(drop_bias) sets the baseline drop rate for
  /// sampled mode; values near 0 make threshold drops feature-dependent.
  double drop_bias = -2.0;
  /// Latency normalization: predictions distribute around this mean.
  double latency_mean_us = 8.0;
  double latency_std = 0.3;

  bool sample_drops = false;
  double min_latency_us = 5.0;
  double max_port_backlog_us = 40.0;
  std::size_t batch_max = 8;
  std::int64_t batch_window_ns = 3'000;
  std::int64_t lookahead_ns = 1'000;

  /// Adaptive multi-granularity (DESIGN.md §12): when true, every
  /// approximated cluster runs ClusterTierPolicy::Adaptive with the
  /// knobs below. run_hybrid then attaches an internal fidelity sink
  /// (congestion tracking only, shadow sampling off) when the caller
  /// passes none — the controller cannot run without its signal.
  bool adaptive_tiers = false;
  std::uint32_t min_dwell_windows = 2;
  /// Pinned tier when adaptive_tiers is false (default Ml = the legacy
  /// path; Packet/Fluid give the bench fixed-tier comparison points).
  core::ClusterTier fixed_tier = core::ClusterTier::Ml;
  /// Congestion-classification thresholds handed to the internal sink
  /// (fractions of aggregate boundary capacity; small scenarios need
  /// far lower cut-offs than the FidelityConfig defaults).
  double quiescent_util = 0.02;
  double congested_util = 0.5;
  double congested_drop_rate = 0.02;
  double classify_ewma_alpha = 0.3;

  std::int64_t duration_ns = 2'500'000;
  std::vector<FlowSpec> flows;

  std::uint32_t total_hosts() const {
    return clusters * tors_per_cluster * hosts_per_tor;
  }

  /// Builder config; `batching` toggles the coalesced prediction queue
  /// (off = batch_max 1, the legacy per-packet path).
  core::HybridConfig hybrid_config(bool batching) const;

  /// Deterministic boundary model: seeded random trunk, drop-head bias
  /// pinned to drop_bias, latency normalization from the fields above.
  approx::MicroModel make_model(std::uint64_t seed_offset) const;

  /// Throws std::invalid_argument on inconsistent dimensions, flow
  /// endpoints, duplicate start times, or a batch window wider than
  /// min_latency_us - lookahead_ns allows.
  void validate() const;

  std::string summary() const;
};

/// Samples a valid hybrid scenario as a pure function of `scenario_seed`
/// (reproducible from the seed alone; no repro files needed).
HybridScenario random_hybrid_scenario(std::uint64_t scenario_seed);

/// Samples an adaptive-granularity scenario: quiescent-heavy traffic
/// (sparse early flows, a long silence) with one incast burst into an
/// approximated cluster, plus classification thresholds tuned so the
/// controller actually demotes to fluid and promotes back. Pure
/// function of `scenario_seed`.
HybridScenario random_granularity_scenario(std::uint64_t scenario_seed);

/// Executed tier transitions per cluster index, in virtual-time order.
using TierTraces = std::map<std::uint32_t, std::vector<core::TierTransition>>;

/// Runs the scenario to its horizon and digests the run. partitions == 0
/// selects the sequential Simulator{seed}; otherwise a ParallelEngine
/// with that many partitions (same seed, lookahead_ns). A non-null
/// `fidelity` sink attaches the observatory to every ApproxCluster (its
/// probes are finalized before returning); the digest-invariance
/// contract says the returned digest is bit-identical either way. With
/// adaptive_tiers, each cluster's transition trace is folded into the
/// digest tier lane and copied to `traces` when non-null.
Digest run_hybrid(const HybridScenario& sc, std::uint32_t partitions,
                  bool batching,
                  telemetry::FidelitySink* fidelity = nullptr,
                  TierTraces* traces = nullptr);

/// Runs both equivalence checks (A with sampled drops, B with threshold
/// drops at every partition count). Returns the empty string when all
/// digests agree, else a description of the first divergence. Every
/// digest computed is appended, in run order, to `digests_out` when
/// non-null (the corpus fingerprint).
std::string check_hybrid(const HybridScenario& sc,
                         const std::vector<std::uint32_t>& partitions,
                         std::vector<Digest>* digests_out = nullptr);

/// Fidelity digest-invariance check (DESIGN.md §11): runs the scenario
/// with the observatory off and on (sample_period 16, so boundary
/// traffic is actually shadowed) and requires FULL digest equality —
/// event counts, pop order, and every lane — sequentially (batched and
/// unbatched) and on each PDES partition count. Sampled drops are used
/// throughout: both sides of each comparison share one engine config,
/// so their component RNG streams coincide and any divergence means the
/// observatory perturbed the simulation. On success accumulates the
/// fidelity rows / shadow samples the instrumented runs produced into
/// the optional out-params and returns ""; else a description of the
/// first divergence. Every digest computed is appended, in run order, to
/// `digests_out` when non-null.
std::string check_fidelity(const HybridScenario& sc,
                           const std::vector<std::uint32_t>& partitions,
                           std::uint64_t* rows_out = nullptr,
                           std::uint64_t* shadow_out = nullptr,
                           std::vector<Digest>* digests_out = nullptr);

/// Adaptive-granularity equivalence (DESIGN.md §12). Forces
/// adaptive_tiers on and runs:
///   A. sequential, batching off vs on, sampled drops — the controller
///      plus the coalesced queue must preserve the draw-order contract;
///   B. sequential vs PDES at every partition count, threshold drops,
///      batching on — transitions must fire at identical virtual times
///      across engines (digest tier lane AND element-wise trace
///      comparison per cluster).
/// Accumulates the sequential run's executed transition count into
/// `transitions_out` (callers assert the corpus actually transitions) and
/// appends every digest computed, in run order, to `digests_out`.
/// Returns "" when everything agrees, else the first divergence.
std::string check_granularity(const HybridScenario& sc,
                              const std::vector<std::uint32_t>& partitions,
                              std::uint64_t* transitions_out = nullptr,
                              std::vector<Digest>* digests_out = nullptr);

}  // namespace esim::check
