// A differential-test scenario: one Clos topology, an optional
// approximation block, and an explicit, pre-materialized flow list.
//
// Scenarios deliberately carry *no* live randomness: the generators
// sample everything (dimensions, TCP variant, model recipe, flow
// endpoints/sizes/start times) from their own seeded generator ahead of
// time, so the simulation itself is a pure function of the scenario and
// the engine under test. That is what makes sequential and PDES runs
// comparable at digest granularity — a workload generator drawing from
// per-partition RNG streams would differ across partition counts by
// construction, not by bug.
//
// A leaf-spine is clusters = 1, cores = 0. With an approximation block,
// cluster 0 and the cores run at packet fidelity and every other cluster
// is an ApproxCluster (the paper's Figure 3 configuration) whose boundary
// models come from a deterministic recipe; drop sampling and the tier
// policy are fields of the block, so "the same run, threshold drops" is a
// scenario with sample_drops = false.
//
// Start times must be unique per source host (Scenario::validate enforces
// it): two same-instant open_flow calls on one host would make its port
// assignment depend on injection order, an ambiguity the determinism
// contract does not cover. The generators go further and draw globally
// unique start times; the crafted self-test scenarios instead align
// starts across *different* hosts on purpose, to manufacture FES ties.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "approx/micro_model.h"
#include "core/granularity.h"
#include "core/network.h"
#include "net/clos.h"

namespace esim::check {

/// One pre-planned TCP flow.
struct FlowSpec {
  net::HostId src = 0;
  net::HostId dst = 0;
  std::uint64_t bytes = 0;
  std::int64_t start_ns = 0;
  std::uint64_t flow_id = 0;

  bool operator==(const FlowSpec&) const = default;
};

/// TCP stack variant exercised by a scenario.
enum class TcpVariant : std::uint8_t { NewReno = 0, DelayedAck = 1, Dctcp = 2 };

const char* tcp_variant_name(TcpVariant v);

/// Longest scenario horizon, 2^62 ns (~146 years). SimTime adds plain
/// int64 nanoseconds, so bounding every in-run time here keeps the sum of
/// any two of them — a timer armed near the horizon, say — inside int64.
inline constexpr std::int64_t kMaxDurationNs = std::int64_t{1} << 62;

/// PDES lookahead of every harness run: the links' 1 us propagation.
inline constexpr std::int64_t kLookaheadNs = 1'000;

/// A complete, self-describing differential-test input.
struct Scenario {
  /// Every cluster but cluster 0 runs as an ApproxCluster built from this
  /// recipe: seeded random boundary models plus the ApproxCluster knobs.
  struct Approximation {
    /// Weight-initialisation stream for the boundary models (ingress uses
    /// model_seed, egress model_seed + 7).
    std::uint64_t model_seed = 1;
    /// Boundary-model architecture. The fuzz corpus keeps the tiny
    /// default (speed); bench_granularity scales it up so per-packet
    /// inference carries production-like weight in its tier comparisons.
    std::uint32_t model_hidden = 8;
    std::uint32_t model_layers = 1;
    /// Drop-head bias: sigmoid(drop_bias) sets the baseline drop rate for
    /// sampled drops; values near 0 make threshold drops
    /// feature-dependent.
    double drop_bias = -2.0;
    /// Latency normalization: predictions distribute around this mean.
    double latency_mean_us = 8.0;
    double latency_std = 0.3;

    /// Sampled drops draw from each cluster's private RNG stream; threshold
    /// drops (p > 0.5) consume no randomness.
    bool sample_drops = false;
    double min_latency_us = 5.0;
    double max_port_backlog_us = 40.0;

    /// Adaptive multi-granularity (DESIGN.md §12): every approximated
    /// cluster runs ClusterTierPolicy::Adaptive with the knobs below, and
    /// a run without a caller-supplied fidelity sink attaches an internal
    /// one (congestion tracking only) — the controller needs its signal.
    bool adaptive_tiers = false;
    std::uint32_t min_dwell_windows = 2;
    /// Pinned tier when adaptive_tiers is false.
    core::ClusterTier fixed_tier = core::ClusterTier::Ml;
    /// Congestion-classification thresholds for the internal sink
    /// (fractions of aggregate boundary capacity; small scenarios need far
    /// lower cut-offs than the FidelityConfig defaults).
    double quiescent_util = 0.02;
    double congested_util = 0.5;
    double congested_drop_rate = 0.02;
    double classify_ewma_alpha = 0.3;

    bool operator==(const Approximation&) const = default;

    /// Deterministic boundary model: seeded random trunk, drop-head bias
    /// pinned to drop_bias, latency normalization from the fields above.
    approx::MicroModel make_model(std::uint64_t seed_offset) const;
  };

  std::uint64_t seed = 1;  ///< engine seed (components fork from it)
  std::uint32_t clusters = 1;
  std::uint32_t tors = 2;    ///< ToRs per cluster
  std::uint32_t spines = 2;  ///< aggregation switches per cluster
  std::uint32_t hosts_per_tor = 2;
  std::uint32_t cores = 0;
  /// Fabric queue capacity; small values provoke drops.
  std::uint32_t queue_bytes = 150'000;
  /// ECN marking threshold (0 = off; set for Dctcp scenarios).
  std::uint32_t ecn_threshold = 0;
  TcpVariant tcp = TcpVariant::NewReno;
  std::int64_t duration_ns = 2'000'000;
  /// Per-flow 5-tuple ECMP (true, the default) vs host-pair ECMP (false):
  /// see core::NetworkConfig::ecmp_port_sensitive. Memo scenarios disable
  /// it so repeated phases are path-identical despite fresh ephemeral
  /// ports.
  bool ecmp_port_sensitive = true;
  std::optional<Approximation> approx;
  std::vector<FlowSpec> flows;

  bool operator==(const Scenario&) const = default;

  /// Host count; fits 32 bits once validate() has passed.
  std::uint32_t total_hosts() const { return clusters * tors * hosts_per_tor; }

  /// The Clos topology this scenario runs on.
  net::ClosSpec clos() const;

  /// Link/TCP parameters for the builders.
  core::NetworkConfig network_config() const;

  /// Hybrid builder config (requires the approximation block).
  core::HybridConfig hybrid_config() const;

  /// Short human-readable summary, e.g. "4x2 spines, 8 hosts, 12 flows,
  /// dctcp, 3ms".
  std::string summary() const;

  /// Replayable config-file form (line-oriented key=value, '#' comments)
  /// of a leaf-spine without an approximation block; throws
  /// std::invalid_argument for any other scenario (hybrid corpora
  /// reproduce from their generator seed).
  std::string serialize() const;

  /// Parses serialize() output; throws std::invalid_argument naming the
  /// key on malformed input (a value with a sign, or one that does not
  /// fit its field). Round-trips exactly.
  static Scenario parse(const std::string& text);

  /// Throws std::invalid_argument when dimensions or the flow list are
  /// inconsistent: validate_shape() then validate_flows().
  void validate() const;

  /// The checks that do not read the flow list: host or switch counts
  /// past 32 bits, a horizon outside (0, kMaxDurationNs], a queue too
  /// small for one packet, approximation knobs the builders would reject.
  /// O(1).
  void validate_shape() const;

  /// The flow scan: out-of-range endpoints, src==dst, zero bytes,
  /// duplicate flow ids, duplicate per-host start times, flows past the
  /// horizon. O(flows log flows); a caller that injects flows derived
  /// from a smaller description (memo's phase pattern) checks that
  /// instead. Assumes validate_shape() has passed.
  void validate_flows() const;
};

/// File helpers used by the CLI and tests.
void save_scenario(const Scenario& sc, const std::string& path);
Scenario load_scenario(const std::string& path);

}  // namespace esim::check
