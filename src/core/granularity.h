// GranularityController: the transition rule of the adaptive
// multi-granularity direction (DESIGN.md §12). A value type: the
// ApproxCluster steps it at every macro-classifier tick with the fidelity
// observatory's congestion classification (DESIGN.md §11), and it
// executes demote/promote transitions with hysteresis:
//
//   Quiescent  -> Fluid   (demote: max-min rate model, cheapest)
//   Nominal    -> Ml      (the paper's trained black box)
//   Congested  -> Packet  (promote: queue-model fidelity where ML drift
//                          would be most expensive)
//
// Determinism: the controller's only inputs are the probe's windowed
// classification — a function of the packets admitted to this cluster,
// which the determinism contract already makes engine-invariant — and the
// macro timer fires at identical virtual times in sequential and PDES
// runs (a cluster lives inside exactly one partition). Transitions
// therefore happen at identical virtual times on every engine, which is
// what the digest transition lane asserts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cluster_backend.h"
#include "telemetry/fidelity.h"

namespace esim::core {

/// One executed tier switch, in virtual time. Folded into the digest's
/// engine-invariant transition lane and exported via ApproxCluster.
struct TierTransition {
  std::int64_t t_ns = 0;
  ClusterTier from = ClusterTier::Ml;
  ClusterTier to = ClusterTier::Ml;

  bool operator==(const TierTransition&) const = default;
};

/// Per-cluster transition state machine: the policy, the current tier,
/// the dwell clock and the executed transitions.
class GranularityController {
 public:
  explicit GranularityController(const ClusterTierPolicy& policy)
      : policy_{policy}, tier_{policy.fixed_tier} {}

  /// The deterministic transition rule.
  static ClusterTier target_for(telemetry::CongestionState s) {
    switch (s) {
      case telemetry::CongestionState::Quiescent:
        return ClusterTier::Fluid;
      case telemetry::CongestionState::Congested:
        return ClusterTier::Packet;
      case telemetry::CongestionState::Nominal:
        break;
    }
    return ClusterTier::Ml;
  }

  ClusterTier tier() const { return tier_; }

  /// One macro-window boundary at `now_ns`, with the cluster classified
  /// `state`: advances the dwell clock and, when `state` demands a
  /// different tier and the min-dwell hysteresis allows it, executes the
  /// transition. Returns the new tier when one fired at this boundary.
  std::optional<ClusterTier> step(telemetry::CongestionState state,
                                  std::int64_t now_ns) {
    ++dwell_windows_;
    const ClusterTier target = target_for(state);
    if (target == tier_ || dwell_windows_ < policy_.min_dwell_windows) {
      return std::nullopt;
    }
    trace_.push_back(TierTransition{now_ns, tier_, target});
    tier_ = target;
    dwell_windows_ = 0;
    return tier_;
  }

  /// Every executed transition, in virtual-time order.
  const std::vector<TierTransition>& transitions() const { return trace_; }

 private:
  ClusterTierPolicy policy_;
  ClusterTier tier_;
  std::uint32_t dwell_windows_ = 0;
  std::vector<TierTransition> trace_;
};

}  // namespace esim::core
