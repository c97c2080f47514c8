// GranularityController: the actuator of the adaptive multi-granularity
// direction (DESIGN.md §12). Rides the ApproxCluster macro-classifier
// timer, reads the fidelity observatory's congestion classification
// (DESIGN.md §11 — the runtime signal PR landed one layer below), and
// executes demote/promote transitions with hysteresis:
//
//   Quiescent  -> Fluid   (demote: max-min rate model, cheapest)
//   Nominal    -> Ml      (the paper's trained black box)
//   Congested  -> Packet  (promote: queue-model fidelity where ML drift
//                          would be most expensive)
//
// Determinism: the controller's only inputs are the probe's windowed
// EWMAs — functions of the packets admitted to this cluster, which the
// determinism contract already makes engine-invariant — and the macro
// timer fires at identical virtual times in sequential and PDES runs
// (a cluster lives inside exactly one partition). Transitions therefore
// happen at identical virtual times on every engine, which is what the
// digest transition lane asserts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cluster_backend.h"
#include "telemetry/fidelity.h"

namespace esim::telemetry {
class Counter;
class Gauge;
class Registry;
}

namespace esim::core {

/// One executed tier switch, in virtual time. Folded into the digest's
/// engine-invariant transition lane and exported via ApproxCluster.
struct TierTransition {
  std::int64_t t_ns = 0;
  ClusterTier from = ClusterTier::Ml;
  ClusterTier to = ClusterTier::Ml;

  bool operator==(const TierTransition&) const = default;
};

/// Per-cluster transition state machine. Owned by ApproxCluster in
/// adaptive mode; the cluster calls on_macro_window() once per macro
/// tick, after advancing the macro model and the probe.
class GranularityController {
 public:
  /// `probe` supplies the congestion classification and must outlive the
  /// controller. `registry` may be null (telemetry off).
  GranularityController(const ClusterTierPolicy& policy,
                        std::uint32_t cluster,
                        const telemetry::ClusterFidelityProbe* probe,
                        telemetry::Registry* registry);

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

  /// Advances the dwell clock and, when the classification demands a
  /// different tier and the min-dwell hysteresis allows it, executes the
  /// transition. Returns the new tier when one fired at this boundary.
  std::optional<ClusterTier> on_macro_window(std::int64_t now_ns);

  /// Every executed transition, in virtual-time order.
  const std::vector<TierTransition>& transitions() const { return trace_; }

 private:
  ClusterTierPolicy policy_;
  const telemetry::ClusterFidelityProbe* probe_;
  ClusterTier tier_;
  std::uint32_t dwell_windows_ = 0;
  std::vector<TierTransition> trace_;
  telemetry::Gauge* g_tier_ = nullptr;
  telemetry::Counter* m_transitions_ = nullptr;        // per cluster
  telemetry::Counter* m_transitions_total_ = nullptr;  // all clusters
};

}  // namespace esim::core
