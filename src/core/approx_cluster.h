// ApproxCluster: the drop-in replacement for a cluster's switching fabric
// (the paper's black box of Figure 3).
//
// It keeps exactly the boundary contract of the real fabric:
//   * hosts inside the cluster transmit into it through their normal
//     uplink Links (they run unmodified TCP stacks — paper §5);
//   * core switches transmit into it through normal Links where the real
//     ToR/Agg layers used to be;
//   * for every packet it consults the macro state classifier and the
//     direction's micro model, then either drops the packet or delivers
//     it to the far side (the path-replayed core switch, or the
//     destination host) after the predicted latency, serialized per
//     output port to resolve impossible schedules (paper §4.2).
//
// Everything between those edges — ToR/Agg queues, links, forwarding —
// schedules no events at all, which is where the speedup of Figure 5
// comes from.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "approx/features.h"
#include "approx/macro_model.h"
#include "approx/micro_model.h"
#include "core/cluster_backend.h"
#include "core/conflict.h"
#include "net/clos.h"
#include "net/link.h"
#include "net/switch.h"
#include "sim/component.h"
#include "tcp/host.h"

namespace esim::telemetry {
class ClusterFidelityProbe;
class Counter;
class FidelitySink;
class Histogram;
}

namespace esim::core {

class GranularityController;
struct TierTransition;

/// One approximated cluster fabric.
class ApproxCluster : public sim::Component, public net::PacketHandler {
 public:
  struct Config {
    net::ClosSpec spec;
    std::uint32_t cluster = 1;
    /// Draw drops from Bernoulli(p) (true, default) or threshold p > 0.5.
    bool sample_drops = true;
    /// Floor on predicted latency (a fabric traversal is never faster
    /// than its unloaded store-and-forward minimum).
    double min_latency_s = 2e-6;
    /// Line rate of the emulated output ports (for conflict resolution).
    double port_bandwidth_bps = 10e9;
    /// Maximum queueing delay an emulated port may impose before the
    /// packet is dropped instead (the virtual analogue of the real
    /// port's drop-tail queue; default = 150 KB at 10 Gbps).
    sim::SimTime max_port_backlog = sim::SimTime::from_us(120);
    /// Route predictions through the naive Tensor reference path instead
    /// of the fused InferenceSession. A/B hook for bench_inference and
    /// the bit-identity contract (the two paths produce identical
    /// predictions); production keeps the session.
    bool reference_inference = false;
    /// Macro classifier parameters.
    approx::MacroClassifier::Config macro;
    /// Fidelity-tier policy (DESIGN.md §12). Fixed/Ml (the default) is
    /// the legacy behaviour; Fixed/{Packet,Fluid} pins the cluster to
    /// another tier; Adaptive lets a GranularityController demote and
    /// promote the tier at macro-window boundaries from the fidelity
    /// observatory's congestion classification — adaptive mode therefore
    /// requires `fidelity` to be set and enabled.
    ClusterTierPolicy tier;
    /// Fidelity observatory sink (DESIGN.md §11), shared by every cluster
    /// of a run; not owned. Non-null with an enabled config attaches a
    /// ClusterFidelityProbe: shadow-sampled reference comparisons plus
    /// windowed congestion telemetry. Pure observation — a run is
    /// bit-identical with this set or null.
    telemetry::FidelitySink* fidelity = nullptr;
  };

  /// Outcome counters, exposed for experiments and tests.
  struct Stats {
    std::uint64_t egress_packets = 0;
    std::uint64_t ingress_packets = 0;
    std::uint64_t intra_packets = 0;
    std::uint64_t predicted_drops = 0;
    std::uint64_t conflicts_resolved = 0;
    /// Drops from emulated-port backlog overflow (virtual drop-tail).
    std::uint64_t backlog_drops = 0;
    /// Boundary packets decided by each tier (indexed by ClusterTier).
    std::uint64_t tier_packets[kClusterTierCount] = {};
    /// Executed tier transitions (adaptive mode).
    std::uint64_t tier_transitions = 0;
  };

  /// Copies the trained models (each cluster needs private hidden state).
  ApproxCluster(sim::Simulator& sim, std::string name, const Config& config,
                const approx::MicroModel& ingress_model,
                const approx::MicroModel& egress_model);
  ~ApproxCluster() override;  // out of line: probe_ is incomplete here

  /// Wires the core switch that egress packets choosing core `index`
  /// should be injected into. All cores must be attached before running.
  void attach_core(std::uint32_t index, net::Switch* core_switch);

  /// Routes egress deliveries to core `index` through a cross-partition
  /// scheduler (the core lives in another PDES partition). The engine's
  /// lookahead must be <= the configured min_latency_s, which lower-
  /// bounds every egress delivery delay.
  void set_core_remote(std::uint32_t index, net::RemoteScheduler remote);

  /// Wires a host of this cluster (ingress deliveries go to it).
  void attach_host(net::HostId id, tcp::Host* host);

  /// Starts the periodic macro-state window timer.
  void start();

  /// Packets arrive here from host uplinks and from core switch links.
  void handle_packet(net::Packet pkt) override;

  /// Current macro state.
  approx::MacroState macro_state() const { return macro_.state(); }

  /// Does nothing: every packet is decided at admission, so there is no
  /// queue to flush. Kept only because benchmark/workloads.cc calls it.
  void flush_batch() {}

  /// Closes the probe's partial fidelity window at the current virtual
  /// time (end-of-run flush; no-op when fidelity is off or the window is
  /// empty).
  void finalize_fidelity();

  /// The attached fidelity probe; null when the observatory is off.
  telemetry::ClusterFidelityProbe* fidelity_probe() const {
    return probe_.get();
  }

  /// The fidelity tier currently deciding boundary packets.
  ClusterTier tier() const { return tier_; }

  /// The cluster index this component replaces.
  std::uint32_t cluster_id() const { return config_.cluster; }

  /// Executed tier transitions in virtual-time order (empty in fixed
  /// mode). Fold into StateDigest::on_tier_transition after the run.
  const std::vector<TierTransition>& tier_trace() const;

  const Stats& stats() const { return stats_; }

 private:
  /// A boundary packet at admission: its features were extracted and its
  /// drop draw consumed before any tier decides it.
  struct Admission {
    net::Packet pkt;
    sim::SimTime arrival;
    double drop_draw = 0.0;  ///< rng().uniform(), sample_drops only
    bool egress = false;
    std::uint32_t dst_cluster = 0;
  };

  void deliver_egress(net::Packet pkt, sim::SimTime desired);
  void deliver_ingress(net::Packet pkt, sim::SimTime desired);
  /// Common tail of every tier: clamp the latency floor, feed the macro
  /// model and the probe, count under `tier`, and deliver (or drop).
  void apply_decision(Admission&& p, ClusterTier tier, TierDecision decision,
                      std::span<const double> features);
  /// The tier deciding a packet admitted at `arrival`. Normally tier_;
  /// a packet arriving at EXACTLY the instant of the latest transition
  /// is decided by the pre-transition tier regardless of whether it
  /// popped before or after the macro timer — under PDES a remote-
  /// injected arrival can tie with the local timer event with engine-
  /// dependent order, and this rule makes the outcome order-blind.
  ClusterTier tier_for(sim::SimTime arrival) const {
    return arrival.ns() == transition_at_ns_ ? pre_transition_tier_ : tier_;
  }
  ClusterBackend& backend_for(ClusterTier tier);
  ClusterBackend& active_backend() { return backend_for(tier_); }
  bool decide_drop(double probability, double draw) const;
  /// Shadow comparison for one sampled packet: reference inference on
  /// the path production does NOT use, plus the queue-model ground
  /// truth peeked (read-only) from the destination port. Runs before
  /// the production delivery reserves the port and mutates nothing the
  /// simulation reads.
  void shadow_evaluate(const Admission& p, std::span<const double> features,
                       double model_latency, bool model_drop);

  Config config_;
  approx::MicroModel ingress_model_;
  approx::MicroModel egress_model_;
  approx::FeatureExtractor ingress_features_;
  approx::FeatureExtractor egress_features_;
  approx::MacroClassifier macro_;
  std::vector<net::Switch*> cores_;
  std::vector<net::RemoteScheduler> core_remotes_;  // empty fn = local
  std::vector<tcp::Host*> hosts_;              // by offset within cluster
  std::vector<DeliverySerializer> core_ports_;  // per core
  std::vector<DeliverySerializer> host_ports_;  // per cluster host offset
  Stats stats_;
  // Fidelity tiers (DESIGN.md §12). tier_ is the runtime state; the
  // Ml/Packet backends always exist, the fluid backend only when the
  // policy can reach it, the controller only in adaptive mode.
  ClusterTier tier_ = ClusterTier::Ml;
  ClusterTier pre_transition_tier_ = ClusterTier::Ml;
  std::int64_t transition_at_ns_ = -1;  // latest executed transition
  std::unique_ptr<MlTierBackend> ml_backend_;
  std::unique_ptr<PacketTierBackend> packet_backend_;
  std::unique_ptr<FluidClusterBackend> fluid_backend_;
  std::unique_ptr<GranularityController> controller_;
  // Fidelity observatory probe; null unless Config::fidelity is enabled.
  std::unique_ptr<telemetry::ClusterFidelityProbe> probe_;
  // Aggregate approx.* series; outcome totals are published by a
  // registry flusher (pull), only the per-inference series are pushed.
  // Null when telemetry is off.
  telemetry::Counter* m_inferences_ = nullptr;
  telemetry::Counter* m_macro_transitions_ = nullptr;
  telemetry::Histogram* m_inference_ns_ = nullptr;
};

}  // namespace esim::core
