// ApproxCluster: the drop-in replacement for a cluster's switching fabric
// (the paper's black box of Figure 3).
//
// It keeps exactly the boundary contract of the real fabric:
//   * hosts inside the cluster transmit into it through their normal
//     uplink Links (they run unmodified TCP stacks — paper §5);
//   * core switches transmit into it through normal Links where the real
//     ToR/Agg layers used to be;
//   * for every packet it decides {drop, latency} with one switch on its
//     fidelity tier (DESIGN.md §12) — on the Ml tier, the direction's
//     micro model fed the macro state classifier's state — then either
//     drops the packet or delivers it to the far side (the path-replayed
//     core switch, or the destination host) after that latency,
//     serialized per output port to resolve impossible schedules
//     (paper §4.2).
//
// Everything between those edges — ToR/Agg queues, links, forwarding —
// schedules no events at all, which is where the speedup of Figure 5
// comes from.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "approx/features.h"
#include "approx/macro_model.h"
#include "approx/micro_model.h"
#include "core/cluster_backend.h"
#include "core/conflict.h"
#include "core/granularity.h"
#include "net/clos.h"
#include "net/link.h"
#include "net/switch.h"
#include "sim/component.h"
#include "sim/random.h"
#include "tcp/host.h"

namespace esim::telemetry {
class Counter;
class Gauge;
class Histogram;
}

namespace esim::core {

/// One approximated cluster fabric.
class ApproxCluster : public sim::Component, public net::PacketHandler {
 public:
  struct Config {
    net::ClosSpec spec;
    std::uint32_t cluster = 1;
    /// Draw drops from Bernoulli(p) (true, default) or threshold p > 0.5.
    /// Sampled drops draw from a stream of the seed and `cluster` alone.
    bool sample_drops = true;
    /// Floor on predicted latency (a fabric traversal is never faster
    /// than its unloaded store-and-forward minimum).
    double min_latency_s = 2e-6;
    /// Line rate of the emulated output ports (for conflict resolution);
    /// the hybrid builder sets the fabric's.
    double port_bandwidth_bps = 10e9;
    /// Maximum queueing delay an emulated port may impose before the
    /// packet is dropped instead (the virtual analogue of the real
    /// port's drop-tail queue; default = 150 KB at 10 Gbps).
    sim::SimTime max_port_backlog = sim::SimTime::from_us(120);
    /// Macro classifier parameters.
    approx::MacroClassifier::Config macro;
    /// Fidelity-tier policy (DESIGN.md §12). Fixed/Ml (the default) is
    /// the legacy behaviour; Fixed/{Packet,Fluid} pins the cluster to
    /// another tier; Adaptive steps a GranularityController at
    /// macro-window boundaries with the fidelity observatory's congestion
    /// classification — adaptive mode therefore requires `fidelity` to
    /// be set and enabled.
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

  /// Does nothing: every packet is decided at admission, so there is no
  /// queue to flush. Kept only because benchmark/workloads.cc calls it.
  void flush_batch() {}

  /// Closes the probe's partial fidelity window at the current virtual
  /// time (end-of-run flush; no-op when fidelity is off or the window is
  /// empty).
  void finalize_fidelity();

  /// The fidelity tier currently deciding boundary packets.
  ClusterTier tier() const { return controller_.tier(); }

  /// The cluster index this component replaces.
  std::uint32_t cluster_id() const { return config_.cluster; }

  /// Executed tier transitions in virtual-time order (empty in fixed
  /// mode). Fold into StateDigest::on_tier_transition after the run.
  const std::vector<TierTransition>& tier_trace() const {
    return controller_.transitions();
  }

  const Stats& stats() const { return stats_; }

 private:
  /// A boundary packet at admission: its features were extracted and its
  /// drop draw consumed before any tier decides it.
  struct Admission {
    net::Packet pkt;
    sim::SimTime arrival;
    double drop_draw = 0.0;  ///< drop_rng_.uniform(), sample_drops only
    bool egress = false;
    /// Leaves through a core port (egress to another cluster), not a host
    /// port (ingress, or intra-cluster).
    bool to_core = false;
  };

  /// The tier deciding a packet admitted at `arrival`: the current one,
  /// except that a packet arriving at EXACTLY the instant of the latest
  /// transition is decided by the pre-transition tier regardless of
  /// whether it popped before or after the macro timer — under PDES a
  /// remote-injected arrival can tie with the local timer event with
  /// engine-dependent order, and this rule makes the outcome order-blind.
  ClusterTier tier_for(sim::SimTime arrival) const {
    const std::vector<TierTransition>& trace = controller_.transitions();
    return !trace.empty() && arrival.ns() == trace.back().t_ns
               ? trace.back().from
               : controller_.tier();
  }
  /// The Ml arm's prediction through the model's InferenceSession; timed
  /// when telemetry is on.
  approx::MicroModel::Prediction infer(bool egress,
                                       std::span<const double> features);
  bool decide_drop(double probability, double draw) const;
  /// Shadow comparison for one sampled Ml-tier packet: the model's
  /// naive reference path (predict_reference), plus the
  /// queue-model ground truth peeked (read-only) from the destination
  /// port. Runs before the production delivery reserves the port and
  /// mutates nothing the simulation reads. Packet- and Fluid-tier
  /// decisions are not the model's, so they are never shadowed.
  void shadow_evaluate(const Admission& p, std::span<const double> features,
                       double model_latency, bool model_drop);
  /// The core whose emulated port an egress packet's replayed path
  /// crosses.
  std::uint32_t core_index(const net::FlowKey& flow) const;
  /// The destination host's offset within this cluster (its emulated
  /// port).
  std::uint32_t host_offset(const net::FlowKey& flow) const {
    return flow.dst_host % config_.spec.hosts_per_cluster();
  }
  void deliver_egress(net::Packet pkt, sim::SimTime desired);
  void deliver_ingress(net::Packet pkt, sim::SimTime desired);
  /// The reservation tail of both deliveries: the grant on `port`, or
  /// nullopt after counting a backlog drop. Counts a conflict when the
  /// grant is later than `desired` and feeds the probe either way.
  std::optional<sim::SimTime> reserve(DeliverySerializer& port,
                                      sim::SimTime desired,
                                      std::uint32_t bytes);

  Config config_;
  sim::Rng drop_rng_;
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
  // Fidelity tiers (DESIGN.md §12). The controller holds the current
  // tier in every mode and is stepped only in adaptive mode; the fluid
  // rate model exists only when the policy can reach it.
  GranularityController controller_;
  std::optional<FluidClusterBackend> fluid_;
  // Fidelity observatory probe; null unless Config::fidelity is enabled.
  std::unique_ptr<telemetry::ClusterFidelityProbe> probe_;
  // Aggregate approx.* series; outcome totals are published by a
  // registry flusher (pull), only the per-inference series are pushed.
  // Null when telemetry is off; the transition counters are null too in
  // fixed mode.
  telemetry::Counter* m_inferences_ = nullptr;
  telemetry::Counter* m_macro_transitions_ = nullptr;
  telemetry::Histogram* m_inference_ns_ = nullptr;
  telemetry::Gauge* g_tier_ = nullptr;
  telemetry::Counter* m_tier_transitions_ = nullptr;        // this cluster
  telemetry::Counter* m_tier_transitions_total_ = nullptr;  // all clusters
};

}  // namespace esim::core
