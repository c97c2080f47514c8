// ClusterBackend: a cluster's fidelity tier as runtime state.
//
// The paper fixes one trade at build time: a cluster is either simulated
// at packet fidelity or replaced by the ML fabric model. This interface
// makes the trade per-cluster *runtime* state (DESIGN.md §12): the
// ApproxCluster boundary component keeps its external contract (packets
// in at host uplinks / core links, packets out after {drop, latency})
// and delegates the per-packet decision to whichever tier backend is
// currently active:
//
//   * Packet — passthrough at the unloaded fabric minimum; the emulated
//     DeliverySerializer ports downstream of the decision supply the
//     real queueing delay and drop-tail behaviour, so this is the
//     highest-fidelity queue-model tier (used when a cluster is
//     congested and ML drift would be most expensive).
//   * Ml — the trained micro-model path (the paper's black box): one
//     prediction per boundary packet, at its admission.
//   * Fluid — an online max-min fair rate model (flowsim stepped by
//     packet arrivals): latency = packet bits / current fair share of
//     the flow. No queues, no TCP dynamics, never drops — the honest
//     cheap tier for quiescent clusters.
//
// Determinism contract: admit() must be a pure function of (packet,
// arrival time, prior admissions into this backend) — no RNG beyond the
// pre-drawn `drop_draw` and no wall-clock — so sequential and PDES runs
// that admit the same boundary stream make identical decisions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "approx/micro_model.h"
#include "flowsim/flow_level.h"
#include "net/clos.h"
#include "net/packet.h"
#include "sim/time.h"

namespace esim::core {

/// Fidelity tiers, cheapest-last. Values are stable: they feed the
/// `granularity.c<k>.tier` gauge and the digest transition lane.
enum class ClusterTier : std::uint8_t { Packet = 0, Ml = 1, Fluid = 2 };
inline constexpr std::size_t kClusterTierCount = 3;

const char* to_string(ClusterTier t);

/// Per-cluster tier selection policy (ApproxCluster::Config::tier).
struct ClusterTierPolicy {
  enum class Mode : std::uint8_t {
    Fixed,     ///< stay on fixed_tier forever (default: Ml = legacy)
    Adaptive,  ///< GranularityController demotes/promotes at macro windows
  };
  Mode mode = Mode::Fixed;
  /// Fixed mode: the tier. Adaptive mode: the initial tier.
  ClusterTier fixed_tier = ClusterTier::Ml;
  /// Hysteresis: a transition fires only after the cluster has dwelt at
  /// least this many macro windows on its current tier.
  std::uint32_t min_dwell_windows = 4;
  /// Fluid tier: byte budget granted to a tracked flow (re-armed when it
  /// drains); large enough that a live flow holds its link share.
  std::uint64_t fluid_flow_bytes = 64ull << 20;
  /// Fluid tier: a tracked flow is withdrawn from the rate model after
  /// this many macro windows without a packet.
  std::uint32_t fluid_idle_windows = 2;

  bool adaptive() const { return mode == Mode::Adaptive; }
};

/// One boundary packet's traversal decision. The cluster clamps
/// latency_s to Config::min_latency_s before scheduling delivery.
struct TierDecision {
  bool drop = false;
  double latency_s = 0.0;
};

/// Everything a backend may consult for one admission. `features` is the
/// direction extractor's row (extracted by the cluster in every tier so
/// the EWMA state stays warm across transitions); `drop_draw` is the
/// pre-drawn uniform of the RNG draw-order contract — a backend that
/// drops must replay it, never draw fresh randomness.
struct AdmitContext {
  const net::Packet& pkt;
  sim::SimTime arrival;
  bool egress = false;
  std::span<const double> features;
  double drop_draw = 0.0;
};

/// One fidelity tier implementation behind the ApproxCluster boundary.
class ClusterBackend {
 public:
  virtual ~ClusterBackend() = default;

  virtual ClusterTier tier() const = 0;

  /// Decides {drop, latency} for one admitted boundary packet.
  virtual TierDecision admit(const AdmitContext& ctx) = 0;

  /// Housekeeping at every macro-window boundary while this backend is
  /// active (called before any tier transition at that boundary).
  virtual void on_macro_window(sim::SimTime now) { (void)now; }

  /// Called when the controller switches INTO this tier, after the
  /// previous tier drained (flush-before-switch). Backends reset any
  /// cross-period state here so a tier period is a pure function of the
  /// packets admitted during it.
  virtual void on_activated(sim::SimTime now) { (void)now; }
};

/// Packet tier: passthrough at the unloaded minimum. The emulated ports
/// downstream provide serialization, conflict resolution, and drop-tail
/// backlog drops, so the fabric model itself neither delays nor drops.
class PacketTierBackend final : public ClusterBackend {
 public:
  ClusterTier tier() const override { return ClusterTier::Packet; }
  TierDecision admit(const AdmitContext&) override {
    return TierDecision{/*drop=*/false, /*latency_s=*/0.0};
  }
};

/// Ml tier: the per-packet micro-model decision. Holds non-owning
/// pointers to the cluster's models, so the recurrent state lives with
/// the cluster and survives tier switches.
class MlTierBackend final : public ClusterBackend {
 public:
  MlTierBackend(approx::MicroModel* ingress, approx::MicroModel* egress,
                bool sample_drops, bool reference_inference)
      : ingress_{ingress},
        egress_{egress},
        sample_drops_{sample_drops},
        reference_{reference_inference} {}

  ClusterTier tier() const override { return ClusterTier::Ml; }
  TierDecision admit(const AdmitContext& ctx) override;

 private:
  approx::MicroModel* ingress_;
  approx::MicroModel* egress_;
  bool sample_drops_;
  bool reference_;
};

/// Fluid tier: an online max-min rate model over the cluster's own Clos
/// fabric, stepped to each packet arrival. Flows are tracked by exact
/// 4-tuple; a first packet registers the flow with a byte budget, and a
/// packet's latency is its serialization time at the flow's current fair
/// share (falling back to line rate when the model has no rate). Flows
/// idle for `idle_windows` macro windows are withdrawn at the window
/// boundary. Never drops — no queues, no TCP dynamics (DESIGN.md §12
/// states this limitation honestly).
///
/// Same-instant commutativity: unlike the Ml tier, this backend shares
/// ONE rate model between ingress and egress, and under PDES a
/// remote-injected ingress event can tie with a local event at the same
/// nanosecond with engine-dependent pop order. admit() therefore never
/// mutates the model: a packet reads its rate from the state flushed at
/// the last *instant advance*, and all mutations (flow creation, budget
/// re-arm, idle bookkeeping, window sweeps) are buffered and applied in
/// canonical key order when virtual time moves past the instant. Any
/// pop order of same-time admissions yields identical decisions and
/// identical model state.
class FluidClusterBackend final : public ClusterBackend {
 public:
  struct Config {
    net::ClosSpec spec;            ///< full topology (routes replay ECMP)
    double bandwidth_bps = 10e9;   ///< uniform link rate
    std::uint64_t flow_bytes = 64ull << 20;
    std::uint32_t idle_windows = 2;
    /// Macro window length; idle expiry sweeps run at multiples of this
    /// (applied lazily by whichever event first crosses the boundary).
    std::int64_t window_ns = 100'000;
  };

  explicit FluidClusterBackend(const Config& config);

  ClusterTier tier() const override { return ClusterTier::Fluid; }
  TierDecision admit(const AdmitContext& ctx) override;
  void on_macro_window(sim::SimTime now) override;
  void on_activated(sim::SimTime now) override;

  /// Flows currently tracked in the rate model, including touches of the
  /// current instant not yet flushed (tests/telemetry).
  std::size_t tracked_flows() const;
  /// The embedded stepping engine (read-only; tests).
  const flowsim::FlowLevelSimulator& model() const { return *model_; }

 private:
  struct Tracked {
    std::uint64_t fluid_id = 0;
    std::int64_t last_seen_ns = 0;  ///< last flushed touch
  };
  // Exact 4-tuple key: (src<<32|dst, sport<<16|dport). Flushes and
  // expiry sweeps iterate in ascending key order — a canonical order,
  // whatever the admission order that buffered them.
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  static Key key_of(const net::FlowKey& f) {
    return {static_cast<std::uint64_t>(f.src_host) << 32 | f.dst_host,
            static_cast<std::uint32_t>(f.src_port) << 16 | f.dst_port};
  }

  /// Advances the backend to instant `t_ns`: flushes the touches of the
  /// instant being left, runs the idle-expiry sweep at every window
  /// boundary crossed (boundaries <= t_ns), and steps the model. No-op
  /// when t_ns is the current instant — the first event at an instant
  /// does all the work, so tied events commute.
  void sync(std::int64_t t_ns);
  void flush_pending();

  Config config_;
  std::unique_ptr<flowsim::FlowLevelSimulator> model_;
  std::map<Key, Tracked> flows_;
  /// Touches in the current instant, in admission order, duplicates
  /// included; flush_pending() sorts and de-duplicates them by key.
  std::vector<std::pair<Key, net::FlowKey>> pending_;
  std::int64_t cur_instant_ns_ = 0;
  std::int64_t synced_boundary_ns_ = 0;
  std::uint64_t next_id_ = 1;  // never reused, even across reactivations
};

}  // namespace esim::core
