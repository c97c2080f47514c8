// Flow-level (fluid) simulation baseline and online stepping engine.
//
// The paper positions ML-assisted packet simulation against the classic
// way to make big simulations tractable: give up packets entirely and
// model flows as fluids sharing link capacity (§2 "flow-level systems",
// §8 [Misra et al., Raiciu et al.]). This module implements that
// baseline faithfully so the accuracy/speed comparison can be run: flows
// traverse the same Clos topology (paths from the same deterministic
// ECMP replay), share links max-min fairly, and complete when their
// bytes drain. There are no packets, no TCP dynamics, no queues — which
// is precisely the fidelity it gives up.
//
// The engine is event-driven on arrivals and departures: whenever the
// active set changes, max-min rates are recomputed by progressive
// filling and the next completion time is derived analytically.
//
// Two driving modes share one core:
//   * offline — add_flow() everything up front, run() to completion
//     (the original baseline-comparison mode);
//   * online — interleave add_flow()/remove_flow() with advance_to(t)
//     so an outer discrete-event simulation can step the fluid model to
//     each packet arrival and read rate_of() for the current max-min
//     share (the `core::FluidClusterBackend` demotion tier).
// Both modes are deterministic: ties are broken by flow id, the active
// set preserves (arrival, id) admission order, and rates are recomputed
// lazily exactly once per active-set change.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "net/clos.h"
#include "sim/time.h"

namespace esim::flowsim {

/// Outcome of one fluid flow.
struct FlowResult {
  std::uint64_t id = 0;
  net::HostId src = 0;
  net::HostId dst = 0;
  std::uint64_t bytes = 0;
  sim::SimTime arrival;
  sim::SimTime completion;
  /// Flow completion time.
  sim::SimTime fct() const { return completion - arrival; }
};

/// Max-min fair fluid simulator over a Clos topology.
class FlowLevelSimulator {
 public:
  /// All links share one bandwidth (as in the packet-level experiments).
  FlowLevelSimulator(const net::ClosSpec& spec, double bandwidth_bps);

  /// Registers a flow. Offline: call before run(), arrivals may be in
  /// any order. Online: may be called between advance_to() steps; an
  /// arrival earlier than now() is clamped to now() (the fluid model
  /// cannot rewrite the past).
  void add_flow(std::uint64_t id, net::HostId src, net::HostId dst,
                std::uint64_t bytes, sim::SimTime arrival);

  /// Runs to completion of every registered flow. Leaves now() at the
  /// last completion instant.
  void run();

  /// Advances virtual time to `t`, admitting arrivals, draining bytes
  /// at the current max-min rates, and recording completions on the
  /// way. Monotonic: a target earlier than now() is a no-op. Arrivals
  /// due exactly at `t` are admitted and rated before returning, so
  /// rate_of() is immediately meaningful.
  void advance_to(sim::SimTime t);

  /// Withdraws a flow that has not completed (active or not yet
  /// arrived) without recording a FlowResult — the outer simulation
  /// decided the flow went idle or left the cluster. Returns false if
  /// no such flow is in play. Rates are recomputed on the next query.
  bool remove_flow(std::uint64_t id);

  /// Current max-min rate of an active flow in bits/sec; 0 if the flow
  /// is unknown, not yet arrived, removed, or already complete.
  double rate_of(std::uint64_t id);

  /// Number of flows currently draining (post-arrival, pre-completion).
  std::size_t active_flows() const { return active_.size(); }

  /// Current virtual time of the fluid model.
  sim::SimTime now() const { return sim::SimTime::from_seconds_f(now_s_); }

  /// Results, in completion order. Valid after run() / advance_to().
  const std::vector<FlowResult>& results() const { return results_; }

  /// Number of max-min rate recomputations performed (the "event count"
  /// of a fluid simulator). Exactly one per active-set change: arrival
  /// instants, completion instants, and effective removals.
  std::uint64_t rate_recomputations() const { return recomputations_; }

 private:
  struct PendingFlow {
    std::uint64_t id;
    net::HostId src, dst;
    std::uint64_t bytes_total;
    double remaining;
    bool removed = false;  // tombstone for remove_flow() before arrival
    sim::SimTime arrival;
    std::vector<std::uint32_t> links;  // directed link ids on the path
  };
  struct ArrivalOrder {
    // Min-heap by (arrival, id): deterministic admission order.
    bool operator()(const PendingFlow* a, const PendingFlow* b) const {
      if (a->arrival != b->arrival) return a->arrival > b->arrival;
      return a->id > b->id;
    }
  };

  std::vector<std::uint32_t> route(net::HostId src, net::HostId dst) const;
  /// Max-min rates of active_ into rates_ (progressive filling).
  void recompute_rates();
  void refresh_rates();
  /// Advances to `target_s`; when `stop_at_target` is false the target
  /// acts only as an upper bound and now() is left at the last event
  /// (run() semantics) instead of being pushed to the target.
  void step_until(double target_s, bool stop_at_target);

  net::ClosSpec spec_;
  double bandwidth_bps_;
  std::size_t link_count_ = 0;

  // Directed link id layout (dense):
  //   [0, H)            host -> ToR uplinks
  //   [H, 2H)           ToR -> host downlinks
  //   then ToR->Agg, Agg->ToR, Agg->Core, Core->Agg blocks.
  std::uint32_t uplink_id(net::HostId h) const;
  std::uint32_t downlink_id(net::HostId h) const;
  std::uint32_t tor_agg_id(std::uint32_t cluster, std::uint32_t tor,
                           std::uint32_t agg, bool up) const;
  std::uint32_t agg_core_id(std::uint32_t cluster, std::uint32_t agg,
                            std::uint32_t core, bool up) const;

  std::deque<PendingFlow> flows_;  // stable storage; heap/active point in
  std::priority_queue<PendingFlow*, std::vector<PendingFlow*>, ArrivalOrder>
      arrivals_;
  std::vector<PendingFlow*> active_;
  std::vector<double> rates_;  // aligned with active_
  bool rates_dirty_ = false;
  // Progressive-filling scratch, sized once per topology: per-link
  // residual capacity and unfrozen-flow count (valid only on links of the
  // current active set), and a bitmap of the links still carrying an
  // unfrozen flow.
  std::vector<double> capacity_;
  std::vector<std::uint32_t> load_;
  std::vector<std::uint64_t> loaded_;
  double now_s_ = 0.0;
  std::vector<FlowResult> results_;
  std::uint64_t recomputations_ = 0;
};

}  // namespace esim::flowsim
