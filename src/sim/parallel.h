// Conservative parallel discrete-event simulation (PDES).
//
// This reproduces the *mechanism* whose cost Figure 1 of the paper
// measures: the network is split into partitions, each with its own event
// queue and worker thread, synchronized with a window-barrier ("YAWNS")
// algorithm. Two window policies are supported (Config::window_mode):
//
//   * WindowMode::global — the paper-faithful baseline. Events in
//     [window_start, window_end) are causally independent across
//     partitions because every cross-partition interaction carries at
//     least `lookahead` (the minimum over ALL partition pairs), so
//     window_end = min(next event time over all partitions) + lookahead.
//     Every partition executes the same window; the slowest-coupled pair
//     throttles everyone.
//
//   * WindowMode::per_pair — the scale-out policy. Each ordered partition
//     pair (j, i) carries its own lookahead L[j][i] (the minimum delay of
//     any j->i link; "infinite" when no such link exists). The engine
//     closes L under composition — D = all-pairs shortest paths over the
//     L graph, so D[j][i] is the minimum total delay of ANY causal chain
//     j -> ... -> i, including chains through currently idle partitions
//     and round-trip cycles back to i itself — and each partition computes
//     its own horizon per round:
//         window_end[i] = min over j of (next_event_time[j] + D[j][i])
//     Safety: every event anywhere descends from some partition j's
//     currently pending events (times >= next_event_time[j]), and each
//     cross hop k->m on the way to i adds at least L[k][m]; so nothing
//     can arrive at i before window_end[i]. Loosely coupled partitions
//     advance past tightly coupled ones' horizon instead of marching in
//     lockstep (DESIGN.md §10 gives the full argument).
//
// Cross-partition messages go into plain vectors, one mailbox per
// (source, dest) pair. Only the source's worker appends to a mailbox, and
// only during a window; only the destination reads it, between windows.
// The round barrier orders the two, so a post is a push_back and
// drain_inbox() sorts each mailbox in place and merges the per-source
// streams (DESIGN.md §10).
//
// The paper ran OMNeT++'s MPI-based PDES across 1–4 physical machines. We
// have threads, not a cluster, so inter-machine messaging cost is *modeled*:
// each sync round pays a configurable overhead (base cost per round plus a
// per-cross-message cost), spun on the wall clock of the thread that runs
// the window step (Figure 1). With the overhead at zero, the default, the
// engine is a plain shared-memory PDES. DESIGN.md §1 documents this
// substitution.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace esim::telemetry {
class Counter;
class Gauge;
class Histogram;
class Registry;
}

namespace esim::sim {

/// A timestamped closure crossing a partition boundary.
struct CrossMessage {
  SimTime deliver_at;
  /// FES same-time priority key, preserved into the target partition's
  /// event queue (packet id for link deliveries; see event_queue.h).
  std::uint64_t key = 0;
  /// Position in its mailbox: the source's post order on this pair.
  std::uint64_t source_seq = 0;
  EventFn fn;
};

/// One partition of a parallel run: a full sequential Simulator plus one
/// mailbox per source partition for messages arriving from the others.
class Partition {
 public:
  /// Creates partition `index` of a run seeded with `seed`, receiving from
  /// up to `num_sources` source partitions.
  Partition(std::uint32_t index, std::uint64_t seed, std::uint32_t num_sources);

  /// This partition's index within the engine.
  std::uint32_t index() const { return index_; }

  /// The sequential engine that owns this partition's components.
  Simulator& sim() { return sim_; }

  /// Appends a message to the (source, this) mailbox. Only `source`'s
  /// worker posts there, during a window (ParallelEngine::send_cross), or
  /// the driving thread outside run_until; the round barrier keeps every
  /// post apart from every drain, so the mailbox needs no lock or atomic.
  void post(std::uint32_t source, SimTime deliver_at, std::uint64_t key,
            EventFn&& fn);

  /// Drains every mailbox into the local event queue in deterministic
  /// order — by (deliver time, source partition, post order) — by sorting
  /// each source's mailbox in place and merging the per-source streams.
  /// Returns the number of messages drained. Must be called only between
  /// windows (no concurrent post).
  std::size_t drain_inbox();

  /// Installs telemetry (all null when telemetry is off):
  /// `inbox_high_water` — the largest mailbox seen at any drain,
  /// `drained` — total messages drained, and per-source
  /// `pdes.pair.p<source>_p<this>.messages` counters that `registry`
  /// creates on a pair's first traffic.
  void set_telemetry(telemetry::Registry* registry,
                     telemetry::Gauge* inbox_high_water,
                     telemetry::Counter* drained);

 private:
  // Several sources append at once, each to its own mailbox: one cache
  // line apiece keeps them from sharing one.
  struct alignas(64) Mailbox {
    std::vector<CrossMessage> messages;
  };

  std::uint32_t index_;
  Simulator sim_;
  std::vector<Mailbox> mailboxes_;  // by source partition
  // Drain scratch, reused across rounds (no steady-state allocation):
  // the non-empty mailboxes in source order and their merge cursors.
  std::vector<std::vector<CrossMessage>*> drain_runs_;
  std::vector<std::size_t> drain_pos_;
  std::int64_t inbox_high_water_ = 0;

  telemetry::Registry* registry_ = nullptr;
  telemetry::Gauge* inbox_high_water_gauge_ = nullptr;
  telemetry::Counter* drained_ = nullptr;
  std::vector<telemetry::Counter*> pair_messages_;  // by source, lazily
};

/// Window-barrier conservative PDES engine.
class ParallelEngine {
 public:
  /// Window synchronization policy; see the file comment.
  enum class WindowMode : std::uint8_t {
    global,    ///< one window from the global minimum (paper-faithful)
    per_pair,  ///< per-partition horizons from per-pair lookahead
  };

  struct Config {
    /// Number of partitions (= worker threads).
    std::uint32_t num_partitions = 2;
    /// Minimum latency of any cross-partition interaction, and the default
    /// for every pair until set_pair_lookahead raises it. Correctness
    /// requires every cross-partition send to be delivered at least the
    /// pair's lookahead in the future; send_cross enforces it.
    SimTime lookahead = SimTime::from_us(1);
    /// Window policy. `global` reproduces the paper's YAWNS barrier;
    /// `per_pair` lets loosely coupled partitions run ahead. Each is
    /// faster on one workload (DESIGN.md §10): per_pair on the scaling
    /// bench's fat-tree from four partitions, global at two partitions
    /// there and on the adaptive Clos.
    WindowMode window_mode = WindowMode::global;
    /// Modeled inter-machine synchronization cost added once per sync
    /// round. Zero for shared-memory runs.
    double round_overhead_us = 0.0;
    /// Modeled cost per cross-partition message (serialization + wire),
    /// added per round multiplied by the number of messages that round.
    double per_message_overhead_us = 0.0;
    /// The run's seed, carried by every partition.
    std::uint64_t seed = 1;
  };

  /// Aggregate statistics of a run, for benchmarking.
  struct Stats {
    std::uint64_t sync_rounds = 0;
    /// Messages drained, each at the top of the round after its send.
    std::uint64_t cross_messages = 0;
    std::uint64_t events_executed = 0;
    double modeled_overhead_seconds = 0.0;  // wall time spent in the model
    /// Wall-clock seconds summed over all partitions spent at the two
    /// barriers of every round — the window barrier before a window
    /// (including the window step the last arrival runs) and the round
    /// barrier after it (always accounted; the scaling bench reports
    /// sync_wait_seconds / (num_partitions * wall) as the sync fraction).
    double sync_wait_seconds = 0.0;
  };

  explicit ParallelEngine(Config config);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Accessor for partition `i` (valid for the engine's lifetime).
  Partition& partition(std::uint32_t i) { return *partitions_[i]; }

  /// Number of partitions.
  std::uint32_t num_partitions() const {
    return static_cast<std::uint32_t>(partitions_.size());
  }

  /// The conservative lookahead this engine was configured with (the
  /// global minimum / per-pair default).
  SimTime lookahead() const { return config_.lookahead; }

  /// The lookahead of the ordered pair (from, to).
  SimTime pair_lookahead(std::uint32_t from, std::uint32_t to) const;

  /// Declares the minimum delay of any from->to interaction. Builders call
  /// this with the minimum propagation delay over the pair's actual links,
  /// which is >= the configured global lookahead; larger values widen the
  /// pair's windows under WindowMode::per_pair. Use `infinite_lookahead()`
  /// for pairs with no links at all (the pair then never constrains a
  /// window, and any send on it throws). Must not be called during
  /// run_until. Values below the configured global lookahead throw.
  void set_pair_lookahead(std::uint32_t from, std::uint32_t to, SimTime min_delay);

  /// Sentinel accepted by set_pair_lookahead for unconnected pairs.
  static constexpr SimTime infinite_lookahead() { return SimTime::max(); }

  /// Sends `fn` for execution in partition `to` at virtual time
  /// `deliver_at`. Must satisfy deliver_at >= sender's now + the pair's
  /// lookahead; violations throw (they would break conservative
  /// causality).
  void send_cross(std::uint32_t from, std::uint32_t to, SimTime deliver_at,
                  EventFn&& fn) {
    send_cross(from, to, deliver_at, 0, std::move(fn));
  }

  /// As above, carrying an FES same-time priority key into the target
  /// partition's event queue (packet id for link deliveries).
  void send_cross(std::uint32_t from, std::uint32_t to, SimTime deliver_at,
                  std::uint64_t key, EventFn&& fn);

  /// Runs all partitions to virtual time `end` using worker threads.
  /// Blocking; may be called repeatedly to extend a run.
  void run_until(SimTime end);

  /// Statistics accumulated across run_until calls.
  const Stats& stats() const { return stats_; }

  /// Installs a metrics registry (or nullptr to disable). Publishes the
  /// engine aggregates (`pdes.sync_rounds`, `.cross_messages`,
  /// `.events_executed`, `.modeled_overhead_us`) via a snapshot flusher, a
  /// log2 histogram of per-partition virtual-time advance per window
  /// (`pdes.window_advance_ns`), per-pair cross-message counters
  /// (`pdes.pair.p<from>_p<to>.messages`, created by the destination on
  /// first traffic), and per-partition engine metrics under `pdes.p<i>.*`
  /// (event accounting, inbox high-water, messages drained, wall
  /// nanoseconds spent at both barriers of each round). While a
  /// telemetry TraceSession is active it also emits one `pdes.window` span
  /// per partition per sync round plus a `pdes.sync_round` instant per
  /// round.
  /// Call before building components in the partitions.
  void set_telemetry(telemetry::Registry* registry);

  /// The installed registry, or nullptr.
  telemetry::Registry* telemetry() const { return telemetry_; }

 private:
  void spin_overhead(double microseconds);
  /// Rebuilds pair_reach_ns_ (the shortest-path closure of the pair
  /// lookahead graph) after set_pair_lookahead edits. Floyd–Warshall over
  /// at most 64x64 entries; runs once per run_until when dirty.
  void recompute_pair_reach();

  Config config_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  /// Row-major [from * P + to] minimum delay in ns; SimTime::max().ns()
  /// means "no such channel".
  std::vector<std::int64_t> pair_lookahead_ns_;
  /// Shortest-path closure of pair_lookahead_ns_ (paths of >= 1 hop, so
  /// the diagonal holds the shortest cycle, not 0). Drives per-pair
  /// windows; see the file comment.
  std::vector<std::int64_t> pair_reach_ns_;
  bool pair_reach_dirty_ = true;
  Stats stats_;
  std::uint64_t sync_wait_ns_total_ = 0;
  telemetry::Registry* telemetry_ = nullptr;
  std::vector<telemetry::Counter*> sync_wait_ns_;  ///< per partition
  telemetry::Histogram* window_advance_ = nullptr;
};

}  // namespace esim::sim
