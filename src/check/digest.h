// Streaming state digests: the executable form of the determinism
// contract (DESIGN.md §9).
//
// A StateDigest observes one simulation run — sequential, PDES, or hybrid
// PDES — and reduces everything the determinism contract promises to four
// 64-bit lanes:
//
//   * order lane   — order-SENSITIVE chain over the engine's event pop
//                    stream (time + FES tie-break seq), one chain per
//                    partition, combined commutatively keyed by partition
//                    index. Comparable only between runs of the *same*
//                    engine configuration (it fingerprints scheduling, not
//                    network behaviour).
//   * packet lane  — per-link order-sensitive chains over every packet
//                    the link admitted (id, header, ECN, arrival time) or
//                    queue-dropped, in admission order, combined
//                    commutatively across links keyed by link name.
//                    Engine-INVARIANT: each link admits in one partition,
//                    in an order fixed by virtual time and packet id,
//                    however partitions interleave globally.
//   * flow lane    — commutative hash over per-flow completion records
//                    (flow id, endpoints, bytes, start, FCT). Engine-
//                    invariant.
//   * final lane   — canonical-order (sorted by component name) chain over
//                    end-of-run link/switch/host counters and residual
//                    queue state. Engine-invariant.
//
// Deliberately EXCLUDED from every lane: wall-clock time, telemetry
// state, PDES sync-round/overhead accounting, and RNG draws — none of
// them are part of the behavioural contract between engines.
//
// Hookup follows the telemetry null-pointer pattern: a run with no digest
// attached pays one branch per event and nothing per packet.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "sim/parallel.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace esim::check {

/// Order-sensitive streaming 64-bit hash (FNV-style multiply + mix).
class Hash64 {
 public:
  void absorb(std::uint64_t v) {
    h_ = sim::mix64(h_ * 0x100000001B3ULL ^ v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The reduced fingerprint of one run.
struct Digest {
  std::uint64_t order_lane = 0;
  std::uint64_t packet_lane = 0;
  std::uint64_t flow_lane = 0;
  std::uint64_t final_lane = 0;
  /// Tier-transition lane: per-cluster order-sensitive chains over the
  /// GranularityController's executed transitions (virtual time, from,
  /// to), combined commutatively keyed by cluster. Engine-INVARIANT:
  /// transitions fire at macro-window boundaries inside one partition,
  /// from inputs the other invariant lanes already pin down. Zero when
  /// no adaptive controller ran.
  std::uint64_t tier_lane = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t flows = 0;
  std::uint64_t transitions = 0;  ///< tier transitions folded in

  /// Full bitwise equality — meaningful only between runs of the same
  /// engine configuration (same kind, same partition count).
  bool operator==(const Digest&) const = default;

  /// Equality restricted to the engine-invariant lanes, the relation that
  /// must hold between sequential, PDES(1/2/4), and partitioned-hybrid
  /// runs of one scenario. Event counts differ across engines (each
  /// partition executes its own injection/bookkeeping events), so only
  /// behavioural lanes and packet/flow totals participate.
  bool engine_invariant_equal(const Digest& o) const {
    return packet_lane == o.packet_lane && flow_lane == o.flow_lane &&
           final_lane == o.final_lane && tier_lane == o.tier_lane &&
           packets == o.packets && drops == o.drops && flows == o.flows &&
           transitions == o.transitions;
  }

  /// "order=… packet=… flow=… final=… (events=… packets=… drops=… flows=…)"
  std::string to_string() const;
};

/// Order-sensitive fold of `digests`, in sequence, over every lane and
/// count (order lane included): one 64-bit fingerprint of a whole
/// corpus run, comparable across builds of the same corpus.
std::uint64_t corpus_fingerprint(const std::vector<Digest>& digests);

/// `fingerprint` as 16 lower-case hex digits.
std::string fingerprint_hex(std::uint64_t fingerprint);

/// One observed packet record, as absorbed into the packet lane. Kept
/// only when record capture is on (divergence localization).
struct PacketRecord {
  std::int64_t time_ns = 0;  ///< arrival time (transmit) or drop time
  std::uint64_t packet_id = 0;
  std::uint32_t src_host = 0;
  std::uint32_t dst_host = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack_seq = 0;
  std::uint32_t payload = 0;
  std::uint8_t flags = 0;  ///< TcpFlag bits | ecn<<3 | ece<<4
  bool dropped = false;

  bool operator==(const PacketRecord&) const = default;

  std::uint64_t hash() const;
  std::string to_string() const;
};

/// Builds the PacketRecord a LinkProbe would absorb for `pkt` observed at
/// `time_ns` (arrival time for transmits, drop time for drops). Public so
/// the phase-memoization recorder (src/memo) can log byte-identical
/// records from wrapped link observers.
PacketRecord make_packet_record(const net::Packet& pkt, std::int64_t time_ns,
                                bool dropped);

/// The final lane's component walk as a standalone fingerprint: counters
/// and residual queue state of every Link/Switch/Host in `sims`, absorbed
/// in canonical (name-sorted) order. Equal fingerprints mean equal
/// end-of-run network state regardless of how it was reached — the memo
/// layer's cheap equivalence check when no digest is attached.
std::uint64_t final_state_fingerprint(
    const std::vector<const sim::Simulator*>& sims);

/// Streaming observer wired into one run. Attach engines and links before
/// the run, feed flow completions during it, call finalize() after it.
/// Not copyable; must outlive the run it observes.
class StateDigest {
 public:
  StateDigest() = default;
  StateDigest(const StateDigest&) = delete;
  StateDigest& operator=(const StateDigest&) = delete;

  /// Keep per-link PacketRecord logs for divergence localization.
  /// Must be called before observe_links. Capture stops silently once
  /// `max_records` records have been kept across all links (the digest
  /// lanes keep absorbing regardless).
  void enable_capture(std::size_t max_records = 1 << 20);

  /// Hooks the event pop stream of a sequential engine (partition key 0).
  void attach(sim::Simulator& sim);

  /// Hooks every partition of a PDES engine (partition key = index) and
  /// observes all links already built inside the partitions.
  void attach(sim::ParallelEngine& engine);

  /// Installs probes on every Link component currently registered in
  /// `sim` (claims the links' on_transmit / on_drop observer slots) and
  /// remembers the simulator for final-state collection.
  void observe_links(sim::Simulator& sim);

  /// Thread-safe (PDES completions land on partition threads): absorbs a
  /// flow completion record into the flow lane.
  void on_flow_complete(std::uint64_t flow_id, std::uint32_t src,
                        std::uint32_t dst, std::uint64_t bytes,
                        sim::SimTime start, sim::SimTime end);

  /// Absorbs one executed tier transition of cluster `cluster` into the
  /// tier lane (chain per cluster, order-sensitive within the cluster).
  /// Call in each cluster's virtual-time order — the natural order of
  /// ApproxCluster::tier_trace(), folded in after the run stops. NOT
  /// thread-safe (post-run single-threaded fold).
  void on_tier_transition(std::uint32_t cluster, std::int64_t t_ns,
                          std::uint8_t from, std::uint8_t to);

  /// Reduces everything observed to a Digest. Walks the attached
  /// simulators' components in canonical (name-sorted) order for the
  /// final lane, so the result is independent of partition placement.
  /// Call only after the run has fully stopped (joins worker threads).
  Digest finalize() const;

  /// Captured per-link packet logs (empty unless enable_capture). Keyed
  /// by link name; each vector is in that link's observation order.
  std::map<std::string, std::vector<PacketRecord>> captured() const;

  // --- memoized-phase replay (src/memo) --------------------------------
  //
  // A verified cache hit fast-forwards the engines past a phase without
  // executing it; these entry points let the replayer feed the digest the
  // exact observations the live phase would have produced. Indices are
  // attachment order: event lane i is the i-th attach()ed simulator
  // (partition), probe i the i-th link claimed by observe_links — both
  // deterministic given a deterministic build order.

  /// Number of claimed link probes.
  std::size_t num_probes() const { return probes_.size(); }

  /// The link behind probe `i` (for replayer index mapping).
  net::Link* probe_link(std::size_t i) const { return probes_.at(i)->link; }

  /// Absorbs one replayed event pop into lane `lane` — identical to the
  /// live PopObserver path.
  void replay_event_pop(std::size_t lane, sim::SimTime time,
                        std::uint64_t seq) {
    lanes_.at(lane)->on_event_pop(time, seq);
  }

  /// Absorbs one replayed packet record into probe `probe` — identical to
  /// the live on_transmit/on_drop path, including capture. Records are
  /// injected directly (not via the link observers) because drop records
  /// timestamp with the link's *current* clock, which during replay sits
  /// at the phase boundary, not the original drop time.
  void replay_link_record(std::size_t probe, const PacketRecord& r);

 private:
  // Per-partition order-lane observer.
  class EventLane : public sim::PopObserver {
   public:
    explicit EventLane(std::uint32_t key) : key_{key} {}
    void on_event_pop(sim::SimTime time, std::uint64_t seq) override {
      chain_.absorb(static_cast<std::uint64_t>(time.ns()));
      chain_.absorb(seq);
      ++events_;
    }
    std::uint32_t key() const { return key_; }
    std::uint64_t value() const { return chain_.value(); }
    std::uint64_t events() const { return events_; }

   private:
    std::uint32_t key_;
    Hash64 chain_;
    std::uint64_t events_ = 0;
  };

  // Per-link packet-lane probe; owns the link's observer slots.
  struct LinkProbe {
    net::Link* link = nullptr;
    Hash64 chain;
    std::uint64_t packets = 0;
    std::uint64_t drops = 0;
    std::vector<PacketRecord> capture;

    void record(const PacketRecord& r, bool keep, std::size_t max_records,
                std::atomic<std::size_t>& kept_total);
  };

  std::vector<sim::Simulator*> sims_;
  std::vector<std::unique_ptr<EventLane>> lanes_;
  std::vector<std::unique_ptr<LinkProbe>> probes_;
  std::map<std::uint32_t, Hash64> tier_chains_;  // keyed by cluster
  std::uint64_t transitions_ = 0;
  bool capture_ = false;
  std::size_t max_records_ = 0;
  std::atomic<std::size_t> captured_total_{0};
  std::atomic<std::uint64_t> flow_lane_{0};
  std::atomic<std::uint64_t> flows_{0};
};

}  // namespace esim::check
