// The bounded LRU cache of recorded phase deltas (DESIGN.md §13).
//
// A PhaseEntry is everything a verified repeat of a workload phase needs
// to be applied without resimulating: the phase's relative flow pattern
// and route fingerprint (hit-time verification payload — a signature
// match alone is never trusted), per-partition FES accounting deltas and
// pop streams, per-link packet records in phase-relative form, flow
// completions, per-component counter deltas and their rolling summary,
// and per-host identity consumption (ephemeral ports, packet sequence
// numbers).
//
// Two granularities coexist, fixed per run:
//   * digest-attached — pop streams and packet records are recorded and
//     replayed into the StateDigest, so a memoized run's FULL digest
//     (order lane included) equals the unmemoized run's. O(events in the
//     phase) per hit; the equivalence harness runs in this mode.
//   * aggregate-only — only counters, completions, identity, and FES
//     accounting are recorded. A hit costs O(pattern + the entry); the
//     ≥10× speedup mode, verified by final-state fingerprint instead of
//     full digest.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "check/digest.h"
#include "sim/event_queue.h"
#include "stats/collectors.h"

namespace esim::memo {

/// One flow of a phase in phase-relative terms, the exact-match
/// verification payload against signature collisions.
struct RelFlow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
  std::int64_t offset_ns = 0;

  bool operator==(const RelFlow&) const = default;
};

/// One recorded event pop, phase-relative. Pops of events scheduled
/// *during* the phase carry their sequence delta against the partition's
/// phase-start next_seq; pops of the phase's own injection events (which
/// were scheduled earlier, at setup) are tagged with the injection's index
/// instead, so replay can substitute the *current* phase's injection seq.
struct RelPop {
  std::int64_t rel_ns = 0;
  std::uint64_t dseq = 0;  ///< seq - base_seq, or injection index if tagged
  bool injection = false;

  bool operator==(const RelPop&) const = default;
};

/// Per-partition recorded accounting and (digest mode) pop stream.
struct PartitionDelta {
  std::uint64_t scheduled = 0;  ///< FES next_seq/total_scheduled advance
  std::uint64_t executed = 0;   ///< events popped during the phase
  std::vector<RelPop> pops;     ///< empty in aggregate-only entries
};

/// One recorded packet observation: the probe it belongs to plus the
/// record with time phase-relative and identity in recorded-run terms
/// (rewritten at apply time via HostIdentity deltas).
struct RelPacket {
  std::uint32_t probe = 0;
  /// Index into the phase flow list (replay remaps flow_id); -1 for
  /// control packets with flow_id 0.
  std::int32_t flow_index = -1;
  check::PacketRecord rec;  ///< rec.time_ns is phase-relative

  bool operator==(const RelPacket&) const = default;
};

/// One recorded flow completion, phase-relative.
struct RelCompletion {
  std::uint32_t flow_index = 0;
  std::int64_t start_rel_ns = 0;
  std::int64_t end_rel_ns = 0;

  bool operator==(const RelCompletion&) const = default;
};

/// Identity consumption of one host during the phase, with the recorded
/// bases needed to translate packet ids and ephemeral ports onto a later
/// occurrence.
struct HostIdentity {
  std::uint32_t host = 0;
  std::uint16_t port_base = 0;    ///< next_port at phase start
  std::uint64_t pkt_seq_base = 0; ///< next_packet_seq at phase start
  std::uint32_t flows_opened = 0;
  std::uint64_t packets_sent = 0;

  bool operator==(const HostIdentity&) const = default;
};

/// Nonzero counter delta of one component (index into the runner's
/// discovery-ordered component vector of that class).
struct CounterDelta {
  std::uint32_t index = 0;
  stats::PacketCounter delta;
};

/// Everything needed to apply one memoized phase.
struct PhaseEntry {
  bool with_digest = false;
  std::vector<RelFlow> flows;      ///< verification: exact pattern match
  std::uint64_t route_fp = 0;      ///< verification: predicted ECMP paths
  /// The phase's rolling summary (hash of every component's counter
  /// delta, zeros included); a hit pushes it instead of re-hashing.
  std::uint64_t summary = 0;
  std::vector<PartitionDelta> partitions;
  std::vector<RelPacket> packets;  ///< empty in aggregate-only entries
  std::vector<RelCompletion> completions;
  std::vector<CounterDelta> link_deltas;
  std::vector<CounterDelta> switch_deltas;
  std::vector<CounterDelta> host_deltas;
  std::vector<HostIdentity> identities;

  /// Approximate resident size, for the cache's byte bound.
  std::size_t bytes() const;
};

/// Cache accounting: the benchmark's memo.* metrics and the memo corpus's
/// summary line report it.
struct MemoStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Signature found but hit verification refused it; the sum of the
  /// three near_miss_* reasons below.
  std::uint64_t near_misses = 0;
  std::uint64_t near_miss_pattern = 0;  ///< flow pattern or entry shape differs
  std::uint64_t near_miss_route = 0;    ///< predicted ECMP paths differ
  std::uint64_t near_miss_stale_connection = 0;  ///< predicted 4-tuple in use
  /// Quiescent boundaries run live without a lookup because a host's
  /// ephemeral-port allocation would wrap inside the phase.
  std::uint64_t port_wrap_skips = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_aborts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fast_forwarded_phases = 0;
  std::int64_t fast_forwarded_ns = 0;

  MemoStats& operator+=(const MemoStats& o);
};

/// Bounded LRU map from 64-bit phase signature to PhaseEntry. Not
/// thread-safe: all cache traffic happens between engine windows, on the
/// driving thread.
class PhaseCache {
 public:
  struct Limits {
    std::size_t max_entries = 256;
    std::size_t max_bytes = std::size_t{64} << 20;
  };

  PhaseCache() = default;
  explicit PhaseCache(const Limits& limits) : limits_{limits} {}

  /// Looks up `signature`, refreshing its LRU position on hit. Returns
  /// nullptr on miss. The pointer stays valid until the next insert().
  const PhaseEntry* find(std::uint64_t signature);

  /// Inserts (or replaces) the entry under `signature`, then evicts
  /// least-recently-used entries until both limits hold. An entry larger
  /// than max_bytes by itself is dropped immediately (counted as an
  /// insert followed by an eviction).
  void insert(std::uint64_t signature, PhaseEntry entry);

  std::size_t entries() const { return map_.size(); }
  std::size_t resident_bytes() const { return resident_bytes_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Node {
    std::uint64_t signature = 0;
    PhaseEntry entry;
    std::size_t bytes = 0;
  };

  void evict_to_limits();

  Limits limits_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Node>::iterator> map_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace esim::memo
