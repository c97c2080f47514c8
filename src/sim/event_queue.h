// The future-event set: a 4-ary min-heap keyed on (time, key, sequence
// number).
//
// `key` is an optional caller-supplied priority (0 for ordinary events)
// that orders same-time events by *content* rather than scheduling
// history: link deliveries use the packet id, so two packets reaching a
// switch at the same instant enqueue in the same order under every engine
// — sequential or PDES at any partition count — even though their FES
// insertion sequences differ. The insertion sequence number remains the
// final tie-break, guaranteeing a total, deterministic order among events
// with equal (time, key); zero-key ties break in scheduling order,
// matching the behaviour of OMNeT++'s FES that the paper's prototype
// extends. That (time, key, seq) total order is a determinism contract:
// ParallelEngine::drain_inbox relies on it to make cross-partition message
// delivery reproducible, and the differential harness (src/check) verifies
// it digest-for-digest across engines, so any FES rework must preserve it
// bit-for-bit.
//
// Layout: heap entries are 32-byte (time, key, seq, slot, generation)
// records — two per cache line, so a 4-ary heap's four children span two
// lines — while the callback payloads live in a side pool of
// generation-tagged slots. A handle encodes (slot, generation); cancelling
// bumps the slot's generation, which simultaneously invalidates the handle,
// marks the heap entry dead (its recorded generation no longer matches),
// and frees the slot for reuse. Cancellation destroys the closure
// immediately — cancel-heavy TCP timer churn never pins dead closures —
// and the dead 32-byte heap entries are pruned eagerly at the top and
// compacted wholesale when they outnumber the live ones.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace esim::sim {

/// Opaque handle identifying a scheduled event, usable to cancel it.
struct EventHandle {
  std::uint64_t id = 0;
  /// True if this handle refers to a real scheduled event.
  constexpr bool valid() const { return id != 0; }
  constexpr bool operator==(const EventHandle&) const = default;
};

/// An event popped from the queue, ready to execute.
struct Event {
  SimTime time;
  std::uint64_t id = 0;
  /// FES insertion sequence — the tie-break that ordered this event among
  /// same-(time, key) peers. Exposed so the determinism harness can
  /// fingerprint pop order including tie resolution.
  std::uint64_t seq = 0;
  EventFn fn;
};

/// 4-ary min-heap of events ordered by (time, key, insertion sequence).
///
/// Not thread-safe: in parallel runs each partition owns its own queue.
class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules `fn` at absolute time `t` with key 0. Returns a handle for
  /// cancellation.
  EventHandle schedule(SimTime t, EventFn&& fn) {
    return schedule(t, 0, std::move(fn));
  }

  /// Schedules `fn` at absolute time `t` with an explicit same-time
  /// priority key (smaller keys execute first; 0 precedes all keyed
  /// events). Keys must be engine-invariant values (e.g. packet ids) —
  /// that is the whole point.
  EventHandle schedule(SimTime t, std::uint64_t key, EventFn&& fn);

  /// Schedules `fn` at `t` with key 0 under insertion sequence `seq`,
  /// which the caller claimed earlier through advance_accounting(): a
  /// reserved sequence is an event already counted as scheduled but not
  /// yet in the heap, so materializing it advances neither next_seq()
  /// nor total_scheduled(), and it pops exactly where an eager
  /// schedule() at claim time would have. Each reserved sequence may be
  /// materialized at most once. Throws std::logic_error when `seq` was
  /// never handed out (0, or >= next_seq()).
  EventHandle schedule_reserved(SimTime t, std::uint64_t seq, EventFn&& fn);

  /// Cancels a previously scheduled event, destroying its closure
  /// immediately. Returns false if the event already executed or was
  /// already cancelled.
  bool cancel(EventHandle h);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event. Requires !empty().
  SimTime next_time();

  /// Pops the earliest live event, or nullopt when empty. The closure is
  /// moved out of its slot: slots_ may reallocate while it runs.
  std::optional<Event> pop();

  /// Pops the earliest live event if it is due strictly before `end`, or
  /// returns nullopt. One prune serves both the check and the pop — the
  /// run_until loop's fused next_time() + pop().
  std::optional<Event> pop_before(SimTime end);

  /// Total events ever scheduled (for performance accounting).
  std::uint64_t total_scheduled() const { return total_scheduled_; }

  /// The insertion sequence number the NEXT schedule() will consume.
  /// Sequence numbers are the determinism contract's same-(time, key)
  /// tie-break, so replay machinery (src/memo) keys recorded pop streams
  /// to this counter.
  std::uint64_t next_seq() const { return next_seq_; }

  /// True while `h` refers to a scheduled-but-not-yet-executed event.
  bool live(EventHandle h) const {
    const auto slot = static_cast<std::uint32_t>(h.id & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(h.id >> 32);
    return h.valid() && slot < slots_.size() && slots_[slot].gen == gen;
  }

  /// The FES insertion sequence of a live event; 0 when `h` is dead
  /// (executed, cancelled, or never valid). Sequences start at 1, so 0 is
  /// unambiguous.
  std::uint64_t seq_of(EventHandle h) const {
    const auto slot = static_cast<std::uint32_t>(h.id & 0xffffffffu);
    return live(h) ? slots_[slot].seq : 0;
  }

  /// Commutative (order-independent) fingerprint of the live pending
  /// (time, key) multiset. Two queues holding the same pending events —
  /// regardless of scheduling history, cancellations, or heap layout —
  /// fingerprint identically. Insertion sequences are deliberately
  /// excluded (they are history, not state).
  std::uint64_t pending_fingerprint() const;

  // --- accounting snapshot / restore (the memoization contract) --------
  //
  // Generation-tagged slots make full FES state capture impossible by
  // design: closures are move-only and cancellation destroys them
  // immediately. What CAN be snapshotted and restored is the queue's
  // *accounting* — the (next_seq, total_scheduled) counters that drive
  // deterministic tie-breaking — together with a fingerprint of the live
  // pending set that pins down when a restore is sound.
  //
  // The contract across cancellations:
  //
  //   * snapshot_accounting() never blocks later operations; it is a pure
  //     read.
  //   * restore_accounting(snap) requires that the queue's live pending
  //     multiset is EXACTLY the snapshot's — same live count, same
  //     (time, key) fingerprint — and that every live event predates the
  //     snapshot (insertion seq < snap.next_seq). In that state, every
  //     event scheduled after the snapshot has been consumed (executed or
  //     cancelled), so rewinding next_seq/total_scheduled cannot create a
  //     duplicate sequence among live events and future pops order
  //     exactly as if the interval never happened. Any violation throws
  //     std::logic_error and leaves the queue untouched.
  //   * Slot GENERATIONS are never restored: they are monotonic for the
  //     queue's lifetime. A handle issued between snapshot and restore
  //     stays dead forever, even though a post-restore schedule() may
  //     reuse both its slot and its sequence number — handle identity is
  //     (slot, generation), so the recycled slot's bumped generation keeps
  //     old handles from ever matching (tested in event_queue_test.cc,
  //     ChurnThenRestore).
  //   * advance_accounting(n) is the fast-forward dual: it declares that
  //     `n` schedules happened logically (a memoized phase replay) without
  //     materializing them, keeping subsequent sequence numbers — and
  //     therefore same-(time, key) tie-breaks — bit-identical to a run
  //     that executed the phase live. The same call reserves sequences
  //     for events known in advance (a periodic run's flow injections):
  //     schedule_reserved() later puts one in the heap under its claimed
  //     sequence, or it is never materialized when its phase is replayed.

  /// Accounting state captured by snapshot_accounting().
  struct AccountingSnapshot {
    std::uint64_t next_seq = 0;
    std::uint64_t total_scheduled = 0;
    std::size_t live = 0;
    std::uint64_t pending = 0;  ///< pending_fingerprint() at capture

    bool operator==(const AccountingSnapshot&) const = default;
  };

  /// Captures the accounting counters and the pending-set fingerprint.
  AccountingSnapshot snapshot_accounting() const {
    return AccountingSnapshot{next_seq_, total_scheduled_, live_,
                              pending_fingerprint()};
  }

  /// Rewinds the accounting counters to `snap`. See the contract above;
  /// throws std::logic_error unless the live pending multiset matches the
  /// snapshot and contains no post-snapshot events.
  void restore_accounting(const AccountingSnapshot& snap);

  /// Declares `scheduled_delta` logical schedules without materializing
  /// them: next_seq and total_scheduled advance in lockstep (each
  /// schedule() consumes exactly one of each).
  void advance_accounting(std::uint64_t scheduled_delta) {
    next_seq_ += scheduled_delta;
    total_scheduled_ += scheduled_delta;
  }

  /// Heap entries currently held, live + dead (diagnostic: bounds the
  /// memory retained by cancelled-but-not-yet-compacted events).
  std::size_t heap_entries() const { return heap_.size(); }

  /// Drops all pending events.
  void clear();

  /// TEST-ONLY (determinism harness): when enabled, the same-time ordering
  /// is reversed — keyed events break ties in *descending* key order and
  /// zero-key ties in *reverse* insertion order — a deliberate violation
  /// of the determinism contract, used by tools/esim_diffcheck to prove
  /// the differential harness catches ordering bugs. Must be set before
  /// the first schedule() (flipping it later would corrupt the heap
  /// invariant); throws otherwise.
  void debug_set_invert_tiebreak(bool on);

 private:
  /// 32 bytes; the closure lives in slots_[slot] while gen matches.
  struct Entry {
    SimTime time;
    std::uint64_t key;  // same-time priority; 0 = ordinary event
    std::uint64_t seq;  // insertion order; tie-break for equal (time, key)
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Callback storage. `gen` counts lifetimes: it is the generation of the
  /// current occupant while the slot is live, and the generation the *next*
  /// occupant will get while the slot sits on the free list. A handle or
  /// heap entry is live iff its recorded gen equals the slot's.
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;  // insertion seq of the current occupant
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNpos;
  };

  static constexpr std::uint32_t kNpos = 0xffffffffu;
  static constexpr std::size_t kArity = 4;
  /// Compaction below this size isn't worth the rebuild.
  static constexpr std::size_t kCompactMin = 64;

  bool later(const Entry& a, const Entry& b) const {
    if (a.time != b.time) return a.time > b.time;
    // Same-time events order by engine-invariant key first (packet ids on
    // link deliveries), then insertion order (the determinism contract).
    // The harness's injected ordering bug reverses the whole same-time
    // ordering, key included.
    if (a.key != b.key) {
      return debug_invert_tiebreak_ ? a.key < b.key : a.key > b.key;
    }
    return debug_invert_tiebreak_ ? a.seq < b.seq : a.seq > b.seq;
  }

  static constexpr std::uint64_t handle_id(std::uint32_t slot,
                                           std::uint32_t gen) {
    // gen >= 1, so the id is never 0 (the null-handle sentinel).
    return (static_cast<std::uint64_t>(gen) << 32) | slot;
  }

  bool entry_dead(const Entry& e) const {
    return slots_[e.slot].gen != e.gen;
  }

  std::uint32_t acquire_slot(EventFn&& fn);
  /// Puts a live entry for `fn` in the heap under (t, key, seq).
  EventHandle push(SimTime t, std::uint64_t key, std::uint64_t seq,
                   EventFn&& fn);
  /// Pops the (live) root entry. Requires a pruned, non-empty heap.
  Event take_top();
  /// Invalidates handles/entries for `slot` and recycles it.
  void release_slot(std::uint32_t slot);

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes the root entry (swap-with-last + sift).
  void remove_top();
  /// Removes cancelled entries from the top of the heap.
  void prune_top();
  /// Rewrites the heap without its dead entries when they dominate.
  void maybe_compact();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNpos;
  std::size_t live_ = 0;
  std::size_t dead_in_heap_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t total_scheduled_ = 0;
  bool debug_invert_tiebreak_ = false;
};

}  // namespace esim::sim
