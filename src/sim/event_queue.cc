#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace esim::sim {

std::uint32_t EventQueue::acquire_slot(EventFn&& fn) {
  std::uint32_t slot;
  if (free_head_ != kNpos) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNpos;
    slots_[slot].fn = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back().fn = std::move(fn);
  }
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();  // free the closure now, not when the heap entry surfaces
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventHandle EventQueue::push(SimTime t, std::uint64_t key, std::uint64_t seq,
                             EventFn&& fn) {
  const std::uint32_t slot = acquire_slot(std::move(fn));
  const std::uint32_t gen = slots_[slot].gen;
  slots_[slot].seq = seq;
  heap_.push_back(Entry{t, key, seq, slot, gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return EventHandle{handle_id(slot, gen)};
}

EventHandle EventQueue::schedule(SimTime t, std::uint64_t key,
                                 EventFn&& fn) {
  ++total_scheduled_;
  return push(t, key, next_seq_++, std::move(fn));
}

EventHandle EventQueue::schedule_reserved(SimTime t, std::uint64_t seq,
                                          EventFn&& fn) {
  if (seq == 0 || seq >= next_seq_) {
    throw std::logic_error("schedule_reserved: sequence " +
                           std::to_string(seq) +
                           " was never reserved (next_seq=" +
                           std::to_string(next_seq_) + ")");
  }
  return push(t, 0, seq, std::move(fn));
}

bool EventQueue::cancel(EventHandle h) {
  if (!h.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(h.id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(h.id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  release_slot(slot);
  --live_;
  ++dead_in_heap_;
  // Eager top-pruning: TCP timers dominate cancellations and sit near the
  // root, so clearing them now keeps next_time()/pop() prune-free.
  prune_top();
  maybe_compact();
  return true;
}

SimTime EventQueue::next_time() {
  prune_top();
  assert(!heap_.empty());
  return heap_.front().time;
}

Event EventQueue::take_top() {
  const Entry e = heap_.front();
  Event out{e.time, handle_id(e.slot, e.gen), e.seq,
            std::move(slots_[e.slot].fn)};
  release_slot(e.slot);
  --live_;
  remove_top();
  return out;
}

std::optional<Event> EventQueue::pop() {
  prune_top();
  if (heap_.empty()) return std::nullopt;
  return take_top();
}

std::optional<Event> EventQueue::pop_before(SimTime end) {
  prune_top();
  if (heap_.empty() || heap_.front().time >= end) return std::nullopt;
  return take_top();
}

void EventQueue::debug_set_invert_tiebreak(bool on) {
  if (total_scheduled_ != 0) {
    throw std::logic_error(
        "debug_set_invert_tiebreak: must be called before any event is "
        "scheduled (the heap is ordered under the old comparator)");
  }
  debug_invert_tiebreak_ = on;
}

void EventQueue::clear() {
  // Every live slot has exactly one matching heap entry; release those so
  // stale handles from before the clear can never match a reused slot.
  for (const Entry& e : heap_) {
    if (!entry_dead(e)) release_slot(e.slot);
  }
  heap_.clear();
  live_ = 0;
  dead_in_heap_ = 0;
}

void EventQueue::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], heap_[i])) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) return;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t smallest = i;
    for (std::size_t c = first; c < last; ++c) {
      if (later(heap_[smallest], heap_[c])) smallest = c;
    }
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

void EventQueue::remove_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::prune_top() {
  while (!heap_.empty() && entry_dead(heap_.front())) {
    remove_top();
    --dead_in_heap_;
  }
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactMin || dead_in_heap_ * 2 <= heap_.size()) return;
  // Drop dead entries in place, then re-heapify bottom-up. O(n), amortized
  // against the cancellations that created the garbage; bounds the heap at
  // 2x the live count so churny workloads can't grow it without bound.
  auto keep = heap_.begin();
  for (const Entry& e : heap_) {
    if (!entry_dead(e)) *keep++ = e;
  }
  heap_.erase(keep, heap_.end());
  dead_in_heap_ = 0;
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
}

}  // namespace esim::sim
