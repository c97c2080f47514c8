#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace esim::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::from_ns(30), [&] { order.push_back(3); });
  q.schedule(SimTime::from_ns(10), [&] { order.push_back(1); });
  q.schedule(SimTime::from_ns(20), [&] { order.push_back(2); });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_us(5);
  for (int i = 0; i < 10; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  while (auto e = q.pop()) e->fn();
  std::vector<int> expect(10);
  for (int i = 0; i < 10; ++i) expect[i] = i;
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, SameTimeKeyedEventsPopInKeyOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_us(5);
  // Inserted in descending key order; must pop ascending by key.
  q.schedule(t, 30, [&] { order.push_back(30); });
  q.schedule(t, 10, [&] { order.push_back(10); });
  q.schedule(t, 20, [&] { order.push_back(20); });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(EventQueue, ZeroKeyPrecedesKeyedAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_us(5);
  q.schedule(t, 7, [&] { order.push_back(1); });
  q.schedule(t, [&] { order.push_back(0); });  // plain schedule: key 0
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, KeyOrdersOnlyWithinOneInstant) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::from_ns(20), 1, [&] { order.push_back(2); });
  q.schedule(SimTime::from_ns(10), 99, [&] { order.push_back(1); });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // time dominates key
}

TEST(EventQueue, EqualKeysFallBackToSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_us(5);
  for (int i = 0; i < 5; ++i) {
    q.schedule(t, 42, [&order, i] { order.push_back(i); });
  }
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, DebugInvertReversesSameTimeOrdering) {
  EventQueue q;
  q.debug_set_invert_tiebreak(true);
  std::vector<int> order;
  const auto t = SimTime::from_us(5);
  q.schedule(t, 10, [&] { order.push_back(10); });
  q.schedule(t, 20, [&] { order.push_back(20); });
  q.schedule(t, [&] { order.push_back(1); });  // key 0
  q.schedule(t, [&] { order.push_back(2); });  // key 0
  while (auto e = q.pop()) e->fn();
  // Inverted: descending key first, zero-key ties in reverse insertion.
  EXPECT_EQ(order, (std::vector<int>{20, 10, 2, 1}));
}

TEST(EventQueue, DebugInvertAfterScheduleThrows) {
  EventQueue q;
  q.schedule(SimTime::from_ns(1), [] {});
  EXPECT_THROW(q.debug_set_invert_tiebreak(true), std::logic_error);
}

TEST(EventQueue, NextTimeTracksEarliest) {
  EventQueue q;
  q.schedule(SimTime::from_ns(50), [] {});
  q.schedule(SimTime::from_ns(20), [] {});
  EXPECT_EQ(q.next_time(), SimTime::from_ns(20));
  (void)q.pop();
  EXPECT_EQ(q.next_time(), SimTime::from_ns(50));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto h = q.schedule(SimTime::from_ns(10), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  auto h = q.schedule(SimTime::from_ns(10), [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelExecutedFails) {
  EventQueue q;
  auto h = q.schedule(SimTime::from_ns(10), [] {});
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelInvalidHandleFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventHandle{}));
  EXPECT_FALSE(q.cancel(EventHandle{123456}));
}

TEST(EventQueue, CancelMiddleKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::from_ns(10), [&] { order.push_back(1); });
  auto h = q.schedule(SimTime::from_ns(20), [&] { order.push_back(2); });
  q.schedule(SimTime::from_ns(30), [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_EQ(q.size(), 2u);
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  auto h1 = q.schedule(SimTime::from_ns(1), [] {});
  q.schedule(SimTime::from_ns(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(h1);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ClearEmpties) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(SimTime::from_ns(i), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, TotalScheduledCountsEverything) {
  EventQueue q;
  auto h = q.schedule(SimTime::from_ns(1), [] {});
  q.schedule(SimTime::from_ns(2), [] {});
  q.cancel(h);
  EXPECT_EQ(q.total_scheduled(), 2u);
}

TEST(EventQueue, MoveOnlyAndOversizedCallablesWork) {
  EventQueue q;
  int value = 0;
  // Move-only capture (std::function could never hold this).
  auto token = std::make_unique<int>(7);
  q.schedule(SimTime::from_ns(1),
             [&value, owned = std::move(token)] { value = *owned; });
  // Capture larger than EventFn's inline buffer: exercises the heap
  // fallback path.
  struct Big {
    char blob[2 * EventFn::kInlineSize] = {};
    int* out = nullptr;
  };
  Big big;
  big.out = &value;
  q.schedule(SimTime::from_ns(2), [big] { *big.out += 1; });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(value, 8);
}

TEST(EventQueue, HandleReuseAcrossGenerations) {
  EventQueue q;
  bool first_ran = false;
  bool second_ran = false;
  auto h1 = q.schedule(SimTime::from_ns(10), [&] { first_ran = true; });
  EXPECT_TRUE(q.cancel(h1));
  // The slot is recycled for the next schedule; the stale handle must not
  // be able to cancel the new occupant.
  auto h2 = q.schedule(SimTime::from_ns(20), [&] { second_ran = true; });
  EXPECT_NE(h1.id, h2.id);
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_EQ(q.size(), 1u);
  while (auto e = q.pop()) e->fn();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
  // And after execution the recycled handle is dead too.
  EXPECT_FALSE(q.cancel(h2));
}

// The satellite churn scenario: 100k TCP-retransmission-timer-like events,
// 7 of 8 cancelled before firing. Asserts (a) pop order matches the sorted
// (time, seq) reference exactly, (b) dead entries do not accumulate beyond
// the compaction bound, and (c) handles stay valid across slot-generation
// reuse.
TEST(EventQueue, CancelHeavyChurnKeepsOrderAndBoundsMemory) {
  constexpr int kEvents = 100'000;
  Rng rng{7};
  EventQueue q;
  struct Ref {
    std::int64_t t;
    std::uint64_t seq;
  };
  std::vector<Ref> expect;
  std::vector<std::pair<std::int64_t, std::uint64_t>> popped;
  std::vector<EventHandle> wave;
  std::size_t max_heap_entries = 0;
  std::size_t max_live = 0;
  for (int i = 0; i < kEvents; ++i) {
    const auto t = static_cast<std::int64_t>(rng.uniform_int(1'000'000));
    const auto s = static_cast<std::uint64_t>(i);
    auto h = q.schedule(SimTime::from_ns(t),
                        [&popped, t, s] { popped.emplace_back(t, s); });
    wave.push_back(h);
    if (wave.size() == 8) {
      // Cancel 7 of 8, like ACKs clearing retransmission timers.
      for (std::size_t k = 0; k + 1 < wave.size(); ++k) {
        ASSERT_TRUE(q.cancel(wave[k]));
      }
      expect.push_back(Ref{t, s});
      wave.clear();
    }
    max_heap_entries = std::max(max_heap_entries, q.heap_entries());
    max_live = std::max(max_live, q.size());
  }
  for (auto h : wave) q.cancel(h);
  // Dead-entry retention bound: compaction keeps the heap within 2x the
  // live count (plus the small-queue threshold it does not bother with).
  EXPECT_LE(max_heap_entries, 2 * max_live + 64);
  EXPECT_LE(q.heap_entries(), 2 * q.size() + 64);
  while (auto e = q.pop()) e->fn();
  std::vector<std::pair<std::int64_t, std::uint64_t>> want;
  for (const auto& r : expect) want.emplace_back(r.t, r.seq);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(popped, want);
}

// Property test: against a sorted reference, random schedule/cancel
// sequences must pop in exact (time, seq) order.
TEST(EventQueue, RandomizedAgainstReference) {
  Rng rng{2024};
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue q;
    struct Ref {
      std::int64_t t;
      std::uint64_t seq;
    };
    std::vector<Ref> ref;
    std::vector<EventHandle> handles;
    std::vector<std::pair<std::int64_t, std::uint64_t>> popped;
    std::uint64_t seq = 0;
    for (int i = 0; i < 500; ++i) {
      const auto t = static_cast<std::int64_t>(rng.uniform_int(1000));
      const std::uint64_t s = seq++;
      auto h = q.schedule(SimTime::from_ns(t), [&popped, t, s] {
        popped.emplace_back(t, s);
      });
      handles.push_back(h);
      ref.push_back({t, s});
      // Randomly cancel an earlier event.
      if (rng.bernoulli(0.2) && !handles.empty()) {
        const auto idx = rng.uniform_int(handles.size());
        if (q.cancel(handles[idx])) {
          // Mark as cancelled in the reference.
          ref[idx].t = -1;
        }
      }
    }
    while (auto e = q.pop()) e->fn();
    std::vector<std::pair<std::int64_t, std::uint64_t>> expect;
    for (const auto& r : ref) {
      if (r.t >= 0) expect.emplace_back(r.t, r.seq);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(popped, expect) << "trial " << trial;
  }
}

// --- accounting advance (the memo fast-forward contract) -------------

TEST(EventQueue, AdvanceAccountingMirrorsScheduling) {
  EventQueue q;
  q.schedule(SimTime::from_ns(10), [] {});
  const std::uint64_t seq_before = q.next_seq();
  const std::uint64_t total_before = q.total_scheduled();
  q.advance_accounting(17);
  EXPECT_EQ(q.next_seq(), seq_before + 17);
  EXPECT_EQ(q.total_scheduled(), total_before + 17);
  // The next real schedule lands after the advanced range, exactly as if
  // 17 events had actually been scheduled (and popped) in between.
  const EventHandle h = q.schedule(SimTime::from_ns(20), [] {});
  EXPECT_EQ(q.seq_of(h), seq_before + 17);
}

// A reserved sequence pops exactly where an eager schedule would have put
// it. Two queues share a history; `eager` schedules two phases of key-0
// events up front, `lazy` only claims their sequences and materializes each
// phase at its boundary — after later key-0 and keyed events, many due at
// the same nanosecond, and after the first phase has been popped.
TEST(EventQueue, ScheduleReservedPopsWhereEagerWould) {
  using Pops = std::vector<std::pair<std::int64_t, std::uint64_t>>;
  for (const bool invert : {false, true}) {
    Rng rng{invert ? 41u : 40u};
    EventQueue eager;
    EventQueue lazy;
    eager.debug_set_invert_tiebreak(invert);
    lazy.debug_set_invert_tiebreak(invert);
    const auto both = [&](std::int64_t t, std::uint64_t key) {
      eager.schedule(SimTime::from_ns(t), key, [] {});
      lazy.schedule(SimTime::from_ns(t), key, [] {});
    };
    // Times on a 10 ns grid over two 100 ns phases, so reserved events tie
    // with each other and with the rest of the history.
    const auto grid = [&rng](std::int64_t phase) {
      return 100 * phase + 10 * static_cast<std::int64_t>(rng.uniform_int(10));
    };
    both(0, 0);
    both(grid(0), 2);

    constexpr std::uint64_t kPerPhase = 32;
    std::vector<std::int64_t> times;
    for (std::int64_t phase = 0; phase < 2; ++phase) {
      for (std::uint64_t i = 0; i < kPerPhase; ++i) {
        times.push_back(grid(phase));
      }
    }
    const std::uint64_t base = lazy.next_seq();
    for (const std::int64_t t : times) {
      eager.schedule(SimTime::from_ns(t), [] {});
    }
    lazy.advance_accounting(times.size());
    ASSERT_EQ(lazy.next_seq(), eager.next_seq());
    ASSERT_EQ(lazy.total_scheduled(), eager.total_scheduled());

    for (int i = 0; i < 200; ++i) {
      const std::int64_t jitter =
          rng.bernoulli(0.5) ? 0
                             : static_cast<std::int64_t>(rng.uniform_int(10));
      both(grid(static_cast<std::int64_t>(rng.uniform_int(2))) + jitter,
           rng.bernoulli(0.5) ? 0 : 1 + rng.uniform_int(4));
    }

    // Materializes phase `phase`'s reserved events in shuffled order.
    const auto materialize = [&](std::uint64_t phase) {
      std::vector<std::uint64_t> order(kPerPhase);
      for (std::uint64_t i = 0; i < kPerPhase; ++i) {
        order[i] = phase * kPerPhase + i;
      }
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform_int(i)]);
      }
      for (const std::uint64_t i : order) {
        const std::uint64_t next = lazy.next_seq();
        const std::uint64_t total = lazy.total_scheduled();
        const EventHandle h =
            lazy.schedule_reserved(SimTime::from_ns(times[i]), base + i, [] {});
        EXPECT_EQ(lazy.seq_of(h), base + i);
        EXPECT_EQ(lazy.next_seq(), next);
        EXPECT_EQ(lazy.total_scheduled(), total);
      }
    };
    const auto drain = [](EventQueue& q, std::int64_t end) {
      Pops out;
      while (auto e = q.pop_before(SimTime::from_ns(end))) {
        out.emplace_back(e->time.ns(), e->seq);
      }
      return out;
    };

    materialize(0);
    const Pops first = drain(eager, 100);
    EXPECT_EQ(drain(lazy, 100), first) << "invert " << invert;
    EXPECT_GT(first.size(), kPerPhase);
    materialize(1);
    EXPECT_EQ(lazy.size(), eager.size());
    EXPECT_EQ(drain(lazy, 1000), drain(eager, 1000)) << "invert " << invert;
    EXPECT_TRUE(lazy.empty());
    EXPECT_EQ(lazy.next_seq(), eager.next_seq());
    EXPECT_EQ(lazy.total_scheduled(), eager.total_scheduled());

    // Sequences never handed out are refused.
    EXPECT_THROW(lazy.schedule_reserved(SimTime::from_ns(500), lazy.next_seq(),
                                        [] {}),
                 std::logic_error);
    EXPECT_THROW(lazy.schedule_reserved(SimTime::from_ns(500), 0, [] {}),
                 std::logic_error);
    EXPECT_TRUE(lazy.empty());
  }
}

}  // namespace
}  // namespace esim::sim
