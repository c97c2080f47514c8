#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/random.h"
#include "telemetry/metrics.h"

namespace esim::sim {
namespace {

ParallelEngine::Config basic_config(std::uint32_t parts) {
  ParallelEngine::Config cfg;
  cfg.num_partitions = parts;
  cfg.lookahead = SimTime::from_us(1);
  cfg.seed = 9;
  return cfg;
}

TEST(ParallelEngine, RejectsBadConfig) {
  auto cfg = basic_config(0);
  EXPECT_THROW(ParallelEngine{cfg}, std::invalid_argument);
  cfg = basic_config(2);
  cfg.lookahead = SimTime{};
  EXPECT_THROW(ParallelEngine{cfg}, std::invalid_argument);
}

TEST(ParallelEngine, RunsIndependentPartitions) {
  ParallelEngine eng{basic_config(4)};
  std::vector<std::atomic<int>> counts(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    auto& sim = eng.partition(p).sim();
    for (int i = 1; i <= 10; ++i) {
      sim.schedule_at(SimTime::from_us(i),
                      [&counts, p] { counts[p].fetch_add(1); });
    }
  }
  eng.run_until(SimTime::from_ms(1));
  for (auto& c : counts) EXPECT_EQ(c.load(), 10);
  EXPECT_EQ(eng.stats().events_executed, 40u);
  EXPECT_GT(eng.stats().sync_rounds, 0u);
}

TEST(ParallelEngine, CrossMessagesDeliverAtRequestedTime) {
  ParallelEngine eng{basic_config(2)};
  SimTime delivered_at;
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(5), [&] {
    eng.send_cross(0, 1, s0.now() + SimTime::from_us(2), [&] {
      delivered_at = eng.partition(1).sim().now();
    });
  });
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(delivered_at, SimTime::from_us(7));
  EXPECT_EQ(eng.stats().cross_messages, 1u);
}

TEST(ParallelEngine, LookaheadViolationThrows) {
  ParallelEngine eng{basic_config(2)};
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(5), [&] {
    // Delivery only 0.5us ahead with 1us lookahead: must throw, and the
    // engine must surface it after the run instead of deadlocking.
    eng.send_cross(0, 1, s0.now() + SimTime::from_ns(500), [] {});
  });
  EXPECT_THROW(eng.run_until(SimTime::from_ms(1)), std::logic_error);
}

TEST(ParallelEngine, PingPongAcrossPartitions) {
  // Messages bounce 0 -> 1 -> 0 -> ... each hop adding exactly lookahead;
  // checks windows never execute an event early.
  ParallelEngine eng{basic_config(2)};
  std::vector<std::int64_t> hops;
  std::function<void(std::uint32_t, int)> bounce = [&](std::uint32_t at,
                                                       int remaining) {
    auto& sim = eng.partition(at).sim();
    hops.push_back(sim.now().ns());
    if (remaining == 0) return;
    const std::uint32_t next = 1 - at;
    eng.send_cross(at, next, sim.now() + SimTime::from_us(1),
                   [&, next, remaining] { bounce(next, remaining - 1); });
  };
  eng.partition(0).sim().schedule_at(SimTime::from_us(1),
                                     [&] { bounce(0, 20); });
  eng.run_until(SimTime::from_ms(1));
  ASSERT_EQ(hops.size(), 21u);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i], 1000 * static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(eng.stats().cross_messages, 20u);
}

TEST(ParallelEngine, ManyToOneDrainsDeterministically) {
  // All partitions fire messages into partition 0 at the same virtual time;
  // execution order must be deterministic across runs (sorted by source).
  auto run_once = [] {
    ParallelEngine eng{basic_config(4)};
    std::vector<int> order;
    for (std::uint32_t p = 1; p < 4; ++p) {
      auto& sim = eng.partition(p).sim();
      sim.schedule_at(SimTime::from_us(1), [&eng, &order, p, &sim] {
        eng.send_cross(p, 0, sim.now() + SimTime::from_us(3),
                       [&order, p] { order.push_back(static_cast<int>(p)); });
      });
    }
    eng.run_until(SimTime::from_ms(1));
    return order;
  };
  const auto a = run_once();
  ASSERT_EQ(a.size(), 3u);
  for (int trial = 0; trial < 5; ++trial) EXPECT_EQ(run_once(), a);
  EXPECT_EQ(a, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelEngine, EquivalentToSequentialForPartitionLocalWork) {
  // A computation confined to one partition must produce the same result
  // under the parallel engine as under a plain Simulator.
  auto sequential = [] {
    Simulator sim{77};
    Rng rng{77};
    std::int64_t acc = 0;
    std::function<void(int)> step = [&](int n) {
      acc = acc * 31 + sim.now().ns() +
            static_cast<std::int64_t>(rng.uniform_int(100));
      if (n > 0) {
        sim.schedule_in(SimTime::from_us(1 + rng.uniform_int(5)),
                        [&step, n] { step(n - 1); });
      }
    };
    sim.schedule_in(SimTime::from_us(1), [&step] { step(30); });
    sim.run();
    return acc;
  };
  auto parallel = [] {
    auto cfg = basic_config(3);
    cfg.seed = 77;
    ParallelEngine eng{cfg};
    auto& sim = eng.partition(0).sim();
    Rng rng{77};
    std::int64_t acc = 0;
    std::function<void(int)> step = [&](int n) {
      acc = acc * 31 + sim.now().ns() +
            static_cast<std::int64_t>(rng.uniform_int(100));
      if (n > 0) {
        sim.schedule_in(SimTime::from_us(1 + rng.uniform_int(5)),
                        [&step, n] { step(n - 1); });
      }
    };
    sim.schedule_in(SimTime::from_us(1), [&step] { step(30); });
    eng.run_until(SimTime::from_sec(1));
    return acc;
  };
  EXPECT_EQ(sequential(), parallel());
}

// A component draws the stream it would draw on one simulator with the
// engine seed, whichever partition it lives on.
TEST(ParallelEngine, EveryPartitionCarriesTheEngineSeed) {
  ParallelEngine eng{basic_config(4)};
  for (std::uint32_t p = 0; p < eng.num_partitions(); ++p) {
    EXPECT_EQ(eng.partition(p).sim().seed(), 9u) << "partition " << p;
  }
}

TEST(ParallelEngine, ModeledOverheadAccumulates) {
  auto cfg = basic_config(2);
  cfg.round_overhead_us = 5.0;
  ParallelEngine eng{cfg};
  auto& sim = eng.partition(0).sim();
  for (int i = 1; i <= 5; ++i) sim.schedule_at(SimTime::from_us(i), [] {});
  eng.run_until(SimTime::from_ms(1));
  EXPECT_GT(eng.stats().modeled_overhead_seconds, 0.0);
  EXPECT_GT(eng.stats().sync_rounds, 0u);
}

// Regression: the terminating sync round (the one that discovers there is
// no next window) used to increment sync_rounds and spin the modeled MPI
// overhead even though no window executes, inflating the Figure 1 overhead
// model by one round per run_until call.
TEST(ParallelEngine, TerminatingRoundIsNotCharged) {
  auto cfg = basic_config(2);
  cfg.round_overhead_us = 50.0;
  ParallelEngine eng{cfg};
  // No events at all: run_until's only round is the terminating one.
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(eng.stats().sync_rounds, 0u);
  EXPECT_EQ(eng.stats().modeled_overhead_seconds, 0.0);
}

TEST(ParallelEngine, SyncRoundCountIsExact) {
  ParallelEngine eng{basic_config(2)};
  auto& sim = eng.partition(0).sim();
  // With 1us lookahead each window advances past exactly one of these
  // events, so 10 window rounds run; the terminating round adds nothing.
  for (int i = 1; i <= 10; ++i) sim.schedule_at(SimTime::from_us(3 * i), [] {});
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(eng.stats().sync_rounds, 10u);
  // A second run with nothing left must not charge any further rounds.
  eng.run_until(SimTime::from_ms(2));
  EXPECT_EQ(eng.stats().sync_rounds, 10u);
}

TEST(ParallelEngine, PairLookaheadDefaultsToGlobal) {
  ParallelEngine eng{basic_config(3)};
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_EQ(eng.pair_lookahead(a, b), SimTime::from_us(1));
    }
  }
}

TEST(ParallelEngine, SetPairLookaheadBelowGlobalThrows) {
  ParallelEngine eng{basic_config(2)};
  EXPECT_THROW(eng.set_pair_lookahead(0, 1, SimTime::from_ns(500)),
               std::invalid_argument);
  // At or above the global floor is fine.
  eng.set_pair_lookahead(0, 1, SimTime::from_us(1));
  eng.set_pair_lookahead(0, 1, SimTime::from_us(8));
  EXPECT_EQ(eng.pair_lookahead(0, 1), SimTime::from_us(8));
}

TEST(ParallelEngine, PerPairWideLookaheadReducesRounds) {
  // Same workload as SyncRoundCountIsExact, but the pair lookaheads are
  // 8x the global one. Global mode must still step 1us windows; per-pair
  // mode's windows follow the 8us pair bound (the self-window is the
  // 16us shortest cycle through the other partition), so it needs
  // strictly fewer rounds for identical results.
  auto run_mode = [](ParallelEngine::WindowMode mode) {
    auto cfg = basic_config(2);
    cfg.window_mode = mode;
    ParallelEngine eng{cfg};
    eng.set_pair_lookahead(0, 1, SimTime::from_us(8));
    eng.set_pair_lookahead(1, 0, SimTime::from_us(8));
    auto& sim = eng.partition(0).sim();
    std::vector<std::int64_t> fired;
    for (int i = 1; i <= 10; ++i) {
      sim.schedule_at(SimTime::from_us(3 * i),
                      [&fired, &sim] { fired.push_back(sim.now().ns()); });
    }
    eng.run_until(SimTime::from_ms(1));
    return std::pair{eng.stats().sync_rounds, fired};
  };
  const auto [global_rounds, global_fired] =
      run_mode(ParallelEngine::WindowMode::global);
  const auto [pair_rounds, pair_fired] =
      run_mode(ParallelEngine::WindowMode::per_pair);
  EXPECT_EQ(pair_fired, global_fired);
  ASSERT_EQ(pair_fired.size(), 10u);
  EXPECT_LT(pair_rounds, global_rounds);
}

TEST(ParallelEngine, PerPairManyToOneMatchesGlobalOrder) {
  // The ManyToOneDrainsDeterministically scenario under per-pair windows:
  // delivery order must be the same deterministic (time, source, seq)
  // order the global window produces.
  auto cfg = basic_config(4);
  cfg.window_mode = ParallelEngine::WindowMode::per_pair;
  ParallelEngine eng{cfg};
  std::vector<int> order;
  for (std::uint32_t p = 1; p < 4; ++p) {
    auto& sim = eng.partition(p).sim();
    sim.schedule_at(SimTime::from_us(1), [&eng, &order, p, &sim] {
      eng.send_cross(p, 0, sim.now() + SimTime::from_us(3),
                     [&order, p] { order.push_back(static_cast<int>(p)); });
    });
  }
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelEngine, MailboxBurstDrainsInOrder) {
  // Three sources each post 3,000 messages to partition 0 in one window;
  // mailboxes have no capacity bound. Deliver times run out of post order
  // and tie across sources (and within one), so the drain must restore
  // the (deliver_at, source, post order) sort on its own.
  constexpr std::uint32_t kSources = 3;
  constexpr int kBurst = 3000;
  const auto offset = [](int i) {
    return SimTime::from_ns((static_cast<std::int64_t>(i) * 37) % 101);
  };
  struct Delivery {
    SimTime at;
    std::uint32_t source;
    int post;
    bool operator==(const Delivery&) const = default;
  };
  std::vector<Delivery> expected;
  for (std::uint32_t p = 1; p <= kSources; ++p) {
    for (int i = 0; i < kBurst; ++i) {
      expected.push_back({SimTime::from_us(2) + offset(i), p, i});
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const Delivery& a, const Delivery& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.source != b.source) return a.source < b.source;
              return a.post < b.post;
            });

  for (const auto mode : {ParallelEngine::WindowMode::global,
                          ParallelEngine::WindowMode::per_pair}) {
    SCOPED_TRACE(mode == ParallelEngine::WindowMode::global ? "global"
                                                            : "per_pair");
    auto cfg = basic_config(kSources + 1);
    cfg.window_mode = mode;
    ParallelEngine eng{cfg};
    telemetry::Registry registry;
    eng.set_telemetry(&registry);
    std::vector<Delivery> order;  // written only by partition 0
    for (std::uint32_t p = 1; p <= kSources; ++p) {
      auto& sim = eng.partition(p).sim();
      sim.schedule_at(SimTime::from_us(1), [&, p] {
        for (int i = 0; i < kBurst; ++i) {
          eng.send_cross(p, 0, SimTime::from_us(2) + offset(i), [&, p, i] {
            order.push_back({eng.partition(0).sim().now(), p, i});
          });
        }
      });
    }
    eng.run_until(SimTime::from_ms(1));
    ASSERT_EQ(order.size(), expected.size());
    const auto first_wrong =
        std::mismatch(order.begin(), order.end(), expected.begin()).first;
    EXPECT_TRUE(first_wrong == order.end())
        << "first delivery out of order: #" << (first_wrong - order.begin());
    EXPECT_EQ(eng.stats().cross_messages, kSources * kBurst);
    const telemetry::Snapshot snap = registry.snapshot();
    ASSERT_NE(snap.find("pdes.p0.inbox_drained"), nullptr);
    EXPECT_EQ(snap.find("pdes.p0.inbox_drained")->counter, kSources * kBurst);
    for (std::uint32_t p = 1; p <= kSources; ++p) {
      const std::string pair =
          "pdes.pair.p" + std::to_string(p) + "_p0.messages";
      ASSERT_NE(snap.find(pair), nullptr) << pair;
      EXPECT_EQ(snap.find(pair)->counter, static_cast<std::uint64_t>(kBurst));
    }
  }
}

TEST(ParallelEngine, SendAcrossInfinitePairThrows) {
  // An infinite pair lookahead declares "no channel exists"; sending on
  // one is a builder wiring bug and must fail loudly, not corrupt the
  // window math.
  auto cfg = basic_config(2);
  cfg.window_mode = ParallelEngine::WindowMode::per_pair;
  ParallelEngine eng{cfg};
  eng.set_pair_lookahead(0, 1, ParallelEngine::infinite_lookahead());
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(1), [&] {
    eng.send_cross(0, 1, s0.now() + SimTime::from_ms(1), [] {});
  });
  EXPECT_THROW(eng.run_until(SimTime::from_ms(10)), std::logic_error);
}

TEST(ParallelEngine, PairLookaheadViolationThrows) {
  // The pair bound (3us) is tighter than what the message honors (2us):
  // send_cross must validate against the pair matrix, not just the
  // global lookahead.
  auto cfg = basic_config(2);
  cfg.window_mode = ParallelEngine::WindowMode::per_pair;
  ParallelEngine eng{cfg};
  eng.set_pair_lookahead(0, 1, SimTime::from_us(3));
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(1), [&] {
    eng.send_cross(0, 1, s0.now() + SimTime::from_us(2), [] {});
  });
  EXPECT_THROW(eng.run_until(SimTime::from_ms(1)), std::logic_error);
}

TEST(ParallelEngine, PerPairChainedWakeupsDeliverOnTime) {
  // Transitive chain 2 -> 1 -> 0 where partition 0 is otherwise idle:
  // the closure (not just direct pair bounds) must keep partition 0 from
  // running past the relayed message. Delivery times prove no event ran
  // early or was dropped.
  auto cfg = basic_config(3);
  cfg.window_mode = ParallelEngine::WindowMode::per_pair;
  ParallelEngine eng{cfg};
  // Loose direct bounds everywhere except the tight relay path.
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = 0; b < 3; ++b) {
      if (a != b) eng.set_pair_lookahead(a, b, SimTime::from_us(100));
    }
  }
  eng.set_pair_lookahead(2, 1, SimTime::from_us(1));
  eng.set_pair_lookahead(1, 0, SimTime::from_us(1));
  SimTime delivered;
  auto& s2 = eng.partition(2).sim();
  s2.schedule_at(SimTime::from_us(5), [&] {
    eng.send_cross(2, 1, s2.now() + SimTime::from_us(1), [&] {
      auto& s1 = eng.partition(1).sim();
      eng.send_cross(1, 0, s1.now() + SimTime::from_us(1), [&] {
        delivered = eng.partition(0).sim().now();
      });
    });
  });
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(delivered, SimTime::from_us(7));
  EXPECT_EQ(eng.stats().cross_messages, 2u);
}

TEST(ParallelEngine, RepeatedRunUntilExtends) {
  ParallelEngine eng{basic_config(2)};
  std::atomic<int> count{0};
  auto& sim = eng.partition(0).sim();
  sim.schedule_at(SimTime::from_us(10), [&] { count.fetch_add(1); });
  sim.schedule_at(SimTime::from_ms(2), [&] { count.fetch_add(1); });
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(count.load(), 1);
  eng.run_until(SimTime::from_ms(5));
  EXPECT_EQ(count.load(), 2);
}

// --- Barrier stress ---------------------------------------------------
//
// Every partition crosses the round barrier twice per window. These runs
// push tens of thousands of windows through it with fewer partitions than
// CPUs, as many, and more (oversubscribed waiters must yield the core to
// the partition they wait for), and check the engine's exact accounting.

std::uint32_t cpu_count() {
  return std::max(2u, std::thread::hardware_concurrency());
}

constexpr std::int64_t kRingHops = 20'000;

// P tokens travel the ring 0 -> 1 -> ... -> P-1 -> 0, one hop per
// lookahead: every partition handles exactly one token per microsecond,
// so every window advances 1 us and the run takes exactly kRingHops
// windows. Partition `throw_at` (if any) throws on its hop `throw_hop`.
struct TokenRing {
  explicit TokenRing(std::uint32_t parts)
      : eng{basic_config(parts)}, handled(parts, 0), off_schedule(parts, 0) {
    for (std::uint32_t p = 0; p < parts; ++p) {
      eng.partition(p).sim().schedule_at(SimTime::from_us(1),
                                         [this, p] { hop(p, 1); });
    }
  }

  void hop(std::uint32_t at, std::int64_t n) {
    // Each slot is written only by its own partition's worker thread.
    auto& sim = eng.partition(at).sim();
    ++handled[at];
    if (sim.now().ns() != n * 1000) ++off_schedule[at];
    if (at == throw_at && n == throw_hop) {
      throw std::runtime_error("partition failed mid-run");
    }
    if (n == kRingHops) return;
    const std::uint32_t next = (at + 1) % eng.num_partitions();
    eng.send_cross(at, next, sim.now() + SimTime::from_us(1),
                   [this, next, n] { hop(next, n + 1); });
  }

  ParallelEngine eng;
  std::vector<std::int64_t> handled;
  std::vector<std::int64_t> off_schedule;
  std::uint32_t throw_at = ~0u;
  std::int64_t throw_hop = 0;
};

void expect_exact_token_ring(std::uint32_t parts) {
  SCOPED_TRACE("partitions=" + std::to_string(parts));
  TokenRing ring{parts};
  ring.eng.run_until(SimTime::from_ms(100));
  const auto& st = ring.eng.stats();
  const auto hops = static_cast<std::uint64_t>(kRingHops);
  EXPECT_EQ(st.sync_rounds, hops);
  EXPECT_EQ(st.cross_messages, parts * (hops - 1));
  EXPECT_EQ(st.events_executed, parts * hops);
  for (std::uint32_t p = 0; p < parts; ++p) {
    EXPECT_EQ(ring.handled[p], kRingHops) << "partition " << p;
    EXPECT_EQ(ring.off_schedule[p], 0) << "partition " << p;
  }
  EXPECT_GT(st.sync_wait_seconds, 0.0);
}

TEST(ParallelEngine, BarrierStressTwoPartitions) {
  expect_exact_token_ring(2);
}

TEST(ParallelEngine, BarrierStressOnePartitionPerCpu) {
  expect_exact_token_ring(cpu_count());
}

TEST(ParallelEngine, BarrierStressOversubscribed) {
  expect_exact_token_ring(cpu_count() + 4);
}

TEST(ParallelEngine, BarrierStressThrowMidRunRethrows) {
  // A partition that throws keeps crossing the barrier (reporting no next
  // event) until the others wind down, so the run ends and rethrows
  // instead of hanging; nothing before the throw runs off schedule.
  for (const std::uint32_t parts : {2u, cpu_count(), cpu_count() + 4}) {
    SCOPED_TRACE("partitions=" + std::to_string(parts));
    TokenRing ring{parts};
    ring.throw_at = parts - 1;
    ring.throw_hop = 5'000;
    EXPECT_THROW(ring.eng.run_until(SimTime::from_ms(100)), std::runtime_error);
    EXPECT_EQ(ring.handled[parts - 1], 5'000);
    EXPECT_LT(ring.eng.stats().sync_rounds,
              static_cast<std::uint64_t>(kRingHops));
    for (std::uint32_t p = 0; p < parts; ++p) {
      EXPECT_EQ(ring.off_schedule[p], 0) << "partition " << p;
    }
  }
}

}  // namespace
}  // namespace esim::sim
