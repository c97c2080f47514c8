#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/component.h"

namespace esim::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime{});
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, RunExecutesAllEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(SimTime::from_us(i), [&] { ++count; });
  }
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(sim.now(), SimTime::from_us(5));
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime::from_ms(3), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::from_ms(3));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_at(SimTime::from_us(10), [&] {
    sim.schedule_in(SimTime::from_us(5), [&] { times.push_back(sim.now().ns()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 15'000);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime::from_us(10), [&] {
    EXPECT_THROW(sim.schedule_at(SimTime::from_us(5), [] {}),
                 std::logic_error);
  });
  sim.run();
  EXPECT_THROW(sim.schedule_in(SimTime::from_ns(-1), [] {}), std::logic_error);
  // So does an event scheduled under a reserved sequence.
  const std::uint64_t seq = sim.fes_next_seq();
  sim.fes_advance(1);
  EXPECT_THROW(sim.schedule_reserved(SimTime::from_us(5), seq, [] {}),
               std::logic_error);
  sim.schedule_reserved(sim.now(), seq, [] {});
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(Simulator, RunUntilStopsBeforeBoundary) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::from_us(1), [&] { ++count; });
  sim.schedule_at(SimTime::from_us(2), [&] { ++count; });
  sim.schedule_at(SimTime::from_us(3), [&] { ++count; });
  sim.run_until(SimTime::from_us(2));  // events at exactly 2us not run
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), SimTime::from_us(2));
  sim.run_until(SimTime::from_us(10));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), SimTime::from_us(10));
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(sim.now(), SimTime::from_sec(2));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(SimTime::from_us(i), [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  sim.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulator, CancelStopsEvent) {
  Simulator sim;
  bool ran = false;
  auto h = sim.schedule_at(SimTime::from_us(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, EventsScheduledCounter) {
  Simulator sim;
  sim.schedule_at(SimTime::from_us(1), [] {});
  auto h = sim.schedule_at(SimTime::from_us(2), [] {});
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(sim.events_scheduled(), 2u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, DeterministicTieBreak) {
  // Two same-time events run in scheduling order, deterministically.
  for (int trial = 0; trial < 3; ++trial) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(SimTime::from_us(1), [&] { order.push_back(1); });
    sim.schedule_at(SimTime::from_us(1), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
}

class Pinger : public Component {
 public:
  Pinger(Simulator& sim, std::string name) : Component(sim, std::move(name)) {}

  void start(SimTime interval, int n) {
    interval_ = interval;
    remaining_ = n;
    tick();
  }

  int fired = 0;

 private:
  void tick() {
    if (remaining_-- <= 0) return;
    ++fired;
    schedule_in(interval_, [this] { tick(); });
  }

  SimTime interval_;
  int remaining_ = 0;
};

TEST(Simulator, ComponentRegistryAndLookup) {
  Simulator sim;
  auto* p = sim.add_component<Pinger>("ping0");
  EXPECT_EQ(sim.components().size(), 1u);
  EXPECT_EQ(p->name(), "ping0");
}

TEST(Simulator, ComponentSelfScheduling) {
  Simulator sim;
  auto* p = sim.add_component<Pinger>("ping0");
  p->start(SimTime::from_ms(1), 7);
  sim.run();
  EXPECT_EQ(p->fired, 7);
  EXPECT_EQ(sim.now(), SimTime::from_ms(7));
}

TEST(Simulator, ComponentRngStreamsAreStable) {
  // Adding a second component must not change the first one's stream.
  Simulator a{5}, b{5};
  auto* pa = a.add_component<Pinger>("x");
  auto* pb = b.add_component<Pinger>("x");
  (void)b.add_component<Pinger>("y");
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(pa->rng().next_u64(), pb->rng().next_u64());
  }
}

TEST(Simulator, SameSeedSameTrajectory) {
  auto run = [](std::uint64_t seed) {
    Simulator sim{seed};
    std::vector<std::uint64_t> draws;
    std::function<void()> step = [&] {
      draws.push_back(sim.rng().uniform_int(1000));
      if (draws.size() < 50) {
        sim.schedule_in(SimTime::from_us(sim.rng().uniform_int(100) + 1),
                        step);
      }
    };
    sim.schedule_in(SimTime::from_us(1), step);
    sim.run();
    return draws;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace esim::sim
