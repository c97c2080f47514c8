// Tests for the flow-level (fluid) baseline simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "flowsim/flow_level.h"
#include "sim/random.h"
#include "workload/flow_size.h"
#include "workload/traffic_matrix.h"

namespace esim::flowsim {
namespace {

using sim::SimTime;

net::ClosSpec small_spec() {
  net::ClosSpec s;
  s.clusters = 2;
  s.tors_per_cluster = 2;
  s.aggs_per_cluster = 2;
  s.hosts_per_tor = 4;
  s.cores = 2;
  return s;
}

TEST(FlowLevel, SingleFlowRunsAtLineRate) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  // 10 MB alone: FCT = 10e6 * 8 / 10e9 = 8 ms (fluid: no handshake, no
  // slow start, no serialization quantization).
  sim.add_flow(1, 0, 12, 10'000'000, SimTime::from_ms(1));
  sim.run();
  ASSERT_EQ(sim.results().size(), 1u);
  const auto& r = sim.results()[0];
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.bytes, 10'000'000u);
  EXPECT_NEAR(r.fct().to_seconds(), 8e-3, 1e-6);
  EXPECT_NEAR(r.completion.to_seconds(), 9e-3, 1e-6);
}

TEST(FlowLevel, TwoFlowsShareTheirCommonBottleneck) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  // Both flows target host 1: its downlink is the common bottleneck, so
  // each gets 5 Gbps until the smaller finishes.
  sim.add_flow(1, 0, 1, 5'000'000, SimTime{});
  sim.add_flow(2, 2, 1, 5'000'000, SimTime{});
  sim.run();
  ASSERT_EQ(sim.results().size(), 2u);
  for (const auto& r : sim.results()) {
    // 5 MB at 5 Gbps = 8 ms.
    EXPECT_NEAR(r.fct().to_seconds(), 8e-3, 1e-5) << "flow " << r.id;
  }
}

TEST(FlowLevel, MaxMinGivesUnbottleneckedFlowTheRemainder) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  // Flows 1 and 2 share host 1's downlink (5 Gbps each). Flow 3 goes to
  // a different host and only shares host 0's uplink with flow 1... so
  // use distinct sources: flow 3 is alone on its whole path and gets the
  // full 10 Gbps.
  sim.add_flow(1, 0, 1, 10'000'000, SimTime{});
  sim.add_flow(2, 2, 1, 10'000'000, SimTime{});
  sim.add_flow(3, 4, 5, 10'000'000, SimTime{});
  sim.run();
  std::map<std::uint64_t, double> fct;
  for (const auto& r : sim.results()) fct[r.id] = r.fct().to_seconds();
  EXPECT_NEAR(fct[3], 8e-3, 1e-5);   // full rate
  EXPECT_NEAR(fct[1], 16e-3, 1e-4);  // half rate throughout
  EXPECT_NEAR(fct[2], 16e-3, 1e-4);
}

TEST(FlowLevel, DepartureReleasesCapacity) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  // A short and a long flow share a bottleneck; when the short one
  // leaves, the long one speeds up to full rate.
  sim.add_flow(1, 0, 1, 2'500'000, SimTime{});   // 2.5MB
  sim.add_flow(2, 2, 1, 10'000'000, SimTime{});  // 10MB
  sim.run();
  std::map<std::uint64_t, double> fct;
  for (const auto& r : sim.results()) fct[r.id] = r.fct().to_seconds();
  // Short: 2.5MB at 5Gbps = 4ms. Long: 2.5MB at 5Gbps (4ms) + 7.5MB at
  // 10Gbps (6ms) = 10ms.
  EXPECT_NEAR(fct[1], 4e-3, 1e-5);
  EXPECT_NEAR(fct[2], 10e-3, 1e-4);
}

TEST(FlowLevel, LateArrivalSlowsExistingFlow) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  sim.add_flow(1, 0, 1, 10'000'000, SimTime{});
  sim.add_flow(2, 2, 1, 10'000'000, SimTime::from_ms(4));
  sim.run();
  std::map<std::uint64_t, double> completion;
  for (const auto& r : sim.results()) {
    completion[r.id] = r.completion.to_seconds();
  }
  // Flow 1: 5MB alone (4ms), then shares. Both finish together-ish:
  // at t=4ms flow1 has 5MB left, flow2 has 10MB. Shared 5Gbps each:
  // flow1 done at 4 + 8 = 12ms; then flow2's last 5MB at 10G: +4ms = 16ms.
  EXPECT_NEAR(completion[1], 12e-3, 1e-4);
  EXPECT_NEAR(completion[2], 16e-3, 1e-4);
}

TEST(FlowLevel, AllFlowsCompleteUnderRandomWorkload) {
  const auto spec = small_spec();
  FlowLevelSimulator sim{spec, 10e9};
  sim::Rng rng{31};
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{spec.total_hosts()};
  double t = 0;
  for (int i = 0; i < 500; ++i) {
    t += rng.exponential(20e-6);
    const auto [src, dst] = matrix.sample(rng);
    sim.add_flow(i + 1, src, dst, sizes->sample(rng),
                 SimTime::from_seconds_f(t));
  }
  sim.run();
  EXPECT_EQ(sim.results().size(), 500u);
  EXPECT_GT(sim.rate_recomputations(), 500u);
  // FCTs are physical: no flow finishes before its fluid minimum.
  for (const auto& r : sim.results()) {
    const double min_fct =
        static_cast<double>(r.bytes) * 8.0 / 10e9;
    // 5ns slack: completion timestamps quantize to integer nanoseconds.
    EXPECT_GE(r.fct().to_seconds() + 5e-9, min_fct);
    EXPECT_GE(r.completion, r.arrival);
  }
}

TEST(FlowLevel, DeterministicAcrossRuns) {
  auto run_once = [] {
    const auto spec = small_spec();
    FlowLevelSimulator sim{spec, 10e9};
    sim::Rng rng{77};
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{spec.total_hosts()};
    double t = 0;
    for (int i = 0; i < 200; ++i) {
      t += rng.exponential(30e-6);
      const auto [src, dst] = matrix.sample(rng);
      sim.add_flow(i + 1, src, dst, sizes->sample(rng),
                   SimTime::from_seconds_f(t));
    }
    sim.run();
    std::vector<std::int64_t> fcts;
    for (const auto& r : sim.results()) fcts.push_back(r.fct().ns());
    return fcts;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- Online stepping API (advance_to / remove_flow / rate_of) --------

TEST(FlowLevel, AdvanceToTracksPartialProgress) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  // 10 MB alone at 10 Gbps: 8 ms total.
  sim.add_flow(1, 0, 12, 10'000'000, SimTime{});
  sim.advance_to(SimTime::from_ms(4));
  EXPECT_EQ(sim.now(), SimTime::from_ms(4));
  EXPECT_EQ(sim.active_flows(), 1u);
  EXPECT_NEAR(sim.rate_of(1), 10e9, 1.0);
  EXPECT_TRUE(sim.results().empty());
  sim.advance_to(SimTime::from_ms(10));
  EXPECT_EQ(sim.active_flows(), 0u);
  ASSERT_EQ(sim.results().size(), 1u);
  EXPECT_NEAR(sim.results()[0].completion.to_seconds(), 8e-3, 1e-6);
  // The engine idles at the target, not at the last completion.
  EXPECT_EQ(sim.now(), SimTime::from_ms(10));
}

TEST(FlowLevel, RateOfReflectsMaxMinShareMidFlight) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  sim.add_flow(1, 0, 1, 10'000'000, SimTime{});
  sim.add_flow(2, 2, 1, 10'000'000, SimTime{});
  sim.advance_to(SimTime::from_ms(1));
  // Both bottlenecked on host 1's downlink: 5 Gbps each.
  EXPECT_NEAR(sim.rate_of(1), 5e9, 1.0);
  EXPECT_NEAR(sim.rate_of(2), 5e9, 1.0);
  EXPECT_EQ(sim.rate_of(99), 0.0);  // unknown id
}

TEST(FlowLevel, RemoveFlowReleasesItsShare) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  sim.add_flow(1, 0, 1, 10'000'000, SimTime{});
  sim.add_flow(2, 2, 1, 10'000'000, SimTime{});
  sim.advance_to(SimTime::from_ms(1));
  EXPECT_TRUE(sim.remove_flow(2));
  EXPECT_FALSE(sim.remove_flow(2));  // already gone
  EXPECT_NEAR(sim.rate_of(1), 10e9, 1.0);
  // Flow 1: 10MB = 0.625MB at 5G (1ms) + 9.375MB at 10G (7.5ms).
  sim.advance_to(SimTime::from_ms(20));
  ASSERT_EQ(sim.results().size(), 1u);
  EXPECT_NEAR(sim.results()[0].completion.to_seconds(), 8.5e-3, 1e-5);
}

TEST(FlowLevel, RemoveUnarrivedFlowNeverAdmitsIt) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  sim.add_flow(1, 0, 1, 10'000'000, SimTime{});
  sim.add_flow(2, 2, 1, 10'000'000, SimTime::from_ms(4));
  EXPECT_TRUE(sim.remove_flow(2));
  sim.advance_to(SimTime::from_ms(20));
  // Flow 1 never shared: 8 ms solo.
  ASSERT_EQ(sim.results().size(), 1u);
  EXPECT_NEAR(sim.results()[0].completion.to_seconds(), 8e-3, 1e-6);
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(FlowLevel, RateRecomputationsCountActiveSetChanges) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  sim.add_flow(1, 0, 1, 5'000'000, SimTime{});
  sim.add_flow(2, 2, 1, 10'000'000, SimTime::from_ms(2));
  sim.run();
  // Set changes: {1} arrive, {1,2} arrive, {2} after 1 departs; the
  // final departure empties the set (no allocation to recompute).
  EXPECT_EQ(sim.rate_recomputations(), 3u);
}

TEST(FlowLevel, OnlineMatchesOfflineRun) {
  const auto spec = small_spec();
  auto make_flows = [&](FlowLevelSimulator& sim) {
    sim::Rng rng{19};
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{spec.total_hosts()};
    double t = 0;
    for (int i = 0; i < 200; ++i) {
      t += rng.exponential(25e-6);
      const auto [src, dst] = matrix.sample(rng);
      sim.add_flow(i + 1, src, dst, sizes->sample(rng),
                   SimTime::from_seconds_f(t));
    }
  };
  FlowLevelSimulator offline{spec, 10e9};
  make_flows(offline);
  offline.run();

  FlowLevelSimulator online{spec, 10e9};
  make_flows(online);
  // Step in awkward 123 us increments, then sweep past the horizon.
  for (int k = 1; k <= 400; ++k) {
    online.advance_to(SimTime::from_us(123 * k));
  }
  online.advance_to(SimTime::from_ms(2000));
  EXPECT_EQ(online.active_flows(), 0u);
  ASSERT_EQ(online.results().size(), offline.results().size());
  // Online drains bytes piecewise at every step boundary, so completion
  // instants may drift by rounding — but only by rounding.
  std::map<std::uint64_t, double> offline_fct;
  for (const auto& r : offline.results()) {
    offline_fct[r.id] = r.completion.to_seconds();
  }
  for (const auto& r : online.results()) {
    ASSERT_TRUE(offline_fct.count(r.id)) << "flow " << r.id;
    EXPECT_NEAR(r.completion.to_seconds(), offline_fct[r.id], 50e-9)
        << "flow " << r.id;
  }
  EXPECT_GT(online.rate_recomputations(), 200u);
}

TEST(FlowLevel, OnlineDeterministicAcrossRuns) {
  const auto spec = small_spec();
  auto drive = [&] {
    FlowLevelSimulator sim{spec, 10e9};
    sim::Rng rng{47};
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{spec.total_hosts()};
    double t = 0;
    for (int i = 0; i < 150; ++i) {
      t += rng.exponential(30e-6);
      const auto [src, dst] = matrix.sample(rng);
      sim.add_flow(i + 1, src, dst, sizes->sample(rng),
                   SimTime::from_seconds_f(t));
    }
    for (int k = 1; k <= 250; ++k) {
      sim.advance_to(SimTime::from_us(777 * k));
      if (k == 40) sim.remove_flow(120);  // mid-run withdrawal, both runs
    }
    return std::pair{sim.results(), sim.rate_recomputations()};
  };
  const auto [r1, n1] = drive();
  const auto [r2, n2] = drive();
  EXPECT_EQ(n1, n2);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].id, r2[i].id);
    EXPECT_EQ(r1[i].completion.ns(), r2[i].completion.ns());
  }
}

// These hashes were recorded from the solver before it kept scratch
// buffers and scanned only loaded links (a full scan of every link per
// filling iteration, fresh vectors on every step). The online rates and
// completions it produces must stay bit-identical: the fluid tier's
// latencies, and so every adaptive run, are built from them.
TEST(FlowLevel, OnlineRatesMatchParentGolden) {
  net::ClosSpec spec;  // the repository benchmark's 8-cluster Clos
  spec.clusters = 8;
  spec.tors_per_cluster = 2;
  spec.aggs_per_cluster = 2;
  spec.hosts_per_tor = 4;
  spec.cores = 2;
  const auto fold = [](std::uint64_t h, std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
    return h ^ (h >> 32);
  };
  FlowLevelSimulator sim{spec, 10e9};
  sim::Rng rng{2024};
  const auto hosts = static_cast<std::uint64_t>(spec.total_hosts());
  std::vector<std::uint64_t> live;  // added and not withdrawn
  std::uint64_t next_id = 1;
  std::size_t peak_active = 0;
  std::uint64_t rate_hash = 0;
  std::int64_t t_ns = 0;
  for (int step = 0; step < 600; ++step) {
    for (std::uint64_t a = rng.uniform_int(3); a > 0; --a) {
      // Three flows in ten converge on host 5: a shared bottleneck.
      const auto src = static_cast<net::HostId>(rng.uniform_int(hosts));
      auto dst = static_cast<net::HostId>(
          rng.uniform() < 0.3 ? 5 : rng.uniform_int(hosts));
      if (dst == src) dst = static_cast<net::HostId>((src + 1) % hosts);
      const std::uint64_t bytes = 20'000 + rng.uniform_int(400'000);
      const SimTime arrival = SimTime::from_ns(
          t_ns + static_cast<std::int64_t>(rng.uniform_int(3000)));
      sim.add_flow(next_id, src, dst, bytes, arrival);
      live.push_back(next_id++);
    }
    if (step % 7 == 3 && !live.empty()) {
      const auto victim = live.begin() + static_cast<std::ptrdiff_t>(
                                             rng.uniform_int(live.size()));
      sim.remove_flow(*victim);
      live.erase(victim);
    }
    t_ns += 1000 + static_cast<std::int64_t>(rng.uniform_int(4000));
    sim.advance_to(SimTime::from_ns(t_ns));
    peak_active = std::max(peak_active, sim.active_flows());
    for (std::uint64_t id : live) {
      rate_hash =
          fold(rate_hash, std::bit_cast<std::uint64_t>(sim.rate_of(id)));
    }
  }
  std::uint64_t completion_hash = 0;
  for (const auto& r : sim.results()) {
    completion_hash = fold(fold(completion_hash, r.id),
                           static_cast<std::uint64_t>(r.completion.ns()));
  }
  EXPECT_GE(peak_active, 20u);
  EXPECT_GT(sim.results().size(), 100u);
  EXPECT_EQ(rate_hash, 0xa947470e6e674ac3ULL) << std::hex << rate_hash;
  EXPECT_EQ(completion_hash, 0x357de1e0800bb67cULL)
      << std::hex << completion_hash;
  EXPECT_EQ(sim.rate_recomputations(), 821u);
}

TEST(FlowLevel, AdvanceToIsMonotone) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  sim.add_flow(1, 0, 12, 1'000'000, SimTime{});
  sim.advance_to(SimTime::from_ms(5));
  const SimTime before = sim.now();
  sim.advance_to(SimTime::from_ms(1));  // into the past: no-op
  EXPECT_EQ(sim.now(), before);
}

TEST(FlowLevel, RejectsBadInput) {
  FlowLevelSimulator sim{small_spec(), 10e9};
  EXPECT_THROW(sim.add_flow(1, 0, 0, 100, SimTime{}),
               std::invalid_argument);
  EXPECT_THROW(sim.add_flow(1, 0, 999, 100, SimTime{}),
               std::invalid_argument);
  EXPECT_THROW((FlowLevelSimulator{small_spec(), 0.0}),
               std::invalid_argument);
}

TEST(FlowLevel, LeafSpineWorksToo) {
  net::ClosSpec spec;
  spec.clusters = 1;
  spec.tors_per_cluster = 4;
  spec.aggs_per_cluster = 4;
  spec.hosts_per_tor = 4;
  spec.cores = 0;
  FlowLevelSimulator sim{spec, 10e9};
  sim.add_flow(1, 0, 15, 1'000'000, SimTime{});
  sim.run();
  ASSERT_EQ(sim.results().size(), 1u);
  EXPECT_NEAR(sim.results()[0].fct().to_seconds(), 8e-4, 1e-6);
}

}  // namespace
}  // namespace esim::flowsim
