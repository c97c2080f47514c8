// Tests for the adaptive multi-granularity direction (DESIGN.md §12):
// the FluidClusterBackend's rate model and same-instant commutativity,
// the GranularityController's hysteresis state machine, and the
// end-to-end engine-invariance of adaptive runs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "check/diff_runner.h"
#include "check/fuzzer.h"
#include "core/cluster_backend.h"
#include "core/granularity.h"
#include "net/packet.h"
#include "telemetry/fidelity.h"

namespace esim {
namespace {

using core::AdmitContext;
using core::ClusterTier;
using core::ClusterTierPolicy;
using core::FluidClusterBackend;
using core::GranularityController;
using core::TierDecision;
using sim::SimTime;
using telemetry::ClusterFidelityProbe;
using telemetry::CongestionState;
using telemetry::FidelityConfig;
using telemetry::FidelitySink;

// --- FluidClusterBackend -------------------------------------------------

net::ClosSpec fluid_spec() {
  net::ClosSpec s;
  s.clusters = 2;
  s.tors_per_cluster = 2;
  s.aggs_per_cluster = 2;
  s.hosts_per_tor = 4;
  s.cores = 2;
  return s;
}

FluidClusterBackend::Config fluid_config() {
  FluidClusterBackend::Config cfg;
  cfg.spec = fluid_spec();
  cfg.bandwidth_bps = 10e9;
  cfg.flow_bytes = 64ull << 20;
  cfg.idle_windows = 2;
  cfg.window_ns = 100'000;
  return cfg;
}

net::Packet make_packet(net::HostId src, net::HostId dst,
                        std::uint16_t sport = 100) {
  net::Packet p;
  p.flow = net::FlowKey{src, dst, sport, 80};
  p.payload = 1400;
  return p;
}

TierDecision admit_at(FluidClusterBackend& b, const net::Packet& pkt,
                      std::int64_t t_ns) {
  AdmitContext ctx{pkt, SimTime::from_ns(t_ns), /*egress=*/false,
                   /*features=*/{}, /*drop_draw=*/0.0};
  return b.admit(ctx);
}

double line_rate_latency(const net::Packet& pkt, double bps) {
  return static_cast<double>(pkt.size_bytes()) * 8.0 / bps;
}

TEST(FluidCluster, FirstTouchFallsBackToLineRate) {
  FluidClusterBackend b{fluid_config()};
  b.on_activated(SimTime{});
  const auto pkt = make_packet(0, 1);
  const TierDecision d = admit_at(b, pkt, 1'000);
  EXPECT_FALSE(d.drop);
  // The flow is not in the rate model until the instant advances, so the
  // first packet serializes at line rate.
  EXPECT_DOUBLE_EQ(d.latency_s, line_rate_latency(pkt, 10e9));
  EXPECT_EQ(b.tracked_flows(), 1u);
}

TEST(FluidCluster, LatencyTracksFairShare) {
  FluidClusterBackend b{fluid_config()};
  b.on_activated(SimTime{});
  // Two flows into host 1: its downlink is the common bottleneck, so
  // once flushed each holds a 5 Gbps max-min share.
  const auto pa = make_packet(0, 1, 100);
  const auto pb = make_packet(2, 1, 200);
  admit_at(b, pa, 1'000);
  admit_at(b, pb, 1'000);
  const TierDecision da = admit_at(b, pa, 2'000);
  const TierDecision db = admit_at(b, pb, 2'000);
  EXPECT_FALSE(da.drop);
  EXPECT_NEAR(da.latency_s, line_rate_latency(pa, 5e9), 1e-12);
  EXPECT_NEAR(db.latency_s, line_rate_latency(pb, 5e9), 1e-12);
  EXPECT_EQ(b.tracked_flows(), 2u);
}

TEST(FluidCluster, SameInstantAdmissionsCommute) {
  // Under PDES a remote-injected event can tie with a local one at the
  // same nanosecond with engine-dependent pop order; the backend's
  // contract is that any order of same-instant admissions yields the
  // same decisions AND the same model state afterwards.
  FluidClusterBackend x{fluid_config()};
  FluidClusterBackend y{fluid_config()};
  x.on_activated(SimTime{});
  y.on_activated(SimTime{});
  const auto pa = make_packet(0, 1, 100);
  const auto pb = make_packet(2, 1, 200);
  // Seed both with the same first instant (same order: it commutes too,
  // but keep the histories literally identical up to the tied instant).
  admit_at(x, pa, 1'000);
  admit_at(x, pb, 1'000);
  admit_at(y, pa, 1'000);
  admit_at(y, pb, 1'000);
  // Tied instant, opposite pop orders.
  const TierDecision xa = admit_at(x, pa, 2'000);
  const TierDecision xb = admit_at(x, pb, 2'000);
  const TierDecision yb = admit_at(y, pb, 2'000);
  const TierDecision ya = admit_at(y, pa, 2'000);
  EXPECT_DOUBLE_EQ(xa.latency_s, ya.latency_s);
  EXPECT_DOUBLE_EQ(xb.latency_s, yb.latency_s);
  // The buffered mutations flush in canonical key order, so the models
  // converge: a later probe reads identical state from both.
  const TierDecision px = admit_at(x, pa, 3'000);
  const TierDecision py = admit_at(y, pa, 3'000);
  EXPECT_DOUBLE_EQ(px.latency_s, py.latency_s);
  EXPECT_EQ(x.tracked_flows(), y.tracked_flows());
}

TEST(FluidCluster, IdleFlowsAreSweptAtWindowBoundaries) {
  FluidClusterBackend b{fluid_config()};  // idle_windows=2, window=100us
  b.on_activated(SimTime{});
  const auto pa = make_packet(0, 1, 100);
  const auto pb = make_packet(2, 1, 200);
  admit_at(b, pa, 1'000);
  admit_at(b, pb, 1'000);
  // Keep A alive past the boundaries; B never shows up again.
  admit_at(b, pa, 250'000);
  // Crossing the 300us boundary sweeps flows idle since before 100us:
  // B (last touch 1us) goes, A (last touch 250us) stays — and with the
  // bottleneck to itself, A is back at full line rate.
  const TierDecision da = admit_at(b, pa, 350'000);
  EXPECT_EQ(b.tracked_flows(), 1u);
  EXPECT_NEAR(da.latency_s, line_rate_latency(pa, 10e9), 1e-12);
}

TEST(FluidCluster, NeverDropsAndReactivationResets) {
  FluidClusterBackend b{fluid_config()};
  b.on_activated(SimTime{});
  for (int i = 0; i < 50; ++i) {
    const auto p = make_packet(i % 4, 8 + i % 4,
                               static_cast<std::uint16_t>(100 + i));
    EXPECT_FALSE(admit_at(b, p, 1'000 + i * 500).drop);
  }
  EXPECT_GT(b.tracked_flows(), 0u);
  // Switching back INTO the tier later must not leak prior-period flows:
  // a tier period is a pure function of the packets admitted during it.
  b.on_activated(SimTime::from_us(500));
  EXPECT_EQ(b.tracked_flows(), 0u);
  const auto pkt = make_packet(0, 1);
  const TierDecision d = admit_at(b, pkt, 501'000);
  EXPECT_DOUBLE_EQ(d.latency_s, line_rate_latency(pkt, 10e9));
}

// Recorded from the backend before its pending touches became a flat,
// sorted buffer and before the rate solver kept scratch buffers: a few
// thousand admissions on the benchmark's 8-cluster Clos — same-instant
// ties, idle gaps that cross several window sweeps, and a small byte
// budget so flows re-arm — must decide every latency bit-identically.
TEST(FluidCluster, AdmissionStreamMatchesParentGolden) {
  FluidClusterBackend::Config cfg = fluid_config();
  cfg.spec.clusters = 8;
  cfg.flow_bytes = 256u << 10;
  FluidClusterBackend b{cfg};
  b.on_activated(SimTime{});
  const auto fold = [](std::uint64_t h, std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
    return h ^ (h >> 32);
  };
  sim::Rng rng{99};
  std::uint64_t h = 0;
  std::int64_t t = 1'000;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t r = rng.uniform_int(100);
    if (r >= 27) {
      t += 1 + static_cast<std::int64_t>(rng.uniform_int(2000));
    } else if (r >= 25) {
      t += 250'000 + static_cast<std::int64_t>(rng.uniform_int(200'000));
    }  // else: tied with the previous admission
    // 40 flows into four destinations, so flows share bottlenecks.
    const auto f = static_cast<std::uint32_t>(rng.uniform_int(40));
    const net::HostId dst = (f % 4) * 17 + 3;
    const net::HostId src = (f * 7 + 1) % 64 == dst ? 0 : (f * 7 + 1) % 64;
    auto pkt = make_packet(src, dst, static_cast<std::uint16_t>(1000 + f));
    pkt.payload = 64 + static_cast<std::uint32_t>(rng.uniform_int(1400));
    if (i % 500 == 499) b.on_macro_window(SimTime::from_ns(t));
    h = fold(h, std::bit_cast<std::uint64_t>(admit_at(b, pkt, t).latency_s));
  }
  h = fold(h, b.tracked_flows());
  EXPECT_EQ(h, 0xada6165628f74938ULL) << std::hex << h;
}

// --- GranularityController -----------------------------------------------

TEST(Granularity, TargetTierFollowsCongestionState) {
  EXPECT_EQ(GranularityController::target_for(CongestionState::Quiescent),
            ClusterTier::Fluid);
  EXPECT_EQ(GranularityController::target_for(CongestionState::Nominal),
            ClusterTier::Ml);
  EXPECT_EQ(GranularityController::target_for(CongestionState::Congested),
            ClusterTier::Packet);
}

TEST(Granularity, ControllerRequiresProbe) {
  ClusterTierPolicy policy;
  policy.mode = ClusterTierPolicy::Mode::Adaptive;
  EXPECT_THROW(GranularityController(policy, 0, nullptr, nullptr),
               std::invalid_argument);
}

TEST(Granularity, ControllerHonorsMinDwellHysteresis) {
  FidelityConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = 0;  // congestion tracking only
  cfg.ewma_alpha = 1.0;   // classification reacts within one window
  cfg.quiescent_util = 0.02;
  cfg.congested_util = 0.5;
  cfg.congested_drop_rate = 0.5;
  FidelitySink sink{cfg};
  // capacity 1 Gbps, 1 ms windows: one window carries 125000 bytes.
  ClusterFidelityProbe probe{sink, 0, 1e9, nullptr};

  ClusterTierPolicy policy;
  policy.mode = ClusterTierPolicy::Mode::Adaptive;
  policy.fixed_tier = ClusterTier::Ml;
  policy.min_dwell_windows = 3;
  GranularityController ctl{policy, 0, &probe, nullptr};
  EXPECT_EQ(ctl.tier(), ClusterTier::Ml);

  constexpr std::int64_t kWindowNs = 1'000'000;
  std::int64_t now = 0;
  auto window = [&](std::uint64_t bytes) {
    now += kWindowNs;
    for (std::uint64_t fed = 0; fed < bytes; fed += 1000) {
      probe.observe_packet(1000, /*dropped=*/false);
    }
    probe.on_macro_window(now, kWindowNs);
    return ctl.on_macro_window(now);
  };

  // Quiescent (zero traffic) demands Fluid, but min-dwell holds the
  // transition until the third window on the current tier.
  EXPECT_EQ(window(0), std::nullopt);
  EXPECT_EQ(window(0), std::nullopt);
  EXPECT_EQ(window(0), ClusterTier::Fluid);
  ASSERT_EQ(ctl.transitions().size(), 1u);
  EXPECT_EQ(ctl.transitions()[0],
            (core::TierTransition{now, ClusterTier::Ml, ClusterTier::Fluid}));

  // Congested (util 0.8) demands Packet; the dwell clock restarted at
  // the transition, so again two windows of hysteresis first.
  EXPECT_EQ(window(100'000), std::nullopt);
  EXPECT_EQ(window(100'000), std::nullopt);
  EXPECT_EQ(window(100'000), ClusterTier::Packet);
  EXPECT_EQ(ctl.tier(), ClusterTier::Packet);

  // A satisfied target never re-fires, however long the dwell.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(window(100'000), std::nullopt);
  }
  EXPECT_EQ(ctl.transitions().size(), 2u);
}

// --- end-to-end adaptive runs --------------------------------------------

TEST(Granularity, AdaptiveRunIsReproducibleWithNontrivialTrace) {
  const check::Scenario sc = check::random_granularity_scenario(3);
  const check::RunOutcome r1 = check::DiffRunner{}.run(sc, {});
  const check::RunOutcome r2 = check::DiffRunner{}.run(sc, {});
  const check::Digest& d1 = r1.digest;
  const check::Digest& d2 = r2.digest;
  const check::TierTraces& t1 = r1.traces;
  const check::TierTraces& t2 = r2.traces;
  EXPECT_TRUE(d1 == d2);
  EXPECT_EQ(t1, t2);
  // The corpus is built to actually exercise the controller.
  std::size_t transitions = 0;
  for (const auto& [cluster, trace] : t1) {
    transitions += trace.size();
    if (!trace.empty()) {
      // Every cluster starts on the legacy tier.
      EXPECT_EQ(trace.front().from, ClusterTier::Ml);
    }
  }
  EXPECT_GT(transitions, 0u);
}

TEST(Granularity, AdaptiveScenarioIsEngineInvariant) {
  // One full equivalence check: batching on/off (sampled drops) and
  // sequential vs PDES(2) (threshold drops), tier traces element-wise
  // identical. The fuzz-tier ctest entry runs 25 of these.
  const check::Scenario sc = check::random_granularity_scenario(11);
  std::uint64_t transitions = 0;
  EXPECT_EQ(check::check_granularity(sc, {2}, &transitions), "");
  EXPECT_GT(transitions, 0u);
}

}  // namespace
}  // namespace esim
