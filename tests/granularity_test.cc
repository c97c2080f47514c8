// Tests for the adaptive multi-granularity direction (DESIGN.md §12):
// the FluidClusterBackend's rate model and same-instant commutativity,
// the GranularityController's hysteresis state machine, every arm of the
// ApproxCluster's tier switch against parent goldens, and the end-to-end
// engine-invariance of adaptive runs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "check/diff_runner.h"
#include "check/fuzzer.h"
#include "core/approx_cluster.h"
#include "core/cluster_backend.h"
#include "core/granularity.h"
#include "net/packet.h"
#include "telemetry/fidelity.h"

namespace esim {
namespace {

using core::ClusterTier;
using core::ClusterTierPolicy;
using core::FluidClusterBackend;
using core::GranularityController;
using sim::SimTime;
using telemetry::CongestionState;

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

double admit_at(FluidClusterBackend& b, const net::Packet& pkt,
                std::int64_t t_ns) {
  return b.admit(pkt, SimTime::from_ns(t_ns));
}

double line_rate_latency(const net::Packet& pkt, double bps) {
  return static_cast<double>(pkt.size_bytes()) * 8.0 / bps;
}

TEST(FluidCluster, FirstTouchFallsBackToLineRate) {
  FluidClusterBackend b{fluid_config()};
  b.on_activated(SimTime{});
  const auto pkt = make_packet(0, 1);
  // The flow is not in the rate model until the instant advances, so the
  // first packet serializes at line rate.
  EXPECT_DOUBLE_EQ(admit_at(b, pkt, 1'000), line_rate_latency(pkt, 10e9));
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
  EXPECT_NEAR(admit_at(b, pa, 2'000), line_rate_latency(pa, 5e9), 1e-12);
  EXPECT_NEAR(admit_at(b, pb, 2'000), line_rate_latency(pb, 5e9), 1e-12);
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
  const double xa = admit_at(x, pa, 2'000);
  const double xb = admit_at(x, pb, 2'000);
  const double yb = admit_at(y, pb, 2'000);
  const double ya = admit_at(y, pa, 2'000);
  EXPECT_DOUBLE_EQ(xa, ya);
  EXPECT_DOUBLE_EQ(xb, yb);
  // The buffered mutations flush in canonical key order, so the models
  // converge: a later probe reads identical state from both.
  EXPECT_DOUBLE_EQ(admit_at(x, pa, 3'000), admit_at(y, pa, 3'000));
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
  const double da = admit_at(b, pa, 350'000);
  EXPECT_EQ(b.tracked_flows(), 1u);
  EXPECT_NEAR(da, line_rate_latency(pa, 10e9), 1e-12);
}

TEST(FluidCluster, NeverDropsAndReactivationResets) {
  FluidClusterBackend b{fluid_config()};
  b.on_activated(SimTime{});
  for (int i = 0; i < 50; ++i) {
    const auto p = make_packet(i % 4, 8 + i % 4,
                               static_cast<std::uint16_t>(100 + i));
    EXPECT_GT(admit_at(b, p, 1'000 + i * 500), 0.0);
  }
  EXPECT_GT(b.tracked_flows(), 0u);
  // Switching back INTO the tier later must not leak prior-period flows:
  // a tier period is a pure function of the packets admitted during it.
  b.on_activated(SimTime::from_us(500));
  EXPECT_EQ(b.tracked_flows(), 0u);
  const auto pkt = make_packet(0, 1);
  EXPECT_DOUBLE_EQ(admit_at(b, pkt, 501'000), line_rate_latency(pkt, 10e9));
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
    h = fold(h, std::bit_cast<std::uint64_t>(admit_at(b, pkt, t)));
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

TEST(Granularity, ControllerHonorsMinDwellHysteresis) {
  ClusterTierPolicy policy;
  policy.mode = ClusterTierPolicy::Mode::Adaptive;
  policy.fixed_tier = ClusterTier::Ml;
  policy.min_dwell_windows = 3;
  GranularityController ctl{policy};
  EXPECT_EQ(ctl.tier(), ClusterTier::Ml);

  constexpr std::int64_t kWindowNs = 1'000'000;
  std::int64_t now = 0;
  auto window = [&](CongestionState state) {
    now += kWindowNs;
    return ctl.step(state, now);
  };

  // Quiescent demands Fluid, but min-dwell holds the transition until the
  // third window on the current tier.
  EXPECT_EQ(window(CongestionState::Quiescent), std::nullopt);
  EXPECT_EQ(window(CongestionState::Quiescent), std::nullopt);
  EXPECT_EQ(window(CongestionState::Quiescent), ClusterTier::Fluid);
  ASSERT_EQ(ctl.transitions().size(), 1u);
  EXPECT_EQ(ctl.transitions()[0],
            (core::TierTransition{now, ClusterTier::Ml, ClusterTier::Fluid}));

  // Congested demands Packet; the dwell clock restarted at the
  // transition, so again two windows of hysteresis first.
  EXPECT_EQ(window(CongestionState::Congested), std::nullopt);
  EXPECT_EQ(window(CongestionState::Congested), std::nullopt);
  EXPECT_EQ(window(CongestionState::Congested), ClusterTier::Packet);
  EXPECT_EQ(ctl.tier(), ClusterTier::Packet);

  // A satisfied target never re-fires, however long the dwell.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(window(CongestionState::Congested), std::nullopt);
  }
  EXPECT_EQ(ctl.transitions().size(), 2u);
}

// --- one tier switch, every arm ------------------------------------------

// Runs `sc` sequentially and folds what every arm of the clusters' tier
// switch decided: the digest's lanes and counts, each cluster's Stats
// (per-tier packet counts and transitions included), and its tier trace.
std::uint64_t arm_fingerprint(const check::Scenario& sc) {
  const auto fold = [](std::uint64_t h, std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
    return h ^ (h >> 32);
  };
  const SimTime end = SimTime::from_ns(sc.duration_ns);
  std::uint64_t h = 0;
  check::RunHooks hooks;
  hooks.drive = [&](check::Rig& rig) {
    check::StateDigest* digest = rig.digest;
    for (const check::FlowSpec& f : sc.flows) {
      tcp::Host* host = rig.net->hosts[f.src];
      rig.parts.at(0)->schedule_at(
          SimTime::from_ns(f.start_ns), [host, f, digest] {
            auto* conn = host->open_flow(f.dst, f.bytes, f.flow_id);
            const SimTime start = host->sim().now();
            conn->on_complete = [host, f, start, digest] {
              digest->on_flow_complete(f.flow_id, f.src, f.dst, f.bytes,
                                       start, host->sim().now());
            };
          });
    }
    rig.run_until(end);
    for (const core::ApproxCluster* c : rig.net->clusters) {
      if (c == nullptr) continue;
      const core::ApproxCluster::Stats& s = c->stats();
      for (const std::uint64_t v :
           {s.egress_packets, s.ingress_packets, s.intra_packets,
            s.predicted_drops, s.conflicts_resolved, s.backlog_drops,
            s.tier_transitions}) {
        h = fold(h, v);
      }
      for (const std::uint64_t v : s.tier_packets) h = fold(h, v);
    }
  };
  const check::RunOutcome r = check::run_scenario(sc, {}, end, hooks);
  const check::Digest& d = r.digest;
  for (const std::uint64_t v :
       {d.order_lane, d.packet_lane, d.flow_lane, d.final_lane, d.tier_lane,
        d.events, d.packets, d.drops, d.flows, d.transitions}) {
    h = fold(h, v);
  }
  for (const auto& [cluster, trace] : r.traces) {
    h = fold(h, cluster);
    for (const core::TierTransition& t : trace) {
      h = fold(h, static_cast<std::uint64_t>(t.t_ns));
      h = fold(h, static_cast<std::uint64_t>(t.from));
      h = fold(h, static_cast<std::uint64_t>(t.to));
    }
  }
  return h;
}

// A small hybrid (intra-cluster traffic, port conflicts) pinned to
// `tier`, with sampled drops so every admission consumes its drop draw.
check::Scenario pinned_scenario(ClusterTier tier) {
  check::Scenario sc = check::random_hybrid_scenario(8);
  sc.approx->fixed_tier = tier;
  sc.approx->sample_drops = true;
  return sc;
}

// Goldens recorded before the tiers became arms of one switch in
// ApproxCluster::handle_packet: each arm decides, delivers and counts
// every packet bit-identically. Only the Ml arm decides drops by the drop
// draw, so its golden also pins each cluster's drop stream, which derives
// from the seed and the cluster index (sim::derive_stream).
TEST(TierSwitch, PacketArmMatchesParentGolden) {
  const std::uint64_t h = arm_fingerprint(pinned_scenario(ClusterTier::Packet));
  EXPECT_EQ(h, 0x9f9c73c42af7eebeULL) << std::hex << h;
}

TEST(TierSwitch, MlArmMatchesParentGolden) {
  const std::uint64_t h = arm_fingerprint(pinned_scenario(ClusterTier::Ml));
  EXPECT_EQ(h, 0x7486349992292ea3ULL) << std::hex << h;
}

TEST(TierSwitch, FluidArmMatchesParentGolden) {
  const std::uint64_t h = arm_fingerprint(pinned_scenario(ClusterTier::Fluid));
  EXPECT_EQ(h, 0x8deb0976b9838868ULL) << std::hex << h;
}

// Adaptive: all three arms, backlog drops, and 18 transitions.
TEST(TierSwitch, AdaptiveRunMatchesParentGolden) {
  const std::uint64_t h =
      arm_fingerprint(check::random_granularity_scenario(4));
  EXPECT_EQ(h, 0xecd0ad246eb14924ULL) << std::hex << h;
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
  // One full equivalence check: sequential vs PDES(2) (threshold drops),
  // tier traces element-wise identical. The fuzz-tier ctest entry runs 25
  // of these.
  const check::Scenario sc = check::random_granularity_scenario(11);
  std::uint64_t transitions = 0;
  EXPECT_EQ(check::check_granularity(sc, {2}, &transitions), "");
  EXPECT_GT(transitions, 0u);
}

}  // namespace
}  // namespace esim
