// Tests for cross-packet batched inference at the cluster boundary
// (DESIGN.md §8): the coalesced prediction queue's flush triggers and
// config validation, the RNG draw-order contract (drop draws consumed at
// admission in arrival order), the min-latency floor and max-backlog
// clamps under batching, and sequential-vs-PDES digest identity with
// coalescing active.
#include <gtest/gtest.h>

#include "check/diff_runner.h"
#include "check/fuzzer.h"
#include "core/network.h"
#include "stats/collectors.h"

namespace esim::core {
namespace {

using approx::MicroModel;
using check::Digest;
using check::Scenario;
using sim::SimTime;
using sim::Simulator;

/// Runs `sc` under `partitions` with the prediction queue on or off (off
/// is the same scenario with batch_max = 1).
Digest hybrid_digest(Scenario sc, std::uint32_t partitions, bool batching) {
  if (!batching) sc.approx->batch_max = 1;
  return check::DiffRunner{}.run(sc, {partitions}).digest;
}

net::ClosSpec spec_with_clusters(std::uint32_t clusters) {
  net::ClosSpec s;
  s.clusters = clusters;
  s.tors_per_cluster = 2;
  s.aggs_per_cluster = 2;
  s.hosts_per_tor = 4;
  s.cores = 2;
  return s;
}

/// A model rigged to never drop and always predict ~`latency_us`.
MicroModel make_benign_model(double latency_us) {
  MicroModel::Config cfg;
  cfg.hidden = 4;
  cfg.layers = 1;
  MicroModel m{cfg};
  m.drop_head().weight().zero();
  m.drop_head().bias().at(0, 0) = -20.0;
  m.latency_head().weight().zero();
  m.latency_head().bias().at(0, 0) = 0.0;
  m.set_latency_normalization(std::log(latency_us), 1.0);
  return m;
}

TEST(BatchCluster, RejectsWindowBeyondMinLatency) {
  Simulator sim{1};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  cfg.approx.min_latency_s = 5e-6;
  cfg.approx.batch_max = 8;
  cfg.approx.batch_window = SimTime::from_us(6);  // > min_latency_s
  const auto m = make_benign_model(8.0);
  EXPECT_THROW(build_hybrid_network(sim, cfg, m, m), std::invalid_argument);
  // At the boundary (window == min latency) the sequential build is fine:
  // a flushed packet's delivery lands exactly at its admission horizon.
  cfg.approx.batch_window = SimTime::from_us(5);
  Simulator ok_sim{1};
  EXPECT_NO_THROW(build_hybrid_network(ok_sim, cfg, m, m));
}

TEST(BatchCluster, PdesBuilderRejectsWindowBeyondLookaheadSlack) {
  const auto m = make_benign_model(8.0);
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  cfg.approx.min_latency_s = 5e-6;
  cfg.approx.batch_max = 8;
  sim::ParallelEngine::Config ecfg;
  ecfg.num_partitions = 2;
  ecfg.lookahead = SimTime::from_us(1);
  ecfg.seed = 5;
  {
    // window + lookahead > min_latency: a coalesced packet could be held
    // past the lookahead it was admitted under.
    sim::ParallelEngine engine{ecfg};
    cfg.approx.batch_window = SimTime::from_ns(4'500);
    EXPECT_THROW(build_hybrid_network_partitioned(engine, cfg, m, m),
                 std::invalid_argument);
  }
  {
    // Exactly at the slack boundary the build is accepted.
    sim::ParallelEngine engine{ecfg};
    cfg.approx.batch_window = SimTime::from_us(4);
    EXPECT_NO_THROW(build_hybrid_network_partitioned(engine, cfg, m, m));
  }
}

// The RNG draw-order contract (the decide_drop bugfix): with sampled
// drops, the batched path must consume exactly one uniform draw per
// packet in arrival order — at admission, not at flush — so coalescing
// N > 1 predictions cannot shift any packet's draw. Same engine, same
// component creation order, so digest identity is exact evidence.
TEST(BatchCluster, SequentialDigestIdenticalBatchingOnVsOff) {
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    Scenario sc = check::random_hybrid_scenario(seed);
    sc.approx->sample_drops = true;
    // A gentle baseline (~12% sampled drops) keeps TCP moving so the
    // comparison below is not vacuous; the fuzz tier covers hot biases.
    sc.approx->drop_bias = -2.0;
    const Digest off = hybrid_digest(sc, 0, /*batching=*/false);
    const Digest on = hybrid_digest(sc, 0, /*batching=*/true);
    EXPECT_TRUE(off.engine_invariant_equal(on))
        << "seed " << seed << "\n  off: " << off.to_string()
        << "\n  on:  " << on.to_string();
    // The comparison must not be vacuous: traffic flowed and completed.
    EXPECT_GT(on.packets, 100u) << "seed " << seed;
    EXPECT_GT(on.flows, 0u) << "seed " << seed;
  }
}

/// One rigged two-cluster run; returns observables that must be exactly
/// equal whether the prediction queue coalesces or not.
struct ClampObservables {
  std::uint64_t segments = 0;
  std::uint64_t retransmissions = 0;
  double rtt_min = 0.0;
  double rtt_max = 0.0;
  ApproxCluster::Stats stats;
};

ClampObservables run_clamped(bool batching) {
  Simulator sim{7};
  HybridConfig cfg;
  cfg.net.spec = spec_with_clusters(2);
  // Model predicts ~0.5us — far below the 5us floor, so every delivery
  // clamps to arrival + min_latency_s exactly.
  cfg.approx.min_latency_s = 5e-6;
  // Tiny virtual drop-tail: concurrent flows overflow the emulated port
  // backlog, exercising the max-queueing-delay clamp.
  cfg.approx.max_port_backlog = SimTime::from_us(3);
  if (batching) {
    cfg.approx.batch_max = 8;
    cfg.approx.batch_window = SimTime::from_us(4);
  }
  const auto ingress = make_benign_model(0.5);
  const auto egress = make_benign_model(0.5);
  auto net = build_hybrid_network(sim, cfg, ingress, egress);
  stats::LatencyCollector rtt;
  net.hosts[0]->set_rtt_collector(&rtt);
  tcp::TcpConnection* a = nullptr;
  tcp::TcpConnection* b = nullptr;
  tcp::TcpConnection* c = nullptr;
  // Three flows converge on host 12: 3:1 into one emulated ingress port,
  // so the serializer's backlog grows past the 3us drop-tail.
  sim.schedule_at(SimTime::from_us(10),
                  [&] { a = net.hosts[0]->open_flow(12, 200'000, 1); });
  sim.schedule_at(SimTime::from_us(11),
                  [&] { b = net.hosts[1]->open_flow(12, 200'000, 2); });
  sim.schedule_at(SimTime::from_us(12),
                  [&] { c = net.hosts[4]->open_flow(12, 200'000, 3); });
  sim.run_until(SimTime::from_ms(80));
  ClampObservables out;
  out.segments = a->stats().segments_sent + b->stats().segments_sent +
                 c->stats().segments_sent;
  out.retransmissions = a->stats().retransmissions +
                        b->stats().retransmissions +
                        c->stats().retransmissions;
  out.rtt_min = rtt.summary().count() > 0 ? rtt.summary().min() : 0.0;
  out.rtt_max = rtt.summary().count() > 0 ? rtt.summary().max() : 0.0;
  // Stats reads are flush barriers: the cutoff may land mid-window.
  net.clusters[1]->flush_batch();
  out.stats = net.clusters[1]->stats();
  return out;
}

// Satellite contract: the min-latency floor and the max-port-backlog
// clamp apply per coalesced packet exactly as at N = 1. The batched run
// must reproduce the unbatched run's clamped RTTs, backlog drops, and
// retransmission schedule to the bit.
TEST(BatchCluster, LatencyFloorAndBacklogClampMatchUnbatched) {
  const ClampObservables off = run_clamped(false);
  const ClampObservables on = run_clamped(true);

  // The floor bites: a sub-microsecond model prediction cannot produce an
  // RTT below two clamped 5us fabric traversals (plus wire overheads).
  EXPECT_GT(off.rtt_min, 10e-6);
  // The backlog clamp bites: two concurrent flows into one emulated port
  // with a 3us drop-tail must shed packets.
  EXPECT_GT(off.stats.backlog_drops, 0u);
  EXPECT_GT(off.stats.conflicts_resolved, 0u);

  EXPECT_EQ(on.segments, off.segments);
  EXPECT_EQ(on.retransmissions, off.retransmissions);
  EXPECT_EQ(on.rtt_min, off.rtt_min);
  EXPECT_EQ(on.rtt_max, off.rtt_max);
  EXPECT_EQ(on.stats.egress_packets, off.stats.egress_packets);
  EXPECT_EQ(on.stats.ingress_packets, off.stats.ingress_packets);
  EXPECT_EQ(on.stats.predicted_drops, off.stats.predicted_drops);
  EXPECT_EQ(on.stats.backlog_drops, off.stats.backlog_drops);
  EXPECT_EQ(on.stats.conflicts_resolved, off.stats.conflicts_resolved);
}

// Named HybridPdesBatch so scripts/check.sh's tsan tier picks it up: the
// coalesced queue's flush timers and cross-partition deliveries run under
// the race detector here.
TEST(HybridPdesBatch, EnginesAgreeWithCoalescingActive) {
  Scenario sc = check::random_hybrid_scenario(7);
  sc.approx->sample_drops = false;  // cross-engine: RNG streams differ
  sc.approx->drop_bias = -2.0;      // below threshold: traffic flows
  const Digest seq = hybrid_digest(sc, 0, /*batching=*/true);
  for (const std::uint32_t partitions : {2u, 3u}) {
    const Digest pdes = hybrid_digest(sc, partitions, /*batching=*/true);
    EXPECT_TRUE(seq.engine_invariant_equal(pdes))
        << "partitions " << partitions << "\n  seq:  " << seq.to_string()
        << "\n  pdes: " << pdes.to_string();
  }
  EXPECT_GT(seq.packets, 100u);
}

}  // namespace
}  // namespace esim::core
