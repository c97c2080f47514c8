// Tests for phase memoization (src/memo): PhaseCache LRU properties,
// MemoRunner replay equivalence, signature-collision safety, near-miss
// fallback, eviction re-recording, and the adversarial cases (aperiodic
// boundaries, mutated patterns, memo-off fidelity to the seed harness).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/diff_runner.h"
#include "check/scenario.h"
#include "memo/memo_diff.h"
#include "memo/memo_runner.h"
#include "memo/phase_cache.h"
#include "workload/phases.h"

namespace esim::memo {
namespace {

using check::EngineSpec;
using check::Scenario;
using workload::PhaseFlow;
using workload::PhasePattern;

PhaseEntry entry_of_size(std::size_t pops) {
  PhaseEntry e;
  e.partitions.resize(1);
  e.partitions[0].pops.resize(pops);
  return e;
}

TEST(PhaseCacheTest, FindMissReturnsNull) {
  PhaseCache cache;
  EXPECT_EQ(cache.find(123), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(PhaseCacheTest, InsertThenFind) {
  PhaseCache cache;
  PhaseEntry e;
  e.route_fp = 77;
  cache.insert(1, std::move(e));
  const PhaseEntry* found = cache.find(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->route_fp, 77u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.resident_bytes(), 0u);
}

TEST(PhaseCacheTest, EntryCountBoundHolds) {
  PhaseCache::Limits limits;
  limits.max_entries = 4;
  PhaseCache cache{limits};
  for (std::uint64_t sig = 0; sig < 100; ++sig) {
    cache.insert(sig, PhaseEntry{});
    EXPECT_LE(cache.entries(), limits.max_entries);
  }
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.evictions(), 96u);
  // Oldest are gone, newest survive.
  EXPECT_EQ(cache.find(0), nullptr);
  EXPECT_NE(cache.find(99), nullptr);
}

TEST(PhaseCacheTest, ByteBoundHoldsAndAccountingBalances) {
  PhaseCache::Limits limits;
  limits.max_bytes = 64 * 1024;
  PhaseCache cache{limits};
  for (std::uint64_t sig = 0; sig < 64; ++sig) {
    cache.insert(sig, entry_of_size(256));
    EXPECT_LE(cache.resident_bytes(), limits.max_bytes);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.entries(), 0u);

  // Byte accounting drains back to a single entry's size when everything
  // else is evicted by one oversized-but-admissible insert.
  const std::size_t one = entry_of_size(256).bytes();
  EXPECT_GE(cache.resident_bytes(), one);
}

TEST(PhaseCacheTest, LruEvictsLeastRecentlyUsed) {
  PhaseCache::Limits limits;
  limits.max_entries = 2;
  PhaseCache cache{limits};
  cache.insert(1, PhaseEntry{});
  cache.insert(2, PhaseEntry{});
  ASSERT_NE(cache.find(1), nullptr);  // refresh 1; 2 is now LRU
  cache.insert(3, PhaseEntry{});
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
}

TEST(PhaseCacheTest, InsertReplacesExistingEntry) {
  PhaseCache cache;
  PhaseEntry a;
  a.route_fp = 1;
  cache.insert(5, std::move(a));
  const std::size_t bytes_after_first = cache.resident_bytes();
  PhaseEntry b;
  b.route_fp = 2;
  cache.insert(5, std::move(b));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), bytes_after_first);
  EXPECT_EQ(cache.find(5)->route_fp, 2u);
}

// --- MemoRunner equivalence ------------------------------------------

/// A small periodic workload: two hosts pairs across ToRs, four phases.
PeriodicScenario small_periodic(std::uint32_t phases = 4) {
  Scenario base;
  base.seed = 99;
  base.tors = 2;
  base.spines = 2;
  base.hosts_per_tor = 2;
  base.duration_ns = 2'000'000;
  base.flows = {
      {0, 2, 30'000, 5'000, 1},
      {1, 3, 20'000, 7'000, 2},
      {3, 0, 15'000, 9'000, 3},
  };
  base.validate();
  return make_periodic(base, phases, 1'000'000);
}

/// pattern.expand(1) as a scenario flow list.
std::vector<check::FlowSpec> expansion(const PhasePattern& pattern) {
  std::vector<check::FlowSpec> flows;
  for (const auto& inj : pattern.expand(1)) {
    flows.push_back({inj.src, inj.dst, inj.bytes, inj.start_ns, inj.flow_id});
  }
  return flows;
}

/// Host 0 opens 600 short flows per 2 ms phase, so its ephemeral ports
/// wrap inside phase 83 (50,001 ports at 600 a phase); host 1 opens one
/// longer flow. With `alternate`, host 0's flows go to hosts 2 and 3
/// alternately, which keeps every post-wrap 4-tuple distinct from the
/// pre-wrap ones (each reused port goes to the other destination), so no
/// live SYN lands on a finished connection. Without it every host-0 flow
/// goes to host 2, and after the wrap each SYN reuses a finished tuple.
PeriodicScenario port_wrap_periodic(std::uint32_t phases,
                                    bool alternate = true) {
  Scenario base;
  base.seed = 11;
  base.tors = 2;
  base.spines = 1;
  base.hosts_per_tor = 2;
  base.duration_ns = 2'000'000;
  std::uint64_t id = 1;
  for (std::uint32_t k = 0; k < 600; ++k) {
    base.flows.push_back({0, alternate ? 2 + k % 2 : 2, 200,
                          1'000 * static_cast<std::int64_t>(k + 1), id++});
  }
  base.flows.push_back({1, 2, 5'000, 3'000, id++});
  return make_periodic(base, phases, 2'000'000);
}

TEST(MemoRunnerTest, SequentialFullDigestIdenticalWithHits) {
  const PeriodicScenario ps = small_periodic();
  const MemoConfig on;
  MemoConfig off = on;
  off.enabled = false;

  MemoRunner off_runner{off};
  const MemoRunOutcome base =
      off_runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  EXPECT_EQ(off_runner.stats().lookups, 0u);

  MemoRunner on_runner{on};
  const MemoRunOutcome memoized =
      on_runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);

  EXPECT_GT(memoized.stats.hits, 0u);
  EXPECT_EQ(memoized.digest, base.digest);
  EXPECT_EQ(memoized.flows_completed, base.flows_completed);
  EXPECT_EQ(memoized.final_state_fp, base.final_state_fp);
}

TEST(MemoRunnerTest, PdesFullDigestIdenticalWithHits) {
  const PeriodicScenario ps = small_periodic();
  for (std::uint32_t partitions : {2u, 4u}) {
    const EngineSpec spec{partitions};
    MemoRunner off_runner{MemoConfig{.enabled = false}};
    const MemoRunOutcome base =
        off_runner.run(ps.scenario, ps.pattern, spec, true);
    MemoRunner on_runner{MemoConfig{}};
    const MemoRunOutcome memoized =
        on_runner.run(ps.scenario, ps.pattern, spec, true);
    EXPECT_GT(memoized.stats.hits, 0u) << spec.label();
    EXPECT_EQ(memoized.digest, base.digest) << spec.label();
    EXPECT_EQ(memoized.flows_completed, base.flows_completed);
  }
}

// Injections enter the FES only when their phase runs live, under
// sequences reserved at run start. The full digest (order lane included)
// and each partition's final FES sequence must be those of the parent
// revision, which scheduled every injection up front; the constants were
// recorded by building this body against it.
TEST(MemoRunnerTest, ReservedInjectionsMatchParentGolden) {
  const PeriodicScenario ps = small_periodic(8);
  struct Golden {
    std::uint32_t partitions;
    check::Digest digest;
    std::vector<std::uint64_t> fes_next_seq;
  };
  const Golden golden[] = {
      {0,
       {0xb98f2ad089e87422ULL, 0x324f74cae30dca76ULL, 0x741b36c40c9b2109ULL,
        0x78270db01750a6d0ULL, 0, 3448, 3424, 0, 24, 0},
       {3889}},
      {2,
       {0x0bf814057cdf9f72ULL, 0x324f74cae30dca76ULL, 0x741b36c40c9b2109ULL,
        0x78270db01750a6d0ULL, 0, 3448, 3424, 0, 24, 0},
       {2481, 1409}},
  };
  for (const Golden& g : golden) {
    const EngineSpec spec{g.partitions};
    for (const bool enabled : {false, true}) {
      MemoRunner runner{MemoConfig{.enabled = enabled, .limits = {}}};
      const MemoRunOutcome out =
          runner.run(ps.scenario, ps.pattern, spec, true);
      EXPECT_EQ(out.digest, g.digest)
          << spec.label() << " memo " << enabled << ": "
          << out.digest.to_string();
      EXPECT_EQ(out.fes_next_seq, g.fes_next_seq)
          << spec.label() << " memo " << enabled;
      EXPECT_EQ(out.stats.hits, enabled ? 6u : 0u) << spec.label();
    }
  }
}

TEST(MemoRunnerTest, AggregateModeMatchesFinalState) {
  const PeriodicScenario ps = small_periodic(6);
  MemoRunner off_runner{MemoConfig{.enabled = false}};
  const MemoRunOutcome base =
      off_runner.run(ps.scenario, ps.pattern, EngineSpec{}, false);
  EXPECT_FALSE(base.digest_attached);

  MemoRunner on_runner{MemoConfig{}};
  const MemoRunOutcome agg =
      on_runner.run(ps.scenario, ps.pattern, EngineSpec{}, false);
  EXPECT_GT(agg.stats.hits, 0u);
  EXPECT_EQ(agg.final_state_fp, base.final_state_fp);
  EXPECT_EQ(agg.flows_completed, base.flows_completed);
  // Aggregate entries carry no event/packet streams.
  EXPECT_GT(agg.stats.fast_forwarded_ns, 0);
}

TEST(MemoRunnerTest, LongRunAggregateHitsEveryRepeat) {
  // Hundreds of phases reserve thousands of injection sequences per
  // partition; only the phases that run live materialize theirs, and the
  // quiescence gate (every partition's FES empty) must still open at
  // every boundary.
  constexpr std::uint32_t kPhases = 320;
  const PeriodicScenario ps = small_periodic(kPhases);
  MemoConfig off;
  off.enabled = false;
  for (std::uint32_t partitions : {0u, 2u}) {
    const EngineSpec spec{partitions};
    MemoRunner off_runner{off};
    const MemoRunOutcome base =
        off_runner.run(ps.scenario, ps.pattern, spec, false);
    MemoRunner on_runner{MemoConfig{}};
    const MemoRunOutcome agg =
        on_runner.run(ps.scenario, ps.pattern, spec, false);
    EXPECT_EQ(agg.final_state_fp, base.final_state_fp) << spec.label();
    EXPECT_EQ(agg.flows_completed, base.flows_completed) << spec.label();
    EXPECT_EQ(agg.flows_completed, ps.scenario.flows.size()) << spec.label();
    EXPECT_GE(agg.stats.hits, kPhases - 2) << spec.label();
    EXPECT_EQ(agg.stats.lookups, kPhases) << spec.label();
    EXPECT_EQ(agg.stats.port_wrap_skips, 0u) << spec.label();
  }
}

TEST(MemoRunnerTest, NearMissesAreCountedByReason) {
  // Port-sensitive ECMP gives every phase fresh paths; with signatures
  // forced to collide, verification refuses on the route fingerprint,
  // and the per-reason counters must sum to the near-miss total.
  PeriodicScenario ps = small_periodic(6);
  ps.scenario.ecmp_port_sensitive = true;
  MemoConfig collide;
  collide.debug_collide_signatures = true;
  MemoRunner runner{collide};
  const MemoRunOutcome out =
      runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  const MemoStats& st = out.stats;
  EXPECT_GT(st.near_miss_route, 0u);
  EXPECT_EQ(st.near_miss_pattern, 0u);
  EXPECT_EQ(st.near_misses, st.near_miss_pattern + st.near_miss_route +
                                st.near_miss_stale_connection);

  MemoConfig off;
  off.enabled = false;
  MemoRunner off_runner{off};
  const MemoRunOutcome base =
      off_runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  EXPECT_EQ(out.digest, base.digest);
}

TEST(MemoRunnerTest, CachePersistsAcrossRunsOfOneRunner) {
  const PeriodicScenario ps = small_periodic();
  MemoRunner runner{MemoConfig{}};
  const MemoRunOutcome first =
      runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  const std::uint64_t first_misses = first.stats.misses;
  EXPECT_GT(first_misses, 0u);

  // Second identical run: phase boundaries land in the same relative
  // state, so every memoizable phase hits entries from the first run.
  const MemoRunOutcome second =
      runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  EXPECT_GT(second.stats.hits, first.stats.hits);
  EXPECT_EQ(second.stats.misses, first_misses);

  MemoRunner off_runner{MemoConfig{.enabled = false}};
  const MemoRunOutcome base =
      off_runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  EXPECT_EQ(second.digest, base.digest);
}

// A replayed phase takes the summary its entry recorded instead of
// re-hashing the counters, and a run hashes its signature prefix and its
// host-pair route fingerprint once. Signatures, and so every lookup's
// outcome, must be those of the parent revision, which re-hashed all of
// it at every boundary; the constants were recorded by building this body
// against it.
TEST(MemoRunnerTest, ReplayedSummariesMatchParentGolden) {
  const PeriodicScenario ps = small_periodic(8);
  struct Golden {
    std::uint32_t partitions;
    bool with_digest;
    std::uint64_t lookups, hits, misses, stores;
    check::Digest digest;
    std::uint64_t final_state_fp;
  };
  const Golden golden[] = {
      {0, false, 8, 6, 2, 2, {}, 8657903858599634640ULL},
      {0, true, 8, 6, 2, 2,
       {0xb98f2ad089e87422ULL, 0x324f74cae30dca76ULL, 0x741b36c40c9b2109ULL,
        0x78270db01750a6d0ULL, 0, 3448, 3424, 0, 24, 0},
       8657903858599634640ULL},
      {2, false, 8, 6, 2, 2, {}, 8657903858599634640ULL},
      {2, true, 8, 6, 2, 2,
       {0x0bf814057cdf9f72ULL, 0x324f74cae30dca76ULL, 0x741b36c40c9b2109ULL,
        0x78270db01750a6d0ULL, 0, 3448, 3424, 0, 24, 0},
       8657903858599634640ULL},
  };
  for (const Golden& g : golden) {
    MemoRunner runner{MemoConfig{}};
    const MemoRunOutcome out =
        runner.run(ps.scenario, ps.pattern, EngineSpec{g.partitions},
                   g.with_digest);
    const std::string label = "partitions " + std::to_string(g.partitions) +
                              (g.with_digest ? " digest" : " aggregate");
    EXPECT_EQ(out.stats.lookups, g.lookups) << label;
    EXPECT_EQ(out.stats.hits, g.hits) << label;
    EXPECT_EQ(out.stats.misses, g.misses) << label;
    EXPECT_EQ(out.stats.stores, g.stores) << label;
    EXPECT_EQ(out.digest, g.digest) << label << ": " << out.digest.to_string();
    EXPECT_EQ(out.final_state_fp, g.final_state_fp) << label;
  }
}

// Host 0's ports wrap once in 160 phases. The wrap phase is skipped
// without a lookup; from the next phase on, every hit passes the
// stale-connection check before it replays.
TEST(MemoRunnerTest, PortWrapRunMatchesMemoOff) {
  constexpr std::uint32_t kPhases = 160;
  constexpr std::uint32_t kWrapPhase = 83;
  const PeriodicScenario ps = port_wrap_periodic(kPhases);
  for (const std::uint32_t partitions : {0u, 2u}) {
    const EngineSpec spec{partitions};
    MemoRunner off_runner{MemoConfig{.enabled = false}};
    const MemoRunOutcome base =
        off_runner.run(ps.scenario, ps.pattern, spec, true);
    EXPECT_EQ(base.flows_completed, ps.scenario.flows.size()) << spec.label();
    EXPECT_EQ(base.final_state_fp, 8985220248136519995ULL) << spec.label();
    for (const bool with_digest : {false, true}) {
      MemoRunner runner{MemoConfig{}};
      const MemoRunOutcome out =
          runner.run(ps.scenario, ps.pattern, spec, with_digest);
      const std::string label =
          spec.label() + (with_digest ? " digest" : " aggregate");
      EXPECT_EQ(out.final_state_fp, base.final_state_fp) << label;
      EXPECT_EQ(out.flows_completed, base.flows_completed) << label;
      if (with_digest) {
        EXPECT_EQ(out.digest, base.digest) << label;
      }
      EXPECT_EQ(out.stats.port_wrap_skips, 1u) << label;
      EXPECT_EQ(out.stats.lookups, kPhases - 1) << label;
      // No phase before the wrap can account for this many hits.
      EXPECT_GT(out.stats.hits, kWrapPhase) << label;
      EXPECT_EQ(out.stats.hits, 157u) << label;
    }
  }
}

// Every host-0 flow goes to host 2, so from phase 83 on each SYN lands on
// a finished receiver under a reused tuple. A new flow id reopens it, so
// the live run completes every flow, and a replayed phase (which leaves
// no connection behind) must end where the live run does.
TEST(MemoRunnerTest, TupleReuseAfterPortWrapMatchesMemoOff) {
  const PeriodicScenario ps = port_wrap_periodic(120, /*alternate=*/false);
  ASSERT_EQ(ps.scenario.flows.size(), 72'120u);
  for (const std::uint32_t partitions : {0u, 2u}) {
    const EngineSpec spec{partitions};
    MemoRunner off_runner{MemoConfig{.enabled = false}};
    const MemoRunOutcome base =
        off_runner.run(ps.scenario, ps.pattern, spec, false);
    EXPECT_EQ(base.flows_completed, ps.scenario.flows.size()) << spec.label();
    EXPECT_EQ(base.final_state_fp, 9678658312390758094ULL) << spec.label();
    MemoRunner runner{MemoConfig{}};
    const MemoRunOutcome out =
        runner.run(ps.scenario, ps.pattern, spec, false);
    EXPECT_EQ(out.final_state_fp, base.final_state_fp) << spec.label();
    EXPECT_EQ(out.flows_completed, base.flows_completed) << spec.label();
    EXPECT_GT(out.stats.hits, 0u) << spec.label();
  }
}

// validate_periodic stands in for the flow-list scan on memo runs, so it
// must reject what that scan rejected: here a pattern, and its matching
// expansion, naming host 4 of a 4-host leaf-spine.
TEST(MemoRunnerTest, RejectsPatternEndpointOutOfRange) {
  PeriodicScenario ps;
  ps.scenario.tors = 2;
  ps.scenario.spines = 1;
  ps.scenario.hosts_per_tor = 2;
  ps.scenario.ecmp_port_sensitive = false;
  ps.pattern.period_ns = 1'000'000;
  ps.pattern.phases = 3;
  ps.pattern.pattern = {{0, 2, 10'000, 5'000}, {1, 4, 10'000, 7'000}};
  ps.scenario.duration_ns = ps.pattern.total_duration_ns();
  ps.scenario.flows = expansion(ps.pattern);
  MemoRunner runner{MemoConfig{}};
  try {
    runner.run(ps.scenario, ps.pattern, EngineSpec{}, false);
    ADD_FAILURE() << "MemoRunner accepted an endpoint past the host count";
  } catch (const std::invalid_argument& e) {
    const std::string why = e.what();
    EXPECT_NE(why.find("endpoint 4"), std::string::npos) << why;
  }
  EXPECT_EQ(runner.stats().lookups, 0u);
}

TEST(MemoRunnerTest, RejectsMismatchedScenarioAndPattern) {
  PeriodicScenario ps = small_periodic();
  ps.scenario.flows[0].bytes += 1;  // no longer pattern.expand(1)
  MemoRunner runner{MemoConfig{}};
  EXPECT_THROW(runner.run(ps.scenario, ps.pattern, EngineSpec{}, true),
               std::invalid_argument);
}

// --- adversarial: collisions, mutation, aperiodicity ------------------

TEST(MemoRunnerTest, RejectsApproximatedClustersAndSaysWhy) {
  // An ApproxCluster re-arms its macro-window timer every window, so no
  // phase boundary of a hybrid run is ever quiescent.
  PeriodicScenario ps = small_periodic();
  ps.scenario.clusters = 2;
  ps.scenario.cores = 1;
  ps.scenario.approx.emplace();
  MemoRunner runner{MemoConfig{}};
  try {
    runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
    ADD_FAILURE() << "MemoRunner accepted approximated clusters";
  } catch (const std::invalid_argument& e) {
    const std::string why = e.what();
    EXPECT_NE(why.find("macro-window timer"), std::string::npos) << why;
    EXPECT_NE(why.find("quiescent"), std::string::npos) << why;
  }
}

TEST(MemoRunnerTest, SignatureCollisionNeverProducesFalseHit) {
  // Collapse every signature to a constant: only hit-time verification
  // separates phases. Run pattern A, then a pattern differing in one
  // flow's bytes through the SAME runner (same cache). Every A-entry
  // lookup from B must be rejected (near-miss), and B's digest must
  // still match its own memo-off baseline.
  const PeriodicScenario a = small_periodic();
  PeriodicScenario b = a;
  b.pattern.pattern[1].bytes += 1'460;
  b.scenario.flows = expansion(b.pattern);

  MemoConfig collide;
  collide.debug_collide_signatures = true;
  MemoRunner runner{collide};
  const MemoRunOutcome out_a =
      runner.run(a.scenario, a.pattern, EngineSpec{}, true);
  EXPECT_GT(out_a.stats.hits, 0u);  // A still hits its own phases

  const MemoRunOutcome out_b =
      runner.run(b.scenario, b.pattern, EngineSpec{}, true);
  // B's first lookup collides with A's entry and must be verified away.
  EXPECT_GT(out_b.stats.near_misses, out_a.stats.near_misses);
  EXPECT_GT(out_b.stats.near_miss_pattern, out_a.stats.near_miss_pattern);

  MemoRunner off_runner{MemoConfig{.enabled = false}};
  const MemoRunOutcome base =
      off_runner.run(b.scenario, b.pattern, EngineSpec{}, true);
  EXPECT_EQ(out_b.digest, base.digest);
  EXPECT_EQ(out_b.flows_completed, base.flows_completed);
}

TEST(MemoRunnerTest, MutatedFlowChangesSignature) {
  // Without forced collisions, a one-flow mutation must change the
  // signature outright: pattern B's lookups never even find A's entries.
  const PeriodicScenario a = small_periodic();
  PeriodicScenario b = a;
  b.pattern.pattern[0].bytes += 1'460;
  b.scenario.flows = expansion(b.pattern);

  MemoRunner runner{MemoConfig{}};
  const MemoRunOutcome out_a =
      runner.run(a.scenario, a.pattern, EngineSpec{}, true);
  const MemoRunOutcome out_b =
      runner.run(b.scenario, b.pattern, EngineSpec{}, true);
  // B hit only entries recorded from B's own phases, never A's: its
  // near-miss count stays where A left it.
  EXPECT_EQ(out_b.stats.near_misses, out_a.stats.near_misses);

  MemoRunner off_runner{MemoConfig{.enabled = false}};
  const MemoRunOutcome base =
      off_runner.run(b.scenario, b.pattern, EngineSpec{}, true);
  EXPECT_EQ(out_b.digest, base.digest);
}

TEST(MemoRunnerTest, AperiodicBoundariesYieldZeroHitsAndExactDigest) {
  // Shrink the period so flows straddle every boundary: no quiescent
  // boundary ever forms, the memo layer must never fire, and the chunked
  // run must still be digest-identical to the memo-off chunked run.
  Scenario base;
  base.seed = 7;
  base.tors = 2;
  base.spines = 1;
  base.hosts_per_tor = 2;
  base.duration_ns = 1'000'000;
  base.flows = {
      {0, 2, 80'000, 5'000, 1},
      {1, 3, 80'000, 9'000, 2},
  };
  base.validate();
  const PeriodicScenario ps = make_periodic(base, 8, 60'000);

  MemoRunner on_runner{MemoConfig{}};
  const MemoRunOutcome memoized =
      on_runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  EXPECT_EQ(memoized.stats.hits, 0u);
  EXPECT_EQ(memoized.stats.fast_forwarded_phases, 0u);

  MemoRunner off_runner{MemoConfig{.enabled = false}};
  const MemoRunOutcome base_out =
      off_runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  EXPECT_EQ(memoized.digest, base_out.digest);
}

TEST(MemoRunnerTest, MemoOffChunkedMatchesUnchunkedReference) {
  // The chunked memo-off baseline is anchored to the seed harness: full
  // digest equality against DiffRunner's unchunked sequential run.
  const PeriodicScenario ps = small_periodic();
  MemoRunner off_runner{MemoConfig{.enabled = false}};
  const MemoRunOutcome chunked =
      off_runner.run(ps.scenario, ps.pattern, EngineSpec{}, true);
  const check::DiffRunner ref;
  const check::RunOutcome unchunked = ref.run(ps.scenario, EngineSpec{});
  EXPECT_EQ(chunked.digest, unchunked.digest);
  EXPECT_EQ(chunked.flows_completed, unchunked.flows_completed);
}

TEST(MemoRunnerTest, HitAfterEvictionReRecords) {
  // A one-entry cache alternating between two patterns: every phase
  // change evicts the other pattern's entry, so each run re-records and
  // still ends digest-identical.
  const PeriodicScenario a = small_periodic();
  PeriodicScenario b = a;
  b.pattern.pattern[0].bytes += 1'460;
  b.scenario.flows = expansion(b.pattern);

  MemoConfig tiny;
  tiny.limits.max_entries = 1;
  MemoRunner runner{tiny};
  const MemoRunOutcome a1 =
      runner.run(a.scenario, a.pattern, EngineSpec{}, true);
  EXPECT_GT(a1.stats.hits, 0u);
  const MemoRunOutcome b1 =
      runner.run(b.scenario, b.pattern, EngineSpec{}, true);
  const MemoRunOutcome a2 =
      runner.run(a.scenario, a.pattern, EngineSpec{}, true);
  // A's entry was evicted by B, so the second A run re-recorded (stores
  // grew) and then hit again.
  EXPECT_GT(a2.stats.stores, b1.stats.stores);
  EXPECT_GT(a2.stats.hits, b1.stats.hits);
  EXPECT_GT(a2.stats.evictions, 0u);
  EXPECT_LE(a2.cache_entries, 1u);

  MemoRunner off_runner{MemoConfig{.enabled = false}};
  const MemoRunOutcome base =
      off_runner.run(a.scenario, a.pattern, EngineSpec{}, true);
  EXPECT_EQ(a2.digest, base.digest);
}

TEST(MemoDiffTest, CheckMemoPassesOnPeriodicScenario) {
  const PeriodicScenario ps = small_periodic();
  MemoStats totals;
  const std::string diag = check_memo(ps, {2}, MemoConfig{}, &totals);
  EXPECT_EQ(diag, "") << diag;
  EXPECT_GT(totals.hits, 0u);
}

TEST(MemoDiffTest, MakePeriodicFoldsAndValidates) {
  Scenario base;
  base.seed = 3;
  base.tors = 2;
  base.spines = 1;
  base.hosts_per_tor = 2;
  base.duration_ns = 3'000'000;
  base.flows = {
      {0, 1, 10'000, 950'000, 1},   // start beyond period/2: folded
      {0, 2, 10'000, 1'950'000, 2}, // folds onto the same offset: bumped
      {1, 0, 10'000, 450'000, 3},
  };
  base.validate();
  const PeriodicScenario ps = make_periodic(base, 3, 1'000'000);
  EXPECT_EQ(ps.pattern.pattern.size(), 3u);
  EXPECT_EQ(ps.scenario.flows.size(), 9u);
  EXPECT_EQ(ps.scenario.duration_ns, 3'000'000);
  EXPECT_FALSE(ps.scenario.ecmp_port_sensitive);
  for (const auto& f : ps.pattern.pattern) {
    EXPECT_GE(f.offset_ns, 0);
    EXPECT_LT(f.offset_ns, 1'000'000);
  }
}

// Two same-source flows need two distinct offsets below the period. A
// period of 0 used to die of SIGFPE in the offset bump and one of 1 ns to
// loop forever; both, and a negative period, must throw before folding.
TEST(MemoDiffTest, MakePeriodicRejectsDegeneratePeriod) {
  Scenario base;
  base.tors = 2;
  base.spines = 1;
  base.hosts_per_tor = 2;
  base.duration_ns = 3'000'000;
  base.flows = {{0, 1, 10'000, 0, 1}, {0, 2, 10'000, 0, 2}};
  for (const std::int64_t period : {0, -2, 1}) {
    try {
      make_periodic(base, 3, period);
      ADD_FAILURE() << "make_periodic accepted a period of " << period;
    } catch (const std::invalid_argument& e) {
      const std::string why = e.what();
      if (period == 1) {
        EXPECT_NE(why.find("source 0"), std::string::npos) << why;
      } else {
        EXPECT_NE(why.find("period must be positive"), std::string::npos)
            << why;
      }
    }
  }
}

}  // namespace
}  // namespace esim::memo
