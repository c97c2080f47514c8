// Tests for the differential determinism harness (src/check): digest
// lanes, scenario serialization/validation, the fuzzer's determinism and
// shrinker, and DiffRunner engine comparisons including the injected
// tie-break bug.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "check/diff_runner.h"
#include "check/digest.h"
#include "check/fuzzer.h"
#include "check/scenario.h"
#include "mutate.h"
#include "sim/random.h"

namespace esim::check {
namespace {

Scenario small_scenario() {
  Scenario sc;
  sc.seed = 99;
  sc.tors = 2;
  sc.spines = 2;
  sc.hosts_per_tor = 2;
  sc.duration_ns = 2'000'000;
  sc.flows = {
      FlowSpec{0, 2, 30'000, 5'000, 1},
      FlowSpec{1, 3, 20'000, 7'000, 2},
      FlowSpec{3, 0, 15'000, 9'000, 3},
  };
  sc.validate();
  return sc;
}

// Two same-instant flows from different hosts under one ToR, both to the
// same destination: their SYNs collide at the ToR at the same nanosecond,
// so same-time event ordering alone decides the forwarding order.
Scenario tie_scenario() {
  Scenario sc;
  sc.seed = 42;
  sc.tors = 2;
  sc.spines = 1;
  sc.hosts_per_tor = 2;
  sc.duration_ns = 2'000'000;
  sc.flows = {
      FlowSpec{0, 2, 40'000, 10'000, 1},
      FlowSpec{1, 2, 40'000, 10'000, 2},
  };
  sc.validate();
  return sc;
}

// tie_scenario as a hybrid: three clusters, one core, every cluster but
// cluster 0 approximated, and the two same-instant SYNs headed for an
// approximated cluster. They still queue on one ToR uplink (one agg per
// cluster), so the tie-break decides their order on the way to the core.
Scenario hybrid_tie_scenario() {
  Scenario sc = tie_scenario();
  sc.clusters = 3;
  sc.cores = 1;
  sc.approx.emplace();
  const net::HostId first_of_cluster_1 = sc.tors * sc.hosts_per_tor;
  for (FlowSpec& f : sc.flows) f.dst = first_of_cluster_1;
  sc.validate();
  return sc;
}

TEST(Hash64, OrderSensitive) {
  Hash64 ab, ba;
  ab.absorb(1);
  ab.absorb(2);
  ba.absorb(2);
  ba.absorb(1);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(Hash64, DeterministicAcrossInstances) {
  Hash64 a, b;
  for (std::uint64_t v : {7u, 11u, 13u}) {
    a.absorb(v);
    b.absorb(v);
  }
  EXPECT_EQ(a.value(), b.value());
}

TEST(PacketRecordTest, HashCoversFields) {
  PacketRecord base;
  base.time_ns = 100;
  base.packet_id = 5;
  base.flow_id = 2;
  base.seq = 1460;
  const std::uint64_t h = base.hash();

  PacketRecord r = base;
  r.time_ns = 101;
  EXPECT_NE(r.hash(), h);
  r = base;
  r.dropped = true;
  EXPECT_NE(r.hash(), h);
  r = base;
  r.flags = 0x2;
  EXPECT_NE(r.hash(), h);
  EXPECT_EQ(base.hash(), h);  // hash() has no hidden state
}

TEST(DigestTest, EngineInvariantEqualityIgnoresOrderLane) {
  Digest a, b;
  a.packet_lane = b.packet_lane = 1;
  a.flow_lane = b.flow_lane = 2;
  a.final_lane = b.final_lane = 3;
  a.packets = b.packets = 10;
  a.order_lane = 111;
  b.order_lane = 222;  // engine-specific lane may differ
  a.events = 50;
  b.events = 60;  // per-engine bookkeeping may differ
  EXPECT_TRUE(a.engine_invariant_equal(b));
  EXPECT_FALSE(a == b);

  b.packet_lane = 99;  // behavioural lane must not
  EXPECT_FALSE(a.engine_invariant_equal(b));
}

TEST(DigestTest, CorpusFingerprintFoldsEveryLaneInOrder) {
  Digest a, b;
  a.packet_lane = 1;
  b.flow_lane = 2;
  const std::uint64_t ab = corpus_fingerprint({a, b});
  EXPECT_EQ(corpus_fingerprint({a, b}), ab);
  EXPECT_NE(corpus_fingerprint({b, a}), ab);  // run order matters
  EXPECT_NE(corpus_fingerprint({a}), ab);

  // Every lane and count participates, the order lane included.
  std::uint64_t Digest::*fields[] = {
      &Digest::order_lane, &Digest::packet_lane, &Digest::flow_lane,
      &Digest::final_lane, &Digest::tier_lane,   &Digest::events,
      &Digest::packets,    &Digest::drops,       &Digest::flows,
      &Digest::transitions};
  for (auto field : fields) {
    Digest c = a;
    c.*field += 1;
    EXPECT_NE(corpus_fingerprint({c, b}), ab);
  }
  EXPECT_EQ(fingerprint_hex(0xabcULL), "0000000000000abc");
}

TEST(ScenarioTest, SerializeParseRoundTrip) {
  const Scenario sc = small_scenario();
  const Scenario back = Scenario::parse(sc.serialize());
  EXPECT_EQ(back, sc);

  // Multi-cluster and hybrid scenarios have no text form.
  const Scenario hybrid = hybrid_tie_scenario();
  Scenario clos = hybrid;
  clos.approx.reset();
  EXPECT_NO_THROW(clos.validate());
  EXPECT_THROW(clos.serialize(), std::invalid_argument);
  EXPECT_THROW(hybrid.serialize(), std::invalid_argument);
}

TEST(ScenarioTest, SaveLoadRoundTrip) {
  const Scenario sc = small_scenario();
  const std::string path =
      testing::TempDir() + "/check_test_scenario.scenario";
  save_scenario(sc, path);
  EXPECT_EQ(load_scenario(path), sc);
  std::remove(path.c_str());
}

TEST(ScenarioTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(Scenario::parse("seed=1\n"), std::invalid_argument);  // header
  const std::string header = "# esim_diffcheck scenario v1\n";
  EXPECT_THROW(Scenario::parse(header + "bogus_key=1\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse(header + "seed=notanumber\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse(header + "flow=1,2,3\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse(header + "tcp=cubic\n"),
               std::invalid_argument);

  // Values that do not fit their field throw naming the key instead of
  // aliasing (a host id past 32 bits, a wrapped host count, a sign read
  // as 2^64 - 1, a horizon whose time sums overflow int64).
  const std::pair<std::string, std::string> out_of_range[] = {
      {"flow=0,4294967297,1000,10,1\n", "flow"},
      {"tors=4294967298\n", "tors"},
      {"tors=65536\nhosts_per_tor=65536\n", "hosts_per_tor"},
      {"tors=-1\n", "tors"},
      {"duration_ns=9223372036854775807\n"
       "flow=0,1,1000,9223372036854775000,1\n",
       "duration_ns"},
  };
  for (const auto& [body, key] : out_of_range) {
    try {
      Scenario::parse(header + body);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(key), std::string::npos)
          << e.what();
    }
  }
}


// A repeated key is refused, not resolved to its last value; `flow` is
// the one key a file repeats.
TEST(ScenarioTest, ParseRejectsRepeatedKey) {
  const std::string text = small_scenario().serialize();
  for (const char* extra : {"tors=3\n", "seed=99\n", "tcp=dctcp\n"}) {
    const std::string key{extra, std::string{extra}.find('=')};
    try {
      Scenario::parse(text + extra);
      ADD_FAILURE() << "accepted a second " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("repeated key '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(Scenario::parse(text).flows.size(), 3u);
}

// Mutated scenario files either load, and then round-trip through
// serialize, or throw a std::exception with a message; under asan-ubsan
// every mutation also runs sanitized.
TEST(ScenarioTest, MutatedTextLoadsOrThrowsWithMessage) {
  const std::string valid = small_scenario().serialize();
  sim::Rng rng{31};
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string text = test::mutate(valid, rng);
    try {
      const Scenario sc = Scenario::parse(text);
      EXPECT_EQ(Scenario::parse(sc.serialize()), sc) << "mutation " << i;
      ++loaded;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string{e.what()}, "") << "mutation " << i;
      ++rejected;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ScenarioTest, ValidateRejectsInconsistentFlows) {
  Scenario sc = small_scenario();
  sc.flows[0].dst = sc.flows[0].src;
  EXPECT_THROW(sc.validate(), std::invalid_argument);

  sc = small_scenario();
  sc.flows[0].src = sc.total_hosts();
  EXPECT_THROW(sc.validate(), std::invalid_argument);

  sc = small_scenario();
  sc.flows[1].flow_id = sc.flows[0].flow_id;
  EXPECT_THROW(sc.validate(), std::invalid_argument);

  sc = small_scenario();
  sc.flows[1].start_ns = sc.duration_ns;
  EXPECT_THROW(sc.validate(), std::invalid_argument);

  // Same-instant starts on ONE host are ambiguous (port assignment order);
  // on different hosts they are allowed (and used by the selftest).
  sc = small_scenario();
  sc.flows.push_back(FlowSpec{1, 3, 1000, sc.flows[0].start_ns, 9});
  EXPECT_NO_THROW(sc.validate());
  sc.flows.back().src = sc.flows[0].src;  // now same host, same instant
  EXPECT_THROW(sc.validate(), std::invalid_argument);
}

// run_scenario scans the flow list whenever it injects that list itself;
// only a drive hook, which validates what it injects, skips the scan.
TEST(ScenarioTest, PlainRunRejectsRepeatedFlowId) {
  Scenario sc = small_scenario();
  sc.flows[2].flow_id = sc.flows[0].flow_id;
  for (const std::uint32_t partitions : {0u, 2u}) {
    try {
      run_scenario(sc, {partitions}, sim::SimTime::from_ns(sc.duration_ns));
      ADD_FAILURE() << "accepted a repeated flow id, partitions "
                    << partitions;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("flow ids must be unique"),
                std::string::npos)
          << e.what();
    }
  }
}

// Harness runs may go to PDES, so a latency floor below the 1 us
// lookahead fails validate(), not the partitioned build.
TEST(ScenarioTest, ValidateRejectsLatencyFloorBelowLookahead) {
  Scenario sc = hybrid_tie_scenario();
  sc.approx->min_latency_us = 0.5;
  EXPECT_THROW(sc.validate(), std::invalid_argument);
  sc.approx->min_latency_us = 1.0;  // exactly the lookahead
  EXPECT_NO_THROW(sc.validate());
  EXPECT_NO_THROW(DiffRunner{}.run(sc, {2}));
}

// Each flow list carries two faults (the last one three); validate() must
// throw at the earlier faulty flow, with that flow's first failing check.
TEST(ScenarioTest, ValidateReportsFirstFailingFlowInListOrder) {
  const std::string repeated_id = "scenario: flow ids must be unique and > 0";
  const std::string repeated_start =
      "scenario: per-host flow start times must be unique (two same-instant "
      "open_flow calls on one host would leave port assignment "
      "order-dependent)";
  const std::string out_of_range = "scenario: flow endpoint out of range";
  const std::string late_start = "scenario: flow start outside [0, duration)";
  const struct {
    const char* what;
    std::vector<FlowSpec> flows;
    std::string message;
  } cases[] = {
      {"repeated start, then repeated id",
       {{0, 2, 1000, 5'000, 1}, {0, 3, 1000, 5'000, 2}, {1, 3, 1000, 7'000, 1}},
       repeated_start},
      {"repeated id, then repeated start",
       {{0, 2, 1000, 5'000, 1}, {1, 3, 1000, 7'000, 1}, {0, 3, 1000, 5'000, 3}},
       repeated_id},
      {"one flow repeating both id and start",
       {{0, 2, 1000, 5'000, 1}, {0, 3, 1000, 5'000, 1}},
       repeated_id},
      {"repeated id whose first copy sorts after a smaller id",
       {{0, 2, 1000, 5'000, 5}, {1, 3, 1000, 7'000, 3}, {3, 0, 1000, 5'000, 4},
        {2, 0, 1000, 9'000, 5}, {0, 3, 1000, 5'000, 6}},
       repeated_id},
      {"endpoint out of range, then repeated id",
       {{0, 2, 1000, 5'000, 1}, {0, 9, 1000, 7'000, 2}, {1, 3, 1000, 9'000, 1}},
       out_of_range},
      {"start past the horizon, then repeated start",
       {{0, 2, 1000, 5'000, 1}, {1, 3, 1000, 2'000'000, 2},
        {0, 3, 1000, 5'000, 3}},
       late_start},
      {"repeated start, then id 0",
       {{0, 2, 1000, 5'000, 1}, {0, 3, 1000, 5'000, 2}, {1, 3, 1000, 7'000, 0}},
       repeated_start},
      {"id 0, then repeated start",
       {{0, 2, 1000, 5'000, 1}, {1, 3, 1000, 7'000, 0}, {0, 3, 1000, 5'000, 3}},
       repeated_id},
      {"three copies of one start after a repeated id",
       {{2, 0, 1000, 1'000, 1}, {1, 3, 1000, 7'000, 1}, {2, 1, 1000, 1'000, 3},
        {2, 3, 1000, 1'000, 4}},
       repeated_id},
  };
  for (const auto& c : cases) {
    Scenario sc = small_scenario();
    sc.flows = c.flows;
    try {
      sc.validate();
      ADD_FAILURE() << "accepted: " << c.what;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()}, c.message) << c.what;
    }
  }
}

TEST(FuzzerTest, SameSeedSameSequence) {
  ScenarioFuzzer a{2024}, b{2024};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a.next(), b.next());
  ScenarioFuzzer c{2025};
  EXPECT_NE(ScenarioFuzzer{2024}.next(), c.next());
}

TEST(FuzzerTest, GeneratedScenariosAreValidWithUniqueStarts) {
  ScenarioFuzzer fuzzer{7};
  for (int i = 0; i < 20; ++i) {
    const Scenario sc = fuzzer.next();
    EXPECT_NO_THROW(sc.validate());
    std::set<std::int64_t> starts;
    for (const FlowSpec& f : sc.flows) {
      EXPECT_TRUE(starts.insert(f.start_ns).second)
          << "fuzzer must draw globally unique start times";
    }
  }
}

TEST(FuzzerTest, ShrinkMinimizesAgainstPredicate) {
  ScenarioFuzzer fuzzer{11};
  Scenario sc = fuzzer.next();
  ASSERT_GE(sc.flows.size(), 4u);
  const std::uint64_t keep_id = sc.flows[2].flow_id;

  // Synthetic failure: "still fails" while flow `keep_id` is present.
  const Scenario shrunk =
      fuzzer.shrink(sc, [keep_id](const Scenario& cand) {
        for (const FlowSpec& f : cand.flows) {
          if (f.flow_id == keep_id) return true;
        }
        return false;
      });
  ASSERT_EQ(shrunk.flows.size(), 1u);
  EXPECT_EQ(shrunk.flows[0].flow_id, keep_id);
  EXPECT_LT(shrunk.duration_ns, sc.duration_ns);
  EXPECT_NO_THROW(shrunk.validate());
}

TEST(DiffRunnerTest, SequentialRunIsReproducible) {
  DiffRunner runner;
  const Scenario sc = small_scenario();
  const auto a = runner.run(sc, EngineSpec{});
  const auto b = runner.run(sc, EngineSpec{});
  EXPECT_EQ(a.digest, b.digest);  // full equality, order lane included
  EXPECT_EQ(a.flows_completed, sc.flows.size());
  EXPECT_GT(a.digest.packets, 0u);
}

TEST(DiffRunnerTest, SequentialMatchesPdesAcrossPartitionCounts) {
  DiffRunner runner;
  const Scenario sc = small_scenario();
  const auto reports = runner.check_all(sc, {1, 2, 4});
  ASSERT_EQ(reports.size(), 4u);  // 3 cross-engine + 1 rerun determinism
  for (const auto& r : reports) {
    EXPECT_TRUE(r.equivalent) << r.to_string();
  }
  EXPECT_EQ(reports.back().relation, Relation::FullDigest);
}

TEST(DiffRunnerTest, InjectedTiebreakBugIsCaughtAndLocalized) {
  DiffRunner runner;
  EngineSpec inverted;
  inverted.invert_tiebreak = true;

  // All-packet and hybrid runs share one run path and one localizer.
  for (const Scenario& sc : {tie_scenario(), hybrid_tie_scenario()}) {
    SCOPED_TRACE(sc.summary());
    const DiffReport report = runner.diff(sc, EngineSpec{}, inverted);
    ASSERT_FALSE(report.equivalent);
    EXPECT_GT(report.divergence_window_ns, 0);
    EXPECT_LE(report.divergence_window_ns, sc.duration_ns);
    ASSERT_TRUE(report.first.found);
    EXPECT_FALSE(report.first.link.empty());
    EXPECT_NE(report.first.base_record, report.first.other_record);
  }
}

TEST(DiffRunnerTest, CheckAllFlagsInjectedBugOnPdes) {
  DiffRunner runner;
  const Scenario sc = tie_scenario();
  const auto reports =
      runner.check_all(sc, {2}, /*inject_tiebreak_bug=*/true);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[0].equivalent)
      << "sequential vs bugged pdes(2) must diverge";
}

TEST(StateDigestTest, CaptureIsBoundedAndKeyedByLink) {
  DiffRunner runner;
  const Scenario sc = small_scenario();
  const auto out = runner.run(
      sc, EngineSpec{}, sim::SimTime::from_ns(sc.duration_ns),
      /*capture=*/true);
  ASSERT_FALSE(out.records.empty());
  std::uint64_t total = 0;
  for (const auto& [link, records] : out.records) {
    EXPECT_FALSE(link.empty());
    for (std::size_t i = 1; i < records.size(); ++i) {
      EXPECT_LE(records[i - 1].time_ns, records[i].time_ns)
          << "per-link record streams are time-ordered";
    }
    total += records.size();
  }
  EXPECT_EQ(total, out.digest.packets + out.digest.drops);
}

}  // namespace
}  // namespace esim::check
