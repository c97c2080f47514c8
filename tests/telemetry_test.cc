// Tests for the telemetry stack: registry/instrument semantics, Chrome
// trace emission, run reports, and the contract that enabling telemetry
// never changes simulation outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/network.h"
#include "sim/parallel.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"
#include "workload/generator.h"

namespace esim {
namespace {

using telemetry::Histogram;
using telemetry::InstrumentSnapshot;
using telemetry::Json;

// --- instruments ---

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  for (std::size_t i = 1; i < 64; ++i) {
    const std::uint64_t lo = std::uint64_t{1} << (i - 1);
    EXPECT_EQ(Histogram::bucket_of(lo), i);
    EXPECT_EQ(Histogram::bucket_of(2 * lo - 1), i);
    EXPECT_EQ(Histogram::bucket_lower_bound(i), lo);
  }
  EXPECT_EQ(Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);
  static_assert(Histogram::kBuckets == 65);
}

TEST(Histogram, RecordAccumulatesCountSumAndBuckets) {
  Histogram h;
  for (const std::uint64_t v : {0u, 1u, 2u, 3u, 1000u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(1000)), 1u);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  telemetry::Registry r;
  Histogram* h = r.histogram("h");
  // Empty histogram: every quantile is 0.
  EXPECT_EQ(r.snapshot().find("h")->quantile(0.5), 0.0);

  // All samples in bucket 0 (the exact value 0).
  for (int i = 0; i < 10; ++i) h->record(0);
  EXPECT_EQ(r.snapshot().find("h")->quantile(0.99), 0.0);

  // Two equally sized buckets: [4,8) then [64,128). The median falls on
  // the boundary between them, p25 inside the first, p75 inside the
  // second — log-linear interpolation keeps each inside its bucket span.
  telemetry::Registry r2;
  Histogram* h2 = r2.histogram("h2");
  for (int i = 0; i < 100; ++i) h2->record(5);
  for (int i = 0; i < 100; ++i) h2->record(100);
  const telemetry::Snapshot snap2 = r2.snapshot();
  const InstrumentSnapshot* s = snap2.find("h2");
  const double p25 = s->quantile(0.25);
  EXPECT_GE(p25, 4.0);
  EXPECT_LT(p25, 8.0);
  const double p75 = s->quantile(0.75);
  EXPECT_GE(p75, 64.0);
  EXPECT_LT(p75, 128.0);
  // q=1 lands on the last bucket's exclusive upper bound.
  EXPECT_EQ(s->quantile(1.0), 128.0);
  // Out-of-range q clamps instead of reading past the buckets.
  EXPECT_EQ(s->quantile(1.5), 128.0);
  EXPECT_GE(s->quantile(-0.5), 0.0);

  // A single-bucket histogram interpolates monotonically across it.
  telemetry::Registry r3;
  Histogram* h3 = r3.histogram("h3");
  for (int i = 0; i < 1000; ++i) h3->record(16);
  const telemetry::Snapshot snap3 = r3.snapshot();
  const InstrumentSnapshot* s3 = snap3.find("h3");
  EXPECT_LE(s3->quantile(0.1), s3->quantile(0.5));
  EXPECT_LE(s3->quantile(0.5), s3->quantile(0.9));
  EXPECT_GE(s3->quantile(0.1), 16.0);
  EXPECT_LT(s3->quantile(0.9), 32.0);
}

TEST(Histogram, SnapshotJsonCarriesQuantiles) {
  telemetry::Registry r;
  Histogram* h = r.histogram("lat");
  for (int i = 0; i < 90; ++i) h->record(10);
  for (int i = 0; i < 10; ++i) h->record(1000);
  const Json doc = r.snapshot().to_json();
  const Json* j = doc.find("lat");
  ASSERT_NE(j, nullptr);
  const double p50 = j->find("p50")->as_double();
  const double p90 = j->find("p90")->as_double();
  const double p99 = j->find("p99")->as_double();
  EXPECT_GE(p50, 8.0);
  EXPECT_LT(p50, 16.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LT(p99, 2048.0);
}

TEST(Counter, WrapsModulo64Bits) {
  telemetry::Counter c;
  c.set(std::numeric_limits<std::uint64_t>::max());
  c.inc();
  EXPECT_EQ(c.value(), 0u);
  c.inc(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(Gauge, SetAndAddAreSigned) {
  telemetry::Gauge g;
  g.set(-3);
  g.add(10);
  EXPECT_EQ(g.value(), 7);
}

// --- registry ---

TEST(Registry, InterningReturnsStablePointers) {
  telemetry::Registry r;
  auto* a = r.counter("net.link.sent");
  auto* b = r.counter("net.link.sent");
  EXPECT_EQ(a, b);
  // Registering more instruments must not move earlier ones.
  for (int i = 0; i < 100; ++i) r.counter("c" + std::to_string(i));
  EXPECT_EQ(r.counter("net.link.sent"), a);
  EXPECT_EQ(r.instrument_count(), 101u);
}

TEST(Registry, KindMismatchThrows) {
  telemetry::Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::logic_error);
  EXPECT_THROW(r.histogram("x"), std::logic_error);
  r.histogram("h");
  EXPECT_THROW(r.counter("h"), std::logic_error);
}

TEST(Registry, SnapshotRunsFlushersAndDetaches) {
  telemetry::Registry r;
  auto* c = r.counter("pulled");
  std::uint64_t external_total = 41;
  r.add_flusher([&] { c->set(external_total); });
  auto snap = r.snapshot();
  const auto* inst = snap.find("pulled");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->counter, 41u);
  // The snapshot is a copy: later updates don't retroactively change it.
  external_total = 99;
  EXPECT_EQ(snap.find("pulled")->counter, 41u);
  EXPECT_EQ(r.snapshot().find("pulled")->counter, 99u);
}

TEST(Registry, SnapshotToJsonShapes) {
  telemetry::Registry r;
  r.counter("c")->inc(3);
  r.gauge("g")->set(-2);
  r.histogram("h")->record(5);
  const Json doc = r.snapshot().to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("c")->as_uint(), 3u);
  EXPECT_EQ(doc.find("g")->as_int(), -2);
  const Json* h = doc.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_uint(), 1u);
  EXPECT_EQ(h->find("sum")->as_uint(), 5u);
  ASSERT_EQ(h->find("buckets")->size(), 1u);
  EXPECT_EQ(h->find("buckets")->at(0).at(0).as_uint(), 4u);  // lower bound
  EXPECT_EQ(h->find("buckets")->at(0).at(1).as_uint(), 1u);  // count
}

// --- json ---

TEST(Json, DumpParseRoundTrip) {
  Json doc = Json::object();
  doc["s"] = "he said \"hi\"\n";
  doc["i"] = std::int64_t{-7};
  doc["u"] = std::uint64_t{18446744073709551615ull};
  doc["d"] = 0.25;
  doc["b"] = true;
  doc["n"] = nullptr;
  doc["arr"].push_back(1);
  doc["arr"].push_back(Json::object());
  const auto parsed = Json::parse(doc.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("s")->as_string(), "he said \"hi\"\n");
  EXPECT_EQ(parsed->find("i")->as_int(), -7);
  EXPECT_EQ(parsed->find("u")->as_uint(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parsed->find("d")->as_double(), 0.25);
  EXPECT_TRUE(parsed->find("b")->as_bool());
  EXPECT_TRUE(parsed->find("n")->is_null());
  EXPECT_EQ(parsed->find("arr")->size(), 2u);
  // Compact form parses too.
  EXPECT_TRUE(Json::parse(doc.dump(0)).has_value());
  EXPECT_FALSE(Json::parse("{\"unterminated\": ").has_value());
}

// --- trace ---

TEST(Trace, ChromeJsonIsValidOrderedAndLabelled) {
  telemetry::TraceSession session;
  session.start();
  session.set_thread_name("main");
  {
    telemetry::Span outer{"outer"};
    telemetry::trace_instant("tick", 42);
    telemetry::Span inner{"inner"};
  }
  std::thread worker([&] {
    if (auto* s = telemetry::TraceSession::active()) {
      s->set_thread_name("worker");
    }
    telemetry::Span span{"worker_span"};
  });
  worker.join();
  session.stop();
  EXPECT_EQ(telemetry::TraceSession::active(), nullptr);

  const Json doc = session.chrome_trace();
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::vector<std::string> names;
  double last_ts = -1.0;
  std::uint64_t tids_seen = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    EXPECT_EQ(e.find("pid")->as_int(), 0);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") {
      EXPECT_EQ(e.find("name")->as_string(), "thread_name");
      continue;
    }
    ASSERT_TRUE(ph == "X" || ph == "i") << ph;
    names.push_back(e.find("name")->as_string());
    const double ts = e.find("ts")->as_double();
    EXPECT_GE(ts, last_ts);  // sorted by timestamp
    last_ts = ts;
    if (ph == "X") {
      EXPECT_GE(e.find("dur")->as_double(), 0.0);
    }
    tids_seen |= std::uint64_t{1} << e.find("tid")->as_uint();
  }
  // Both threads recorded; span nesting puts outer first at equal names.
  EXPECT_NE(tids_seen & 1, 0u);
  EXPECT_NE(tids_seen & 2, 0u);
  for (const char* expect : {"outer", "inner", "tick", "worker_span"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
        << expect;
  }

  const std::string path = ::testing::TempDir() + "esim_trace_test.json";
  ASSERT_TRUE(session.write_chrome_json(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  const auto reparsed = Json::parse(text);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->find("traceEvents")->size(), events->size());
}

TEST(Trace, RingOverflowAtSixteenPartitionsKeepsNewestAndCounts) {
  // 16 emitter threads (the partition count the scaling bench targets),
  // each pushing far more events than its ring holds. Overflow must (a)
  // be counted exactly, (b) retain only the newest `events_per_thread`
  // per thread, and (c) still serialize to a well-formed ordered trace.
  constexpr std::size_t kRing = 64;
  constexpr std::size_t kThreads = 16;
  constexpr std::size_t kPerThread = 1000;
  telemetry::TraceSession::Config cfg;
  cfg.events_per_thread = kRing;
  telemetry::TraceSession session{cfg};
  session.start();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&session, t] {
      session.set_thread_name("partition " + std::to_string(t));
      for (std::size_t k = 0; k < kPerThread; ++k) {
        session.instant("evt", static_cast<std::int64_t>(k));
      }
    });
  }
  for (auto& w : workers) w.join();
  session.stop();

  EXPECT_EQ(session.overwritten(), kThreads * (kPerThread - kRing));

  const Json doc = session.chrome_trace();
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // kRing retained events per thread plus one thread_name metadata
  // record per named thread.
  EXPECT_EQ(events->size(), kThreads * kRing + kThreads);
  std::size_t instants = 0;
  double last_ts = std::numeric_limits<double>::lowest();
  std::vector<std::int64_t> min_arg(kThreads + 1,
                                    std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    if (e.find("ph")->as_string() == "M") continue;
    ++instants;
    const double ts = e.find("ts")->as_double();
    EXPECT_GE(ts, last_ts);  // sorted by timestamp
    last_ts = ts;
    const auto tid = static_cast<std::size_t>(e.find("tid")->as_int());
    ASSERT_LT(tid, min_arg.size());
    const Json* args = e.find("args");
    ASSERT_NE(args, nullptr);
    min_arg[tid] = std::min(min_arg[tid], args->find("v")->as_int());
  }
  EXPECT_EQ(instants, kThreads * kRing);
  // Oldest events were overwritten: every retained arg is from the tail
  // of its thread's sequence.
  for (std::size_t t = 0; t < min_arg.size(); ++t) {
    if (min_arg[t] == std::numeric_limits<std::int64_t>::max()) continue;
    EXPECT_EQ(min_arg[t], static_cast<std::int64_t>(kPerThread - kRing));
  }
}

TEST(Trace, InactiveSessionCostsNothingAndRecordsNothing) {
  ASSERT_EQ(telemetry::TraceSession::active(), nullptr);
  { telemetry::Span span{"ignored"}; }
  telemetry::trace_instant("ignored");
  telemetry::TraceSession session;
  const Json doc = session.chrome_trace();
  EXPECT_EQ(doc.find("traceEvents")->size(), 0u);
}

TEST(Trace, SecondConcurrentSessionThrows) {
  telemetry::TraceSession a;
  a.start();
  telemetry::TraceSession b;
  EXPECT_THROW(b.start(), std::logic_error);
  a.stop();
}

// --- run report ---

TEST(RunReport, DottedPathsAndVersionHeader) {
  telemetry::RunReport report{"unit"};
  report.set("a.b.c", std::uint64_t{7});
  report.set("a.b.d", "x");
  telemetry::Registry r;
  r.counter("m")->inc();
  report.add_metrics(r.snapshot(), "a.metrics");
  const auto parsed = Json::parse(report.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("esim_report")->find("version")->as_int(),
            telemetry::RunReport::kVersion);
  EXPECT_EQ(parsed->find("esim_report")->find("name")->as_string(), "unit");
  const Json* a = parsed->find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->find("b")->find("c")->as_uint(), 7u);
  EXPECT_EQ(a->find("b")->find("d")->as_string(), "x");
  EXPECT_EQ(a->find("metrics")->find("m")->as_uint(), 1u);
}

// --- end-to-end: metrics from a real run, and the determinism contract ---

core::ExperimentConfig tiny_experiment() {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = 2;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  cfg.load = 0.3;
  cfg.duration = sim::SimTime::from_ms(2);
  cfg.seed = 321;
  return cfg;
}

TEST(TelemetryIntegration, FullRunPublishesSimNetAndTcpMetrics) {
  auto cfg = tiny_experiment();
  cfg.telemetry = true;
  const auto result = core::run_full_simulation(cfg, cfg.net.spec);
  const auto& m = result.metrics;
  ASSERT_FALSE(m.instruments.empty());
  ASSERT_NE(m.find("sim.events_executed"), nullptr);
  EXPECT_EQ(m.find("sim.events_executed")->counter, result.events_executed);
  ASSERT_NE(m.find("net.link.sent"), nullptr);
  EXPECT_GT(m.find("net.link.sent")->counter, 0u);
  ASSERT_NE(m.find("net.switch.forwarded"), nullptr);
  EXPECT_GT(m.find("net.switch.forwarded")->counter, 0u);
  ASSERT_NE(m.find("tcp.segments_sent"), nullptr);
  EXPECT_GT(m.find("tcp.segments_sent")->counter, 0u);
  ASSERT_NE(m.find("net.link.queue_depth_bytes"), nullptr);
  EXPECT_EQ(m.find("net.link.queue_depth_bytes")->count,
            m.find("net.link.sent")->counter);
  // Region totals come straight off the links, telemetry or not.
  EXPECT_GT(result.regions.host_uplinks.sent, 0u);
}

TEST(TelemetryIntegration, EnablingTelemetryDoesNotChangeOutputs) {
  auto off = tiny_experiment();
  auto on = tiny_experiment();
  on.telemetry = true;
  // Tracing is ambient: exercise it too, to prove spans don't perturb.
  telemetry::TraceSession trace;
  trace.start();
  const auto a = core::run_full_simulation(on, on.net.spec);
  trace.stop();
  const auto b = core::run_full_simulation(off, off.net.spec);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.flows_launched, b.flows_launched);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.rtt_cdf.size(), b.rtt_cdf.size());
  if (!a.rtt_cdf.empty()) {
    EXPECT_EQ(a.rtt_cdf.quantile(0.5), b.rtt_cdf.quantile(0.5));
    EXPECT_EQ(a.rtt_cdf.quantile(0.99), b.rtt_cdf.quantile(0.99));
  }
  EXPECT_EQ(a.regions.host_uplinks.sent, b.regions.host_uplinks.sent);
  EXPECT_EQ(a.regions.core.dropped, b.regions.core.dropped);
  EXPECT_TRUE(b.metrics.instruments.empty());
}

TEST(TelemetryIntegration, PdesRunPublishesPartitionMetricsAndTrace) {
  auto run = [](bool telemetry, telemetry::Snapshot* snap_out,
                Json* trace_out) {
    sim::ParallelEngine::Config ecfg;
    ecfg.num_partitions = 2;
    ecfg.lookahead = sim::SimTime::from_us(1);
    ecfg.seed = 5;
    telemetry::Registry registry;
    telemetry::TraceSession trace;
    sim::ParallelEngine engine{ecfg};
    if (telemetry) {
      engine.set_telemetry(&registry);
      trace.start();
    }
    core::NetworkConfig net_cfg;
    net_cfg.spec.clusters = 1;
    net_cfg.spec.tors_per_cluster = 2;
    net_cfg.spec.aggs_per_cluster = 2;
    net_cfg.spec.hosts_per_tor = 2;
    net_cfg.spec.cores = 0;
    const auto built = core::build_clos_partitioned(engine, net_cfg);
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{built.net.spec.total_hosts()};
    const auto duration = sim::SimTime::from_us(500);
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = 0.3;
    gcfg.stop_at = duration;
    workload::start_traffic(core::partition_sims(engine), built.net.hosts,
                            built.partition_of_host, sizes.get(), &matrix,
                            gcfg);
    engine.run_until(duration);
    if (telemetry) {
      trace.stop();
      *snap_out = registry.snapshot();
      *trace_out = trace.chrome_trace();
    }
    return engine.stats();
  };

  telemetry::Snapshot snap;
  Json trace_doc;
  const auto with = run(true, &snap, &trace_doc);
  const auto without = run(false, nullptr, nullptr);

  // Determinism: identical virtual execution either way.
  EXPECT_EQ(with.events_executed, without.events_executed);
  EXPECT_EQ(with.sync_rounds, without.sync_rounds);
  EXPECT_EQ(with.cross_messages, without.cross_messages);

  ASSERT_NE(snap.find("pdes.sync_rounds"), nullptr);
  EXPECT_EQ(snap.find("pdes.sync_rounds")->counter, with.sync_rounds);
  ASSERT_NE(snap.find("pdes.events_executed"), nullptr);
  EXPECT_EQ(snap.find("pdes.events_executed")->counter, with.events_executed);
  for (const char* name :
       {"pdes.p0.events_executed", "pdes.p1.events_executed",
        "pdes.p0.inbox_drained", "pdes.p0.sync_wait_ns"}) {
    ASSERT_NE(snap.find(name), nullptr) << name;
  }
  EXPECT_GT(snap.find("pdes.p0.events_executed")->counter, 0u);

  // The trace contains per-partition window spans and sync-round instants.
  const Json* events = trace_doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_window = false;
  bool saw_sync_round = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const std::string name = events->at(i).find("name")->as_string();
    if (name == "pdes.window") saw_window = true;
    if (name == "pdes.sync_round") saw_sync_round = true;
  }
  EXPECT_TRUE(saw_window);
  EXPECT_TRUE(saw_sync_round);
}

}  // namespace
}  // namespace esim
