// Tests for the fidelity observatory (DESIGN.md §11): deterministic
// shadow admission, congestion classification, drift bands, the JSONL
// time-series export, the run-report section, and — the load-bearing
// contract — that enabling fidelity leaves a hybrid run's FULL digest
// bit-identical, sequentially and under PDES.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/diff_runner.h"
#include "check/fuzzer.h"
#include "core/experiment.h"
#include "core/run_report.h"
#include "telemetry/fidelity.h"
#include "telemetry/metrics.h"

namespace esim {
namespace {

using check::Digest;
using check::Scenario;
using telemetry::ClusterFidelityProbe;
using telemetry::CongestionState;
using telemetry::FidelityBand;
using telemetry::FidelityConfig;
using telemetry::FidelityRow;
using telemetry::FidelitySink;
using telemetry::Json;

/// A sequential run of `sc` with `sink` attached to every ApproxCluster.
Digest run_with_sink(const Scenario& sc, FidelitySink* sink) {
  check::RunHooks hooks;
  hooks.fidelity = sink;
  return check::run_scenario(sc, {}, sim::SimTime::from_ns(sc.duration_ns),
                             hooks)
      .digest;
}

FidelityConfig enabled_config() {
  FidelityConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = 16;
  return cfg;
}

// --- shadow admission ---

TEST(FidelityProbe, ShadowAdmissionIsDeterministicAndNearRate) {
  FidelityConfig cfg = enabled_config();
  cfg.sample_period = 64;
  FidelitySink sink{cfg};
  ClusterFidelityProbe probe{sink, 1, 10e9, nullptr};

  std::uint64_t admitted = 0;
  constexpr std::uint64_t kIds = 100'000;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    const bool a = probe.shadow_admit(id);
    // Pure function of (id, seed): identical on every call.
    EXPECT_EQ(a, probe.shadow_admit(id));
    if (a) ++admitted;
  }
  // Hash admission approximates 1/64; allow generous slack.
  const double rate = static_cast<double>(admitted) / kIds;
  EXPECT_GT(rate, 0.5 / 64.0);
  EXPECT_LT(rate, 2.0 / 64.0);

  // A different seed admits a (mostly) different subset.
  FidelityConfig other = cfg;
  other.seed ^= 0x1234'5678;
  FidelitySink sink2{other};
  ClusterFidelityProbe probe2{sink2, 1, 10e9, nullptr};
  std::uint64_t overlap = 0;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    if (probe.shadow_admit(id) && probe2.shadow_admit(id)) ++overlap;
  }
  EXPECT_LT(overlap, admitted / 4);
}

TEST(FidelityProbe, SamplePeriodZeroDisablesShadowingOnly) {
  FidelityConfig cfg = enabled_config();
  cfg.sample_period = 0;
  FidelitySink sink{cfg};
  ClusterFidelityProbe probe{sink, 0, 10e9, nullptr};
  for (std::uint64_t id = 0; id < 1000; ++id) {
    EXPECT_FALSE(probe.shadow_admit(id));
  }
  // Congestion tracking still works without shadowing.
  probe.observe_packet(1500, false);
  probe.on_macro_window(1'000'000, 1'000'000);
  EXPECT_EQ(sink.rows_appended(), 1u);
}

// --- congestion classification ---

TEST(FidelityProbe, ClassifiesQuiescentNominalCongested) {
  FidelityConfig cfg = enabled_config();
  cfg.ewma_alpha = 1.0;  // no smoothing: each window classifies alone
  FidelitySink sink{cfg};
  // Capacity 1 Gbps; a 1 ms window carries capacity*1ms = 125 KB.
  ClusterFidelityProbe probe{sink, 2, 1e9, nullptr};
  constexpr std::int64_t kWin = 1'000'000;
  std::int64_t now = 0;

  // ~80% utilization -> congested.
  for (int i = 0; i < 100; ++i) probe.observe_packet(1000, false);
  probe.on_macro_window(now += kWin, kWin);
  EXPECT_EQ(probe.state(), CongestionState::Congested);

  // ~8% utilization, no drops -> nominal.
  for (int i = 0; i < 10; ++i) probe.observe_packet(1000, false);
  probe.on_macro_window(now += kWin, kWin);
  EXPECT_EQ(probe.state(), CongestionState::Nominal);

  // ~0.08% utilization -> quiescent.
  probe.observe_packet(100, false);
  probe.on_macro_window(now += kWin, kWin);
  EXPECT_EQ(probe.state(), CongestionState::Quiescent);

  // Low utilization but heavy drops -> congested (drop-rate trigger).
  for (int i = 0; i < 10; ++i) probe.observe_packet(100, i < 5);
  probe.on_macro_window(now += kWin, kWin);
  EXPECT_EQ(probe.state(), CongestionState::Congested);

  const auto rows = sink.rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].state, CongestionState::Congested);
  EXPECT_EQ(rows[1].state, CongestionState::Nominal);
  EXPECT_EQ(rows[2].state, CongestionState::Quiescent);
  EXPECT_EQ(rows[3].state, CongestionState::Congested);
  EXPECT_NEAR(rows[0].utilization, 0.8, 0.01);
  EXPECT_EQ(rows[3].predicted_drops, 5u);
}

TEST(FidelityProbe, EwmaSmoothsAcrossWindows) {
  FidelityConfig cfg = enabled_config();
  cfg.ewma_alpha = 0.3;
  FidelitySink sink{cfg};
  ClusterFidelityProbe probe{sink, 0, 1e9, nullptr};
  constexpr std::int64_t kWin = 1'000'000;

  // First window seeds the EWMA directly (no decay from zero).
  for (int i = 0; i < 100; ++i) probe.observe_packet(1000, false);
  probe.on_macro_window(kWin, kWin);
  EXPECT_NEAR(probe.utilization_ewma(), 0.8, 0.01);

  // An idle window decays by alpha, not to zero.
  probe.on_macro_window(2 * kWin, kWin);
  EXPECT_NEAR(probe.utilization_ewma(), 0.8 * 0.7, 0.01);
  // Still classified congested: the EWMA remembers the burst.
  EXPECT_EQ(probe.state(), CongestionState::Congested);
}

// --- drift bands ---

TEST(FidelityProbe, BandViolationOnLatencyDriftAndDropMismatch) {
  FidelityConfig cfg = enabled_config();
  cfg.latency_band_log = 0.5;
  cfg.drop_band = 0.25;
  FidelitySink sink{cfg};
  ClusterFidelityProbe probe{sink, 0, 1e9, nullptr};
  constexpr std::int64_t kWin = 1'000'000;

  // In band: model within exp(0.5)x of reference, decisions agree.
  probe.record_shadow(false, 10e-6, false, 11e-6, false, 10e-6);
  probe.on_macro_window(kWin, kWin);
  // Latency drift: model 3x the reference (ln 3 ~ 1.1 > 0.5).
  probe.record_shadow(false, 30e-6, false, 10e-6, false, 10e-6);
  probe.on_macro_window(2 * kWin, kWin);
  // Drop disagreement on half the samples (0.5 > 0.25), in a window of
  // the ceil(1 / 0.25) = 4 samples the drop band needs to be judged.
  for (int i = 0; i < 4; ++i) {
    probe.record_shadow(i % 2 == 0, 10e-6, false, 10e-6, false, 10e-6);
  }
  probe.on_macro_window(3 * kWin, kWin);

  const auto rows = sink.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_FALSE(rows[0].band_violation);
  EXPECT_TRUE(rows[1].band_violation);
  EXPECT_NEAR(rows[1].latency_err_mean_log, std::log(3.0), 1e-9);
  EXPECT_TRUE(rows[2].band_violation);
  EXPECT_EQ(rows[2].drop_mismatches, 2u);
  EXPECT_EQ(probe.band_violations_total(), 2u);
  EXPECT_EQ(probe.shadow_samples_total(), 6u);

  // The report section flags the violating cluster.
  const Json section = sink.report_section();
  ASSERT_EQ(section.find("violating_clusters")->size(), 1u);
  EXPECT_EQ(section.find("violating_clusters")->at(0).as_uint(), 0u);
}

// A window's drop band is judged only from ceil(1 / drop_band) shadow
// samples on (20 at the default 0.05), so one disagreement alone never
// flags a window; smaller windows still count toward the run-level drift.
TEST(FidelityProbe, DropBandIsJudgedOnlyOnWindowsWithEnoughSamples) {
  const FidelityConfig cfg = enabled_config();
  ASSERT_EQ(cfg.drop_band, 0.05);
  FidelitySink sink{cfg};
  constexpr std::int64_t kWin = 1'000'000;
  const auto window = [](ClusterFidelityProbe& probe, int samples,
                         int mismatches, std::int64_t t_ns) {
    for (int i = 0; i < samples; ++i) {
      probe.record_shadow(i < mismatches, 10e-6, false, 10e-6, false, 10e-6);
    }
    probe.on_macro_window(t_ns, kWin);
  };
  ClusterFidelityProbe probe{sink, 0, 1e9, nullptr};
  window(probe, 12, 1, kWin);      // 1 of 12 (8.3%): too few to judge
  window(probe, 40, 3, 2 * kWin);  // 3 of 40 (7.5% > 5%): flagged
  const auto rows = sink.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].drop_mismatches, 1u);
  EXPECT_FALSE(rows[0].band_violation);
  EXPECT_EQ(rows[1].drop_mismatches, 3u);
  EXPECT_TRUE(rows[1].band_violation);
  EXPECT_EQ(probe.band_violations_total(), 1u);

  // No window of this cluster is judged, but its run-level rate, 2 of 24,
  // is out of band.
  ClusterFidelityProbe small{sink, 1, 1e9, nullptr};
  window(small, 12, 1, kWin);
  window(small, 12, 1, 2 * kWin);
  EXPECT_EQ(small.band_violations_total(), 0u);
  const auto sums = sink.summaries();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0].violation, FidelityBand::Drop);
  EXPECT_EQ(sums[0].violation_t_ns, 2 * kWin);
  EXPECT_EQ(sums[1].violation, FidelityBand::RunDrift);
}

// Each violating cluster's summary names the band it broke first and the
// window that broke it: the first violating window's band (latency when
// that window broke both), or run-level drift with the last window's time
// when no single window broke a band.
TEST(FidelitySink, ViolatingClustersNameTheBandAndTheFirstWindow) {
  FidelityConfig cfg = enabled_config();
  cfg.latency_band_log = 0.5;
  cfg.drop_band = 0.25;
  FidelitySink sink{cfg};
  constexpr std::int64_t kWin = 1'000'000;
  ClusterFidelityProbe c0{sink, 0, 1e9, nullptr};
  ClusterFidelityProbe c1{sink, 1, 1e9, nullptr};
  ClusterFidelityProbe c2{sink, 2, 1e9, nullptr};
  // A window's drop band is judged from ceil(1 / 0.25) = 4 samples on, so
  // each drop violation below disagrees on 2 of 4.
  // Cluster 0: in band, then latency drift and a drop disagreement in the
  // same window (latency is named), then a drop-only violation.
  c0.record_shadow(false, 10e-6, false, 10e-6, false, 10e-6);
  c0.on_macro_window(kWin, kWin);
  for (int i = 0; i < 4; ++i) {
    c0.record_shadow(i % 2 == 0, 30e-6, false, 10e-6, false, 10e-6);
  }
  c0.on_macro_window(2 * kWin, kWin);
  for (int i = 0; i < 4; ++i) {
    c0.record_shadow(i % 2 == 0, 10e-6, false, 10e-6, false, 10e-6);
  }
  c0.on_macro_window(3 * kWin, kWin);
  // Cluster 1: a drop-only violation in its first window.
  for (int i = 0; i < 4; ++i) {
    c1.record_shadow(i % 2 == 0, 10e-6, false, 10e-6, false, 10e-6);
  }
  c1.on_macro_window(kWin, kWin);
  c1.record_shadow(false, 30e-6, false, 10e-6, false, 10e-6);
  c1.on_macro_window(2 * kWin, kWin);
  // Cluster 2: in band throughout.
  for (int w = 1; w <= 3; ++w) {
    c2.record_shadow(false, 11e-6, false, 10e-6, false, 10e-6);
    c2.on_macro_window(w * kWin, kWin);
  }
  // Cluster 3: rows whose windows claim no violation, but whose run-level
  // latency drift is out of band.
  FidelityRow r;
  r.cluster = 3;
  r.shadow_samples = 4;
  r.latency_err_mean_log = 0.9;
  r.t_ns = kWin;
  sink.append(r);
  r.t_ns = 2 * kWin;
  sink.append(r);

  const auto sums = sink.summaries();
  ASSERT_EQ(sums.size(), 4u);
  EXPECT_EQ(sums[0].violation, FidelityBand::Latency);
  EXPECT_EQ(sums[0].violation_t_ns, 2 * kWin);
  EXPECT_EQ(sums[0].band_violations, 2u);
  EXPECT_EQ(sums[1].violation, FidelityBand::Drop);
  EXPECT_EQ(sums[1].violation_t_ns, kWin);
  EXPECT_TRUE(sums[2].in_band());
  EXPECT_EQ(sums[2].violation_t_ns, 0);
  EXPECT_EQ(sums[3].violation, FidelityBand::RunDrift);
  EXPECT_EQ(sums[3].violation_t_ns, 2 * kWin);

  const Json section = sink.report_section();
  const Json& violating = *section.find("violating_clusters");
  ASSERT_EQ(violating.size(), 3u);
  EXPECT_EQ(violating.at(0).as_uint(), 0u);
  EXPECT_EQ(violating.at(1).as_uint(), 1u);
  EXPECT_EQ(violating.at(2).as_uint(), 3u);
  const Json& clusters = *section.find("clusters");
  const char* bands[] = {"latency", "drop", nullptr, "run_drift"};
  const std::int64_t times[] = {2 * kWin, kWin, 0, 2 * kWin};
  for (std::size_t k = 0; k < 4; ++k) {
    const Json* v = clusters.at(k).find("violation");
    EXPECT_EQ(clusters.at(k).find("in_band")->as_bool(), bands[k] == nullptr);
    if (bands[k] == nullptr) {
      EXPECT_EQ(v, nullptr) << k;
      continue;
    }
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(v->find("band")->as_string(), bands[k]) << k;
    EXPECT_EQ(v->find("t_ns")->as_int(), times[k]) << k;
  }
}

TEST(FidelityProbe, PublishesRegistryInstruments) {
  FidelityConfig cfg = enabled_config();
  FidelitySink sink{cfg};
  telemetry::Registry registry;
  ClusterFidelityProbe probe{sink, 3, 1e9, &registry};
  probe.observe_packet(1000, false);
  probe.record_shadow(false, 10e-6, true, 10e-6, false, 10e-6);
  probe.on_macro_window(1'000'000, 1'000'000);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.find("fidelity.c3.shadow_samples")->counter, 1u);
  EXPECT_EQ(snap.find("fidelity.c3.drop_mismatches")->counter, 1u);
  ASSERT_NE(snap.find("fidelity.c3.state"), nullptr);
  ASSERT_NE(snap.find("fidelity.c3.util_ppm"), nullptr);
  EXPECT_EQ(snap.find("fidelity.shadow.latency_err_mnats")->count, 1u);
}

// --- time-series export ---

TEST(FidelitySink, JsonlRowsRoundTrip) {
  const std::string path = ::testing::TempDir() + "fidelity_rows.jsonl";
  FidelityConfig cfg = enabled_config();
  cfg.jsonl_path = path;
  std::vector<FidelityRow> written;
  {
    FidelitySink sink{cfg};
    ClusterFidelityProbe probe{sink, 1, 1e9, nullptr};
    std::int64_t now = 0;
    for (int w = 0; w < 3; ++w) {
      for (int i = 0; i <= w; ++i) probe.observe_packet(1200, i == 0 && w == 2);
      probe.record_shadow(false, 12e-6, false, 10e-6, false, 11e-6);
      probe.observe_backlog(500 * w, false);
      probe.on_macro_window(now += 1'000'000, 1'000'000);
    }
    written = sink.rows();
  }
  ASSERT_EQ(written.size(), 3u);

  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::vector<FidelityRow> read;
  std::string line;
  while (std::getline(in, line)) {
    const auto doc = Json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    read.push_back(FidelityRow::from_json(*doc));
  }
  ASSERT_EQ(read.size(), written.size());
  for (std::size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i].t_ns, written[i].t_ns);
    EXPECT_EQ(read[i].cluster, written[i].cluster);
    EXPECT_EQ(read[i].state, written[i].state);
    EXPECT_EQ(read[i].packets, written[i].packets);
    EXPECT_EQ(read[i].shadow_samples, written[i].shadow_samples);
    EXPECT_EQ(read[i].backlog_max_ns, written[i].backlog_max_ns);
    EXPECT_NEAR(read[i].utilization, written[i].utilization, 1e-12);
    EXPECT_NEAR(read[i].latency_err_mae_log, written[i].latency_err_mae_log,
                1e-12);
    EXPECT_EQ(read[i].band_violation, written[i].band_violation);
  }
  std::remove(path.c_str());
}

TEST(FidelitySink, RowsAreSortedAndSummariesAggregate) {
  FidelitySink sink{enabled_config()};
  // Out-of-order appends across two clusters (as PDES partitions do).
  FidelityRow r;
  r.cluster = 2;
  r.t_ns = 2'000'000;
  r.packets = 5;
  r.state = CongestionState::Nominal;
  sink.append(r);
  r.cluster = 1;
  r.t_ns = 1'000'000;
  r.packets = 3;
  r.state = CongestionState::Quiescent;
  sink.append(r);
  r.cluster = 1;
  r.t_ns = 2'000'000;
  r.packets = 4;
  r.state = CongestionState::Congested;
  sink.append(r);

  const auto rows = sink.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].cluster, 1u);
  EXPECT_EQ(rows[0].t_ns, 1'000'000);
  EXPECT_EQ(rows[2].cluster, 2u);

  const auto sums = sink.summaries();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0].cluster, 1u);
  EXPECT_EQ(sums[0].windows, 2u);
  EXPECT_EQ(sums[0].packets, 7u);
  EXPECT_EQ(sums[0].quiescent_windows, 1u);
  EXPECT_EQ(sums[0].congested_windows, 1u);
  EXPECT_EQ(sums[1].cluster, 2u);
  EXPECT_EQ(sums[1].nominal_windows, 1u);
}

// --- digest invariance (the tentpole contract) ---

TEST(FidelityDigest, HybridRunIsBitIdenticalWithFidelityOnSequential) {
  const Scenario sc = check::random_hybrid_scenario(3);
  std::uint64_t rows = 0, shadow = 0;
  const std::string diag = check::check_fidelity(sc, {}, &rows, &shadow);
  EXPECT_TRUE(diag.empty()) << diag;
  EXPECT_GT(rows, 0u);
  EXPECT_GT(shadow, 0u);
}

// The shadow measures the model's drift, so only packets the Ml tier
// decides are compared. A hybrid pinned to the Packet tier makes no
// prediction: with the observatory on it must record no shadow sample
// and flag no cluster, while the same run pinned to Ml does shadow.
TEST(FidelityTiers, PinnedPacketHybridRecordsNoShadowSamples) {
  Scenario sc = check::random_hybrid_scenario(3);
  sc.approx->adaptive_tiers = false;
  for (const core::ClusterTier tier :
       {core::ClusterTier::Packet, core::ClusterTier::Ml}) {
    sc.approx->fixed_tier = tier;
    FidelitySink sink{enabled_config()};
    run_with_sink(sc, &sink);
    ASSERT_GT(sink.rows_appended(), 0u);
    std::uint64_t shadow = 0;
    for (const auto& s : sink.summaries()) shadow += s.shadow_samples;
    if (tier == core::ClusterTier::Ml) {
      EXPECT_GT(shadow, 0u);
      continue;
    }
    EXPECT_EQ(shadow, 0u);
    EXPECT_EQ(sink.report_section().find("violating_clusters")->size(), 0u);
  }
}

TEST(FidelityDigest, HybridRunIsBitIdenticalWithFidelityOnPdes) {
  const Scenario sc = check::random_hybrid_scenario(11);
  std::uint64_t rows = 0, shadow = 0;
  const std::string diag = check::check_fidelity(sc, {2, 4}, &rows, &shadow);
  EXPECT_TRUE(diag.empty()) << diag;
  EXPECT_GT(shadow, 0u);
}

TEST(FidelityDigest, InstrumentedRunsAgreeAcrossEngines) {
  // The observatory itself must be deterministic: the same scenario
  // instrumented twice produces identical digests AND identical shadow
  // totals; rows from sequential and PDES runs describe the same run.
  Scenario sc = check::random_hybrid_scenario(5);
  sc.approx->sample_drops = true;
  FidelityConfig cfg = enabled_config();

  FidelitySink a{cfg};
  const Digest da = run_with_sink(sc, &a);
  FidelitySink b{cfg};
  const Digest db = run_with_sink(sc, &b);
  EXPECT_TRUE(da == db);
  ASSERT_EQ(a.rows_appended(), b.rows_appended());
  const auto ra = a.rows();
  const auto rb = b.rows();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].cluster, rb[i].cluster);
    EXPECT_EQ(ra[i].t_ns, rb[i].t_ns);
    EXPECT_EQ(ra[i].packets, rb[i].packets);
    EXPECT_EQ(ra[i].shadow_samples, rb[i].shadow_samples);
  }
}

// --- report plumbing ---

TEST(FidelityReport, RunReportCarriesFidelitySection) {
  Scenario sc = check::random_hybrid_scenario(2);
  sc.approx->sample_drops = true;
  FidelitySink sink{enabled_config()};
  (void)run_with_sink(sc, &sink);
  ASSERT_GT(sink.rows_appended(), 0u);

  core::RunResult result;
  result.fidelity = sink.report_section();
  telemetry::RunReport report{"fidelity_test"};
  core::add_run_result(report, "hybrid", result);
  const Json* section = report.root().find("hybrid");
  ASSERT_NE(section, nullptr);
  const Json* fid = section->find("fidelity");
  ASSERT_NE(fid, nullptr);
  EXPECT_TRUE(fid->find("enabled")->as_bool());
  EXPECT_EQ(fid->find("sample_period")->as_uint(), 16u);
  EXPECT_GT(fid->find("clusters")->size(), 0u);
  // Every approximated cluster reported at least one window.
  for (std::size_t i = 0; i < fid->find("clusters")->size(); ++i) {
    EXPECT_GT(fid->find("clusters")->at(i).find("windows")->as_uint(), 0u);
  }
}

TEST(FidelityReport, TrainingEvalSectionShape) {
  core::TrainedModels models;
  models.boundary_records = 1234;
  models.has_eval = true;
  models.ingress_eval.rows = 100;
  models.ingress_eval.drop_auc = 0.91;
  models.ingress_eval.latency_mae = 0.25;
  models.egress_eval.rows = 90;
  models.egress_eval.drop_auc = 0.88;

  telemetry::RunReport report{"fidelity_test"};
  core::add_training_eval(report, models);
  const Json* training = report.root().find("training");
  ASSERT_NE(training, nullptr);
  EXPECT_EQ(training->find("boundary_records")->as_uint(), 1234u);
  const Json* eval = training->find("eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_EQ(eval->find("ingress")->find("rows")->as_uint(), 100u);
  EXPECT_NEAR(eval->find("ingress")->find("drop_auc")->as_double(), 0.91,
              1e-12);
  EXPECT_NEAR(eval->find("egress")->find("drop_auc")->as_double(), 0.88,
              1e-12);

  // Without held-out eval only the record count is written.
  core::TrainedModels no_eval;
  no_eval.boundary_records = 7;
  telemetry::RunReport r2{"fidelity_test"};
  core::add_training_eval(r2, no_eval);
  EXPECT_EQ(r2.root().find("training")->find("boundary_records")->as_uint(),
            7u);
  EXPECT_EQ(r2.root().find("training")->find("eval"), nullptr);
}

}  // namespace
}  // namespace esim
