// Adaptive multi-granularity bench (DESIGN.md §12): what does letting a
// cluster's fidelity tier float — packet <-> ML-approx <-> fluid, switched
// at macro-window boundaries — buy, and what does it cost?
//
// Two sections, two harnesses:
//
//   A. Accuracy against the all-packet reference (experiment pipeline):
//      train the boundary models once, run the topology fully packet-
//      level, then run the hybrid three ways — tier pinned to Packet,
//      pinned to Ml (the paper's configuration), and Adaptive — and
//      report events/s, the Kolmogorov distance between each variant's
//      FCT CDF and the reference's, the per-tier packet mix, and the
//      fidelity observatory's drift-band verdict.
//
//   B. Speed on a quiescent-heavy corpus (check harness): hand-pinned
//      scenarios with steady cross traffic whose boundary utilization
//      stays under the quiescent threshold. This is the regime the
//      adaptive controller is built for: packets keep flowing (so the
//      pinned-Ml policy pays a production-sized inference for every
//      one), but the cluster classifies quiescent, so the controller
//      demotes to the fluid rate model within a few windows and skips
//      inference for the rest of the run. Acceptance: adaptive >= 2x
//      the events/s of the pinned-Ml configuration over the corpus.
//
// Output schema (BENCH_granularity.json) is documented in EXPERIMENTS.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "check/diff_runner.h"
#include "core/experiment.h"
#include "core/run_report.h"
#include "stats/distance.h"
#include "telemetry/report.h"

namespace {

using namespace esim;  // NOLINT
using sim::SimTime;

core::ExperimentConfig make_config(bool quick) {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = 3;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  // Modest load: the approximated clusters only see their share of the
  // cross traffic with cluster 0, so their boundary utilization hovers
  // around the quiescent threshold — windows of both regimes, which is
  // exactly the case the controller has to navigate.
  cfg.load = 0.25;
  cfg.intra_fraction = 0.3;
  cfg.seed = 2018;
  if (quick) {
    cfg.duration = SimTime::from_ms(8);
    cfg.train_duration = SimTime::from_ms(8);
    cfg.model.hidden = 8;
    cfg.model.layers = 1;
    cfg.train.batches = 30;
    cfg.train.batch_size = 16;
    cfg.train.seq_len = 16;
  } else {
    cfg.duration = SimTime::from_ms(40);
    cfg.train_duration = SimTime::from_ms(30);
    cfg.model.hidden = 24;
    cfg.model.layers = 2;
    cfg.train.batches = 200;
    cfg.train.batch_size = 32;
    cfg.train.seq_len = 24;
  }
  cfg.train.learning_rate = 5e-3;
  // The observatory supplies the controller's congestion signal; keep it
  // on for every hybrid variant so each reports its drift bands too.
  cfg.fidelity.enabled = true;
  cfg.fidelity.sample_period = 64;
  cfg.fidelity.quiescent_util = 0.05;
  cfg.fidelity.congested_util = 0.5;
  return cfg;
}

// One corpus scenario: steady low-utilization cross traffic. Unlike the
// fuzz generator's burst-and-silence shape (built to exercise
// transitions), this is the controller's target regime — packets flow
// continuously, so the Ml tier pays a production-sized inference for
// every one of them, while the cluster's utilization stays under the
// quiescent threshold, so the adaptive policy demotes to the fluid rate
// model almost immediately and keeps the savings for the whole run.
check::Scenario quiescent_scenario(std::uint64_t i, bool quick) {
  check::Scenario sc;
  check::Scenario::Approximation& a = sc.approx.emplace();
  sc.seed = 3000 + i;
  sc.clusters = 3;
  sc.tors = 2;
  sc.spines = 2;
  sc.hosts_per_tor = 2;
  sc.cores = 2;
  a.model_seed = 40 + i;
  a.model_hidden = 48;  // production-like inference cost
  a.model_layers = 2;
  a.drop_bias = -3.0;
  a.latency_mean_us = 8.0;
  a.sample_drops = true;  // sequential-only section, streams coincide
  a.min_latency_us = 5.0;
  a.adaptive_tiers = false;  // run_corpus sets the policy per run
  a.min_dwell_windows = 2;
  a.quiescent_util = 0.25;
  a.congested_util = 0.6;
  a.congested_drop_rate = 0.5;
  a.classify_ewma_alpha = 0.6;
  sc.duration_ns = quick ? 6'000'000 : 25'000'000;
  const std::uint32_t hosts = sc.total_hosts();
  std::int64_t t = 10'000;
  std::uint64_t id = 1;
  while (t < sc.duration_ns - 500'000) {
    check::FlowSpec f;
    f.src = static_cast<net::HostId>((id * 5 + i) % hosts);
    f.dst = static_cast<net::HostId>((id * 7 + i + hosts / 2) % hosts);
    if (f.src == f.dst) f.dst = (f.dst + 1) % hosts;
    f.bytes = 4 * 1400 + 1400 * (id % 5);
    f.flow_id = id++;
    f.start_ns = t;
    t += 15'001 + 500 * static_cast<std::int64_t>(id % 7);
    sc.flows.push_back(f);
  }
  sc.validate();
  return sc;
}

std::uint64_t band_violations(const telemetry::Json& fidelity) {
  const telemetry::Json* v = fidelity.find("violating_clusters");
  return v != nullptr ? static_cast<std::uint64_t>(v->size()) : 0;
}

double events_per_sec(const core::RunResult& r) {
  return r.wall_seconds > 0
             ? static_cast<double>(r.events_executed) / r.wall_seconds
             : 0.0;
}

struct CorpusPoint {
  std::uint64_t events = 0;
  double wall = 0.0;
  std::uint64_t transitions = 0;
  double eps() const {
    return wall > 0 ? static_cast<double>(events) / wall : 0.0;
  }
};

CorpusPoint run_corpus(const std::vector<check::Scenario>& corpus,
                       bool adaptive, core::ClusterTier fixed_tier) {
  CorpusPoint pt;
  for (check::Scenario sc : corpus) {
    sc.approx->adaptive_tiers = adaptive;
    sc.approx->fixed_tier = fixed_tier;
    const auto start = std::chrono::steady_clock::now();
    const check::RunOutcome run = check::DiffRunner{}.run(sc, {});
    pt.wall +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    pt.events += run.digest.events;
    for (const auto& [cluster, trace] : run.traces) {
      pt.transitions += trace.size();
    }
  }
  return pt;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  bench::print_header(
      "bench_granularity",
      "adaptive tier switching: accuracy vs the all-packet reference, "
      "events/s on the quiescent-heavy corpus");

  telemetry::RunReport report{"bench_granularity"};

  // ---- Section A: accuracy against the all-packet reference ----
  auto cfg = make_config(quick);
  std::printf("[A] training boundary models (%s)...\n",
              quick ? "quick" : "full");
  const auto models = core::train_cluster_models(cfg);
  std::printf("    %zu boundary records, ingress loss %.4f -> %.4f\n",
              models.boundary_records, models.ingress_report.initial_loss,
              models.ingress_report.final_loss);

  std::printf("[A] all-packet reference run...\n");
  const auto full = core::run_full_simulation(cfg, cfg.net.spec);
  report.set("reference.events", full.events_executed);
  report.set("reference.events_per_sec", events_per_sec(full));
  report.set("reference.flows_completed", full.flows_completed);

  struct Variant {
    const char* name;
    core::ClusterTierPolicy::Mode mode;
    core::ClusterTier tier;
  };
  const std::vector<Variant> variants = {
      {"fixed_packet", core::ClusterTierPolicy::Mode::Fixed,
       core::ClusterTier::Packet},
      {"fixed_ml", core::ClusterTierPolicy::Mode::Fixed,
       core::ClusterTier::Ml},
      {"adaptive", core::ClusterTierPolicy::Mode::Adaptive,
       core::ClusterTier::Ml},
  };

  std::printf("\n%-14s %12s %14s %8s %26s %6s %6s\n", "variant", "events",
              "events/s", "ks_fct", "tier mix (pkt/ml/fluid)", "trans",
              "bands");
  for (const auto& v : variants) {
    cfg.approx.tier.mode = v.mode;
    cfg.approx.tier.fixed_tier = v.tier;
    const auto run = core::run_hybrid_simulation(cfg, cfg.net.spec, models);
    const double ks = (!full.fct_cdf.empty() && !run.fct_cdf.empty())
                          ? stats::ks_distance(full.fct_cdf, run.fct_cdf)
                          : 1.0;
    const auto& tp = run.approx_stats.tier_packets;
    const std::uint64_t violations = band_violations(run.fidelity);
    std::printf("%-14s %12llu %14.0f %8.4f %8llu/%8llu/%8llu %6llu %6llu\n",
                v.name, static_cast<unsigned long long>(run.events_executed),
                events_per_sec(run), ks,
                static_cast<unsigned long long>(tp[0]),
                static_cast<unsigned long long>(tp[1]),
                static_cast<unsigned long long>(tp[2]),
                static_cast<unsigned long long>(
                    run.approx_stats.tier_transitions),
                static_cast<unsigned long long>(violations));
    const std::string key = std::string{"series."} + v.name;
    report.set(key + ".events", run.events_executed);
    report.set(key + ".events_per_sec", events_per_sec(run));
    report.set(key + ".ks_fct_vs_reference", ks);
    report.set(key + ".flows_completed", run.flows_completed);
    report.set(key + ".tier_packets.packet", tp[0]);
    report.set(key + ".tier_packets.ml", tp[1]);
    report.set(key + ".tier_packets.fluid", tp[2]);
    report.set(key + ".tier_transitions", run.approx_stats.tier_transitions);
    report.set(key + ".band_violations", violations);
  }

  // ---- Section B: events/s on the quiescent-heavy fuzz corpus ----
  const std::size_t n_scenarios = quick ? 2 : 6;
  std::vector<check::Scenario> corpus;
  for (std::size_t i = 0; i < n_scenarios; ++i) {
    corpus.push_back(quiescent_scenario(i, quick));
  }
  std::printf("\n[B] quiescent-heavy corpus: %zu scenarios, %zu flows each\n",
              n_scenarios, corpus.front().flows.size());

  const CorpusPoint ml =
      run_corpus(corpus, /*adaptive=*/false, core::ClusterTier::Ml);
  const CorpusPoint pkt =
      run_corpus(corpus, /*adaptive=*/false, core::ClusterTier::Packet);
  const CorpusPoint fluid =
      run_corpus(corpus, /*adaptive=*/false, core::ClusterTier::Fluid);
  const CorpusPoint adaptive =
      run_corpus(corpus, /*adaptive=*/true, core::ClusterTier::Ml);
  const double speedup = ml.eps() > 0 ? adaptive.eps() / ml.eps() : 0.0;

  std::printf("%-14s %12s %14s %8s\n", "policy", "events", "events/s",
              "trans");
  const auto print_policy = [&](const char* name, const CorpusPoint& p) {
    std::printf("%-14s %12llu %14.0f %8llu\n", name,
                static_cast<unsigned long long>(p.events), p.eps(),
                static_cast<unsigned long long>(p.transitions));
    const std::string key = std::string{"corpus."} + name;
    report.set(key + ".events", p.events);
    report.set(key + ".events_per_sec", p.eps());
    report.set(key + ".tier_transitions", p.transitions);
  };
  print_policy("fixed_packet", pkt);
  print_policy("fixed_ml", ml);
  print_policy("fixed_fluid", fluid);
  print_policy("adaptive", adaptive);
  std::printf("adaptive vs fixed_ml events/s: %.2fx (acceptance >= 2x)\n",
              speedup);
  report.set("corpus.scenarios", static_cast<std::uint64_t>(n_scenarios));
  report.set("corpus.adaptive_speedup_vs_fixed_ml", speedup);
  report.set("corpus.speedup_target_met", speedup >= 2.0);

  report.write("BENCH_granularity.json");
  std::printf("wrote BENCH_granularity.json\n");
  if (adaptive.transitions == 0) {
    std::printf("FAIL: the adaptive corpus runs never transitioned\n");
    return 1;
  }
  return 0;
}
