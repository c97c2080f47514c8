// The complete paper workflow in one program (paper §3, Figure 3):
//
//   1. simulate two clusters at full packet fidelity and record every
//      packet crossing cluster 1's fabric boundary;
//   2. train the ingress/egress LSTM micro models on that trace;
//   3. save the models to disk, load them back (they are reusable
//      artifacts — "once trained they are cheap to run, reusable") and
//      check that the reloaded models predict what the trained ones do,
//      to the bit (exit status 1 otherwise);
//   4. assemble a 4-cluster simulation where 3 clusters are replaced by
//      the models and compare speed and RTT distributions with the full
//      4-cluster simulation.
//
//   ./build/examples/train_and_approximate
#include <cstdio>
#include <string>
#include <utility>

#include "core/experiment.h"
#include "core/run_report.h"
#include "ml/serialize.h"
#include "sim/random.h"
#include "stats/distance.h"
#include "telemetry/trace.h"

using namespace esim;  // NOLINT

int main() {
  // Record everything: a Chrome trace of the whole workflow (experiment
  // phase spans + per-inference spans from the approximated clusters) and
  // a structured run report. Telemetry does not change the simulation.
  // The ring is sized above the ~80k inference spans the hybrid run emits
  // so the early phase spans survive to serialization.
  telemetry::TraceSession trace{
      telemetry::TraceSession::Config{.events_per_thread = 1 << 18}};
  trace.start();

  core::ExperimentConfig cfg;
  cfg.telemetry = true;
  cfg.net.spec.clusters = 2;  // training topology
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  cfg.load = 0.3;
  cfg.intra_fraction = 0.3;
  cfg.duration = sim::SimTime::from_ms(15);
  cfg.train_duration = sim::SimTime::from_ms(20);
  cfg.model.hidden = 16;
  cfg.model.layers = 2;
  cfg.train.batches = 80;
  cfg.train.batch_size = 32;
  cfg.train.seq_len = 16;
  cfg.train.learning_rate = 5e-3;
  // Hold out the chronological tail of the boundary trace for a real
  // generalization score (AUC/MAE on unseen data, not training fit).
  cfg.eval_holdout = 0.2;
  // Watch the approximated clusters while the hybrid run executes:
  // shadow-sample 1 in 16 boundary packets against the reference paths
  // and stream per-cluster congestion/drift windows to JSONL.
  cfg.fidelity.enabled = true;
  cfg.fidelity.sample_period = 16;
  cfg.fidelity.jsonl_path = "train_and_approximate_fidelity.jsonl";

  std::printf("== step 1+2: record boundary trace and train ==\n");
  const auto models = core::train_cluster_models(cfg);
  std::printf("boundary crossings : %zu\n", models.boundary_records);
  std::printf("ingress model      : drop-acc %.3f, latency-MAE %.3f\n",
              models.ingress_report.drop_accuracy,
              models.ingress_report.latency_mae);
  std::printf("egress model       : drop-acc %.3f, latency-MAE %.3f\n",
              models.egress_report.drop_accuracy,
              models.egress_report.latency_mae);
  if (models.has_eval) {
    std::printf("held-out ingress   : AUC %.3f, latency-MAE %.3f (%zu rows)\n",
                models.ingress_eval.drop_auc, models.ingress_eval.latency_mae,
                models.ingress_eval.rows);
    std::printf("held-out egress    : AUC %.3f, latency-MAE %.3f (%zu rows)\n",
                models.egress_eval.drop_auc, models.egress_eval.latency_mae,
                models.egress_eval.rows);
  }

  std::printf("\n== step 3: save + reload the trained models ==\n");
  const std::string dir = "/tmp";
  ml::save_parameters(dir + "/esim_ingress.bin",
                      models.ingress->parameters());
  ml::save_parameters(dir + "/esim_egress.bin", models.egress->parameters());
  core::TrainedModels reloaded;
  reloaded.ingress = std::make_unique<approx::MicroModel>(cfg.model);
  reloaded.egress = std::make_unique<approx::MicroModel>(cfg.model);
  ml::load_parameters(dir + "/esim_ingress.bin", *reloaded.ingress);
  ml::load_parameters(dir + "/esim_egress.bin", *reloaded.egress);
  std::printf("saved and reloaded %s/esim_{ingress,egress}.bin\n",
              dir.c_str());
  // A load leaves the compiled session stale: rebuild it, then stream the
  // same feature rows through the trained and the reloaded model.
  constexpr int kCheckRows = 100;
  sim::Rng rng{17};
  for (const auto& [trained, loaded] :
       {std::pair{models.ingress.get(), reloaded.ingress.get()},
        std::pair{models.egress.get(), reloaded.egress.get()}}) {
    loaded->recompile();
    trained->reset_state();
    for (int i = 0; i < kCheckRows; ++i) {
      approx::PacketFeatures f;
      for (double& x : f.v) x = rng.uniform(-1.0, 1.0);
      const auto a = trained->predict(f);
      const auto b = loaded->predict(f);
      if (a.drop_probability != b.drop_probability ||
          a.latency_seconds != b.latency_seconds) {
        std::fprintf(stderr, "reload check: row %d differs\n", i);
        return 1;
      }
    }
  }
  std::printf("reloaded models match the trained ones on %d rows each\n",
              kCheckRows);

  std::printf("\n== step 4: full vs approximate at 4 clusters ==\n");
  net::ClosSpec run_spec = cfg.net.spec;
  run_spec.clusters = 4;
  const auto full = core::run_full_simulation(cfg, run_spec);
  const auto hybrid = core::run_hybrid_simulation(cfg, run_spec, reloaded);

  std::printf("%-22s %-14s %-14s\n", "", "full", "approximate");
  std::printf("%-22s %-14.3f %-14.3f\n", "wall seconds", full.wall_seconds,
              hybrid.wall_seconds);
  std::printf("%-22s %-14llu %-14llu\n", "events executed",
              static_cast<unsigned long long>(full.events_executed),
              static_cast<unsigned long long>(hybrid.events_executed));
  std::printf("%-22s %-14llu %-14llu\n", "flows completed",
              static_cast<unsigned long long>(full.flows_completed),
              static_cast<unsigned long long>(hybrid.flows_completed));
  if (!full.rtt_cdf.empty() && !hybrid.rtt_cdf.empty()) {
    std::printf("%-22s %-14.6g %-14.6g\n", "RTT p50 (s)",
                full.rtt_cdf.quantile(0.5), hybrid.rtt_cdf.quantile(0.5));
    std::printf("%-22s %-14.6g %-14.6g\n", "RTT p99 (s)",
                full.rtt_cdf.quantile(0.99), hybrid.rtt_cdf.quantile(0.99));
    std::printf("KS distance between RTT CDFs: %.4f\n",
                stats::ks_distance(full.rtt_cdf, hybrid.rtt_cdf));
  }
  if (!hybrid.fidelity.is_null()) {
    const auto* rows = hybrid.fidelity.find("rows");
    const auto* viol = hybrid.fidelity.find("violating_clusters");
    std::printf("fidelity observatory: %llu windows streamed, "
                "%zu cluster(s) out of band\n",
                static_cast<unsigned long long>(rows ? rows->as_uint() : 0),
                viol ? viol->size() : 0);
  }
  std::printf("speedup: %.2fx\n",
              hybrid.wall_seconds > 0
                  ? full.wall_seconds / hybrid.wall_seconds
                  : 0.0);

  trace.stop();
  telemetry::RunReport report{"train_and_approximate"};
  core::add_experiment_config(report, cfg, run_spec);
  report.set("train.boundary_records",
             static_cast<std::uint64_t>(models.boundary_records));
  report.set("train.ingress.drop_accuracy",
             models.ingress_report.drop_accuracy);
  report.set("train.egress.drop_accuracy", models.egress_report.drop_accuracy);
  // Held-out generalization scores (training.eval.*) next to the fit
  // numbers above; the hybrid run's fidelity section rides in through
  // add_run_result as hybrid.fidelity.
  core::add_training_eval(report, models);
  core::add_run_result(report, "full", full);
  core::add_run_result(report, "hybrid", hybrid);
  if (!full.rtt_cdf.empty() && !hybrid.rtt_cdf.empty()) {
    report.set("distance.ks", stats::ks_distance(full.rtt_cdf,
                                                 hybrid.rtt_cdf));
  }
  const std::string report_path = "train_and_approximate_report.json";
  const std::string trace_path = "train_and_approximate_trace.json";
  if (report.write(report_path) && trace.write_chrome_json(trace_path)) {
    std::printf("wrote %s and %s\n", report_path.c_str(), trace_path.c_str());
  }
  return 0;
}
