#include "core/run_report.h"

#include <string>

namespace esim::core {

namespace {

telemetry::Json region_json(const stats::PacketCounter& c) {
  telemetry::Json out = telemetry::Json::object();
  out["sent"] = c.sent;
  out["delivered"] = c.delivered;
  out["dropped"] = c.dropped;
  out["drop_rate"] = c.drop_rate();
  return out;
}

}  // namespace

void add_run_result(telemetry::RunReport& report, std::string_view section,
                    const RunResult& result) {
  const std::string s{section};
  report.set(s + ".wall_seconds", result.wall_seconds);
  report.set(s + ".events_executed", result.events_executed);
  report.set(s + ".events_scheduled", result.events_scheduled);
  report.set(s + ".flows_launched", result.flows_launched);
  report.set(s + ".flows_completed", result.flows_completed);
  report.set(s + ".mean_fct_seconds", result.mean_fct_seconds);

  if (!result.rtt_cdf.empty()) {
    report.set(s + ".rtt.samples",
               static_cast<std::uint64_t>(result.rtt_cdf.size()));
    report.set(s + ".rtt.p50_seconds", result.rtt_cdf.quantile(0.50));
    report.set(s + ".rtt.p90_seconds", result.rtt_cdf.quantile(0.90));
    report.set(s + ".rtt.p99_seconds", result.rtt_cdf.quantile(0.99));
    report.set(s + ".rtt.max_seconds", result.rtt_cdf.max());
  }

  report.set(s + ".regions.host_uplinks",
             region_json(result.regions.host_uplinks));
  report.set(s + ".regions.host_downlinks",
             region_json(result.regions.host_downlinks));
  report.set(s + ".regions.intra_fabric",
             region_json(result.regions.intra_fabric));
  report.set(s + ".regions.core", region_json(result.regions.core));

  const auto& a = result.approx_stats;
  if (a.egress_packets + a.ingress_packets + a.intra_packets +
          a.predicted_drops + a.backlog_drops + a.conflicts_resolved >
      0) {
    report.set(s + ".approx.egress_packets", a.egress_packets);
    report.set(s + ".approx.ingress_packets", a.ingress_packets);
    report.set(s + ".approx.intra_packets", a.intra_packets);
    report.set(s + ".approx.predicted_drops", a.predicted_drops);
    report.set(s + ".approx.backlog_drops", a.backlog_drops);
    report.set(s + ".approx.conflicts_resolved", a.conflicts_resolved);
    report.set(s + ".approx.tier_packets.packet",
               a.tier_packets[static_cast<std::size_t>(ClusterTier::Packet)]);
    report.set(s + ".approx.tier_packets.ml",
               a.tier_packets[static_cast<std::size_t>(ClusterTier::Ml)]);
    report.set(s + ".approx.tier_packets.fluid",
               a.tier_packets[static_cast<std::size_t>(ClusterTier::Fluid)]);
    report.set(s + ".approx.tier_transitions", a.tier_transitions);
  }

  if (!result.metrics.instruments.empty()) {
    report.add_metrics(result.metrics, s + ".metrics");
  }

  if (!result.fidelity.is_null()) {
    report.set(s + ".fidelity", result.fidelity);
  }
}

namespace {

telemetry::Json eval_json(const approx::EvalMetrics& m) {
  telemetry::Json out = telemetry::Json::object();
  out["rows"] = static_cast<std::uint64_t>(m.rows);
  out["drop_auc"] = m.drop_auc;
  out["drop_accuracy"] = m.drop_accuracy;
  out["drop_precision"] = m.drop_precision;
  out["drop_recall"] = m.drop_recall;
  out["base_drop_rate"] = m.base_drop_rate;
  out["latency_mae"] = m.latency_mae;
  out["latency_bias"] = m.latency_bias;
  out["latency_p90_abs_error"] = m.latency_p90_abs_error;
  return out;
}

}  // namespace

void add_training_eval(telemetry::RunReport& report,
                       const TrainedModels& models,
                       std::string_view section) {
  const std::string s{section};
  report.set(s + ".boundary_records",
             static_cast<std::uint64_t>(models.boundary_records));
  if (!models.has_eval) return;
  report.set(s + ".eval.ingress", eval_json(models.ingress_eval));
  report.set(s + ".eval.egress", eval_json(models.egress_eval));
}

void add_experiment_config(telemetry::RunReport& report,
                           const ExperimentConfig& config,
                           const net::ClosSpec& spec,
                           std::string_view section) {
  const std::string s{section};
  report.set(s + ".clusters", static_cast<std::uint64_t>(spec.clusters));
  report.set(s + ".cores", static_cast<std::uint64_t>(spec.cores));
  report.set(s + ".total_hosts",
             static_cast<std::uint64_t>(spec.total_hosts()));
  report.set(s + ".load", config.load);
  report.set(s + ".intra_fraction", config.intra_fraction);
  report.set(s + ".duration_seconds", config.duration.to_seconds());
  report.set(s + ".seed", config.seed);
  report.set(s + ".workload", "mini");
}

}  // namespace esim::core
