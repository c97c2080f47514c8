// Experiment-level run-report assembly: turns RunResults into the
// versioned telemetry::RunReport sections that the examples and bench
// binaries emit (EXPERIMENTS.md documents how figures regenerate from
// these files).
#pragma once

#include <string_view>

#include "core/experiment.h"
#include "telemetry/report.h"

namespace esim::core {

/// Writes one RunResult under `section` (e.g. "full", "hybrid"):
/// wall/event accounting, flow counts, mean FCT, RTT quantiles
/// (p50/p90/p99/max when samples exist), per-region packet totals with
/// drop rates, approx totals when the run had ApproxClusters, and the
/// registry snapshot under `<section>.metrics` when one was taken.
void add_run_result(telemetry::RunReport& report, std::string_view section,
                    const RunResult& result);

/// Writes training diagnostics under `section`: the boundary record
/// count always, and — when ExperimentConfig::eval_holdout produced one —
/// the held-out metrics of both direction models as
/// `<section>.eval.{ingress,egress}` objects (AUC, precision/recall,
/// latency MAE/bias in normalized log space).
void add_training_eval(telemetry::RunReport& report,
                       const TrainedModels& models,
                       std::string_view section = "training");

/// Writes the workload/topology parameters under `section` (default
/// "config") so a report is self-describing.
void add_experiment_config(telemetry::RunReport& report,
                           const ExperimentConfig& config,
                           const net::ClosSpec& spec,
                           std::string_view section = "config");

}  // namespace esim::core
