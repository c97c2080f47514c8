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

/// Phase-memoization accounting for one run, as written by
/// add_memo_section. A plain mirror of memo::MemoStats so core need not
/// depend on src/memo; bench/bench_memo.cc copies the fields over.
struct MemoSectionData {
  bool enabled = false;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t near_misses = 0;  ///< signature hit, verification refused
  /// near_misses split by the refusal: pattern/shape mismatch, route
  /// divergence, stale connection under a predicted 4-tuple.
  std::uint64_t near_miss_pattern = 0;
  std::uint64_t near_miss_route = 0;
  std::uint64_t near_miss_stale_connection = 0;
  std::uint64_t port_wrap_skips = 0;  ///< ran live: ports would wrap
  std::uint64_t stores = 0;
  std::uint64_t store_aborts = 0;  ///< phase ran live but was not cacheable
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;       ///< resident entries at end of run
  std::uint64_t bytes = 0;         ///< resident cache bytes at end of run
  std::uint64_t fast_forwarded_phases = 0;
  std::int64_t fast_forwarded_ns = 0;  ///< virtual time skipped
};

/// Writes memoization hit/miss/bytes accounting under `section` (default
/// "memo"): the EXPERIMENTS.md `BENCH_memo.json` schema's per-run block.
void add_memo_section(telemetry::RunReport& report,
                      const MemoSectionData& data,
                      std::string_view section = "memo");

}  // namespace esim::core
