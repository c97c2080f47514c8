// End-to-end experiment pipeline, mirroring the paper's workflow (§3):
//   1. simulate a small network (two clusters) in full packet-level
//      fidelity to generate training data at one cluster's boundary,
//   2. train the ingress/egress micro models,
//   3. assemble a large simulation where all but one cluster is replaced
//      by the trained models,
//   4. compare accuracy (Figure 4) and speed (Figure 5) against the full
//      simulation of the same topology.
#pragma once

#include <cstdint>
#include <memory>

#include "approx/evaluation.h"
#include "approx/micro_model.h"
#include "approx/trace.h"
#include "approx/trainer.h"
#include "core/network.h"
#include "stats/cdf.h"
#include "stats/collectors.h"
#include "telemetry/fidelity.h"
#include "telemetry/metrics.h"

namespace esim::core {

/// Everything one accuracy/speed experiment needs. Flow sizes always come
/// from workload::mini_web_distribution(), the 1/100-scale web-search
/// CDF that finishes statistically many flows in short runs.
struct ExperimentConfig {
  /// Link/TCP parameters and the *run* topology (fig5 sweeps clusters).
  /// Training runs this topology cut to two clusters (the paper's
  /// Figure 3), with two cores when it names none.
  NetworkConfig net;
  /// Offered load (fraction of aggregate host bandwidth).
  double load = 0.3;
  /// Fraction of flows staying inside their source cluster.
  double intra_fraction = 0.4;
  /// Simulated span of the measurement runs.
  sim::SimTime duration = sim::SimTime::from_ms(50);
  /// Simulated span of the training-data run.
  sim::SimTime train_duration = sim::SimTime::from_ms(50);
  /// Root seed (training uses seed, runs use seed+1 so the hybrid and
  /// full runs see the same workload stream).
  std::uint64_t seed = 1;
  /// Micro-model architecture and training hyper-parameters.
  approx::MicroModel::Config model;
  approx::TrainConfig train;
  /// Macro classifier configuration (shared by training and runtime).
  approx::MacroClassifier::Config macro;
  /// Runtime behaviour of approximated clusters.
  ApproxCluster::Config approx;
  /// When true the measurement runs install a telemetry::Registry on the
  /// engine and return its snapshot in RunResult::metrics. Off by
  /// default: the run itself is bit-identical either way (telemetry
  /// never touches simulation state), but the groundtruth timing runs
  /// should not pay even the counter updates.
  bool telemetry = false;
  /// Fidelity observatory for the hybrid run (DESIGN.md §11). Disabled
  /// by default; enabling it is digest-invariant.
  telemetry::FidelityConfig fidelity;
  /// Fraction of the boundary dataset held out (chronologically, the
  /// tail) for post-training evaluation. 0 (default) trains on the full
  /// dataset and skips evaluation — existing pipelines are unchanged.
  double eval_holdout = 0.0;
};

/// The trained pair of boundary models plus training diagnostics.
struct TrainedModels {
  std::unique_ptr<approx::MicroModel> ingress;
  std::unique_ptr<approx::MicroModel> egress;
  approx::TrainReport ingress_report;
  approx::TrainReport egress_report;
  std::size_t boundary_records = 0;
  /// Held-out metrics; populated when ExperimentConfig::eval_holdout > 0.
  approx::EvalMetrics ingress_eval;
  approx::EvalMetrics egress_eval;
  bool has_eval = false;
};

/// Collects the boundary links of `cluster` from a full build, for trace
/// recording.
approx::BoundaryTaps make_boundary_taps(const BuiltNetwork& network,
                                        std::uint32_t cluster);

/// A recorded training trace (step 1 of the pipeline): the boundary
/// records of cluster 1 in a full-fidelity run of the training topology.
struct BoundaryTrace {
  net::ClosSpec spec;
  std::uint32_t cluster = 1;
  std::vector<approx::BoundaryRecord> records;
};

/// Step 1: run the training topology (the run topology cut to two
/// clusters) at full fidelity and record the boundary of cluster 1.
BoundaryTrace record_boundary_trace(const ExperimentConfig& config);

/// Step 2: build datasets from a trace and train both direction models.
/// Separated from recording so ablation studies can retrain on one trace.
/// Egress trains on one worker thread while the calling thread trains
/// ingress; the worker is joined before return and its exception, if
/// any, rethrown (e.g. std::invalid_argument when a direction's dataset
/// is shorter than one training sequence). The trained weights do not
/// depend on the threading.
TrainedModels train_from_trace(const ExperimentConfig& config,
                               const BoundaryTrace& trace);

/// Steps 1–2 together (record, then train).
TrainedModels train_cluster_models(const ExperimentConfig& config);

/// Per-region packet totals summed over the build's links (and, for
/// `core`, the agg<->core attachments). Links a build does not create
/// (an approximated cluster's downlinks and fabric) add nothing.
struct RegionCounters {
  stats::PacketCounter host_uplinks;
  stats::PacketCounter host_downlinks;
  stats::PacketCounter intra_fabric;
  stats::PacketCounter core;
};

/// Measurements from one simulation run.
struct RunResult {
  double wall_seconds = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  stats::EmpiricalCdf rtt_cdf;  ///< RTTs seen by full-fidelity hosts
  std::uint64_t flows_launched = 0;
  std::uint64_t flows_completed = 0;
  double mean_fct_seconds = 0.0;
  /// FCT of every completed flow, in seconds. Feeds the Kolmogorov
  /// distance comparisons (stats::ks_distance) between fidelity tiers.
  stats::EmpiricalCdf fct_cdf;
  /// Hybrid runs only: totals across ApproxClusters.
  ApproxCluster::Stats approx_stats;
  /// Link-level totals by network region (always collected; the Links
  /// keep these counters regardless of telemetry).
  RegionCounters regions;
  /// Registry snapshot; empty unless ExperimentConfig::telemetry.
  telemetry::Snapshot metrics;
  /// Fidelity report section (FidelitySink::report_section); null unless
  /// ExperimentConfig::fidelity.enabled on a hybrid run.
  telemetry::Json fidelity;
};

/// Step 4a: the groundtruth run of `spec` at full fidelity.
RunResult run_full_simulation(const ExperimentConfig& config,
                              const net::ClosSpec& spec);

/// Step 4b: the same topology with every cluster but cluster 0 replaced
/// by the trained models. Traffic wholly between approximated clusters is
/// elided via the workload admission filter (paper §6.2).
RunResult run_hybrid_simulation(const ExperimentConfig& config,
                                const net::ClosSpec& spec,
                                const TrainedModels& models);

}  // namespace esim::core
