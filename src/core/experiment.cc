#include "core/experiment.h"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "approx/dataset.h"
#include "approx/evaluation.h"
#include "telemetry/trace.h"
#include "workload/generator.h"

namespace esim::core {

namespace {

void accumulate(stats::PacketCounter& into, const net::Link* link) {
  if (link == nullptr) return;
  into.sent += link->counter().sent;
  into.delivered += link->counter().delivered;
  into.dropped += link->counter().dropped;
}

RegionCounters collect_regions(const BuiltNetwork& network) {
  RegionCounters r;
  for (const auto* l : network.host_uplinks) accumulate(r.host_uplinks, l);
  for (const auto* l : network.host_downlinks) {
    accumulate(r.host_downlinks, l);
  }
  for (const auto& [cluster, l] : network.intra_fabric_links) {
    accumulate(r.intra_fabric, l);
  }
  for (const auto& att : network.core_links) {
    accumulate(r.core, att.up);
    accumulate(r.core, att.down);
  }
  return r;
}

/// The training topology: the run topology cut to two clusters.
net::ClosSpec train_spec(const ExperimentConfig& config) {
  net::ClosSpec spec = config.net.spec;
  spec.clusters = 2;
  if (spec.cores == 0) spec.cores = 2;
  spec.validate();
  return spec;
}

double wall_seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

approx::BoundaryTaps make_boundary_taps(const BuiltNetwork& network,
                                        std::uint32_t cluster) {
  approx::BoundaryTaps taps;
  const auto& spec = network.spec;
  for (net::HostId h = 0; h < spec.total_hosts(); ++h) {
    if (spec.cluster_of_host(h) != cluster) continue;
    taps.host_uplinks.push_back(network.host_uplinks[h]);
    taps.host_downlinks.push_back(network.host_downlinks[h]);
    taps.drop_links.push_back(network.host_downlinks[h]);
  }
  for (const auto& att : network.core_links) {
    if (att.cluster != cluster) continue;
    taps.agg_core_up.push_back(att.up);
    taps.core_agg_down.push_back(att.down);
    taps.drop_links.push_back(att.up);
  }
  for (const auto& [c, link] : network.intra_fabric_links) {
    if (c == cluster) taps.drop_links.push_back(link);
  }
  return taps;
}

BoundaryTrace record_boundary_trace(const ExperimentConfig& config) {
  telemetry::Span phase{"experiment.record_trace"};
  const net::ClosSpec spec = train_spec(config);

  sim::Simulator sim{config.seed};
  NetworkConfig net_cfg = config.net;
  net_cfg.spec = spec;
  auto network = build_full_network(sim, net_cfg);

  constexpr std::uint32_t kModeledCluster = 1;
  const auto taps = make_boundary_taps(network, kModeledCluster);
  approx::TraceRecorder recorder{spec, kModeledCluster, taps};

  auto sizes = workload::mini_web_distribution();
  workload::ClusterMixTraffic matrix{spec, config.intra_fraction};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = config.load;
  gcfg.host_bandwidth_bps = config.net.host_uplink.bandwidth_bps;
  gcfg.stop_at = config.train_duration;
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "train.gen", network.hosts, sizes.get(), &matrix, gcfg);
  gen->start();

  // Let in-flight traffic drain a little past the arrival cutoff so late
  // boundary crossings complete.
  sim.run_until(config.train_duration + sim::SimTime::from_ms(20));
  recorder.finalize();

  BoundaryTrace trace;
  trace.spec = spec;
  trace.cluster = kModeledCluster;
  trace.records = recorder.records();
  return trace;
}

namespace {

/// Trains one direction's `model` on `train` and, when the config holds
/// out a tail, evaluates it on `test`. Writes nothing but its outputs.
void train_direction(const ExperimentConfig& config,
                     const approx::Dataset& train,
                     const approx::Dataset& test, approx::MicroModel& model,
                     approx::TrainReport& report, approx::EvalMetrics& eval) {
  report = approx::train_micro_model(model, train, config.train);
  if (config.eval_holdout > 0.0) {
    eval = approx::evaluate_micro_model(model, test);
  }
}

}  // namespace

TrainedModels train_from_trace(const ExperimentConfig& config,
                               const BoundaryTrace& trace) {
  telemetry::Span phase{"experiment.train"};
  if (config.eval_holdout < 0.0 || config.eval_holdout >= 1.0) {
    throw std::invalid_argument(
        "train_from_trace: eval_holdout must be in [0, 1)");
  }
  TrainedModels out;
  out.boundary_records = trace.records.size();
  out.has_eval = config.eval_holdout > 0.0;

  // Both datasets are built here, before the worker starts (~25 ms of
  // the ~0.7 s at the benchmark's config): their multi-megabyte buffers
  // then come from and return to this thread's malloc arena, which
  // malloc_trim releases. A worker thread's arena keeps its freed top
  // resident, which in the hybrid benchmark raised peak_rss_mb by 28%.
  approx::Dataset ingress_ds =
      approx::build_dataset(trace.spec, trace.cluster,
                            approx::Direction::Ingress, trace.records,
                            config.macro);
  approx::Dataset egress_ds =
      approx::build_dataset(trace.spec, trace.cluster,
                            approx::Direction::Egress, trace.records,
                            config.macro);
  // Optional held-out split (chronological tail) for post-training eval.
  approx::Dataset ingress_test, egress_test;
  if (out.has_eval) {
    const double train_fraction = 1.0 - config.eval_holdout;
    std::tie(ingress_ds, ingress_test) =
        approx::split_dataset(ingress_ds, train_fraction);
    std::tie(egress_ds, egress_test) =
        approx::split_dataset(egress_ds, train_fraction);
  }

  approx::MicroModel::Config mcfg = config.model;
  out.ingress = std::make_unique<approx::MicroModel>(mcfg);
  mcfg.seed += 1;
  out.egress = std::make_unique<approx::MicroModel>(mcfg);

  // The directions share no mutable state (each has its own dataset,
  // model and batch-sampling Rng), so egress trains on one worker thread
  // while this thread trains ingress. Each model still trains on one
  // thread, so the weights are bit-identical to training the two in
  // turn. The jthread joins when its scope ends, on the exception path
  // too; a worker failure is carried out and rethrown here (if ingress
  // failed as well, the ingress exception is the one that propagates).
  std::exception_ptr egress_error;
  {
    std::jthread worker{[&] {
      try {
        train_direction(config, egress_ds, egress_test, *out.egress,
                        out.egress_report, out.egress_eval);
      } catch (...) {
        egress_error = std::current_exception();
      }
    }};
    train_direction(config, ingress_ds, ingress_test, *out.ingress,
                    out.ingress_report, out.ingress_eval);
  }
  if (egress_error) std::rethrow_exception(egress_error);
  return out;
}

TrainedModels train_cluster_models(const ExperimentConfig& config) {
  return train_from_trace(config, record_boundary_trace(config));
}

namespace {

/// The measurement run both fidelities share: `models` null builds every
/// cluster at packet fidelity, else every cluster but cluster 0 runs the
/// trained models.
RunResult run_simulation(const ExperimentConfig& config,
                         const net::ClosSpec& spec,
                         const TrainedModels* models) {
  telemetry::Span phase{models == nullptr ? "experiment.run_full"
                                          : "experiment.run_hybrid"};
  // Declared before the sim: both must outlive what publishes into them.
  telemetry::Registry registry;
  std::unique_ptr<telemetry::FidelitySink> fidelity;
  sim::Simulator sim{config.seed + 1};
  if (config.telemetry) sim.set_telemetry(&registry);
  NetworkConfig net_cfg = config.net;
  net_cfg.spec = spec;
  BuiltNetwork network;
  if (models == nullptr) {
    network = build_full_network(sim, net_cfg);
  } else {
    HybridConfig hcfg;
    hcfg.net = net_cfg;
    hcfg.approx = config.approx;
    hcfg.approx.macro = config.macro;
    if (config.fidelity.enabled) {
      fidelity = std::make_unique<telemetry::FidelitySink>(config.fidelity);
      hcfg.approx.fidelity = fidelity.get();
    }
    network = build_hybrid_network(sim, hcfg, *models->ingress,
                                   *models->egress);
  }

  RunResult result;
  stats::LatencyCollector rtt;
  for (net::HostId h = 0; h < spec.total_hosts(); ++h) {
    if (spec.cluster_of_host(h) == kFullCluster) {
      network.hosts[h]->set_rtt_collector(&rtt);
    }
  }

  auto sizes = workload::mini_web_distribution();
  workload::ClusterMixTraffic matrix{spec, config.intra_fraction};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = config.load;
  gcfg.host_bandwidth_bps = config.net.host_uplink.bandwidth_bps;
  gcfg.stop_at = config.duration;
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "gen", network.hosts, sizes.get(), &matrix, gcfg);
  if (models != nullptr) {
    // Elide traffic entirely between approximated clusters (paper §6.2):
    // it cannot affect measurements taken in the full-fidelity cluster.
    gen->admission_filter = [&spec](net::HostId src, net::HostId dst) {
      return spec.cluster_of_host(src) == kFullCluster ||
             spec.cluster_of_host(dst) == kFullCluster;
    };
  }
  gen->start();

  const auto start = std::chrono::steady_clock::now();
  sim.run_until(config.duration);
  result.wall_seconds = wall_seconds_since(start);
  result.events_executed = sim.events_executed();
  result.events_scheduled = sim.events_scheduled();
  result.rtt_cdf = rtt.cdf();
  result.flows_launched = gen->launched();
  result.flows_completed = gen->flows().completed_count();
  if (result.flows_completed > 0) {
    double sum = 0;
    for (const auto& r : gen->flows().records()) {
      if (!r.completed) continue;
      sum += r.fct().to_seconds();
      result.fct_cdf.add(r.fct().to_seconds());
    }
    result.mean_fct_seconds =
        sum / static_cast<double>(result.flows_completed);
  }
  for (auto* cluster : network.clusters) {
    if (cluster == nullptr) continue;
    cluster->finalize_fidelity();
    result.approx_stats.egress_packets += cluster->stats().egress_packets;
    result.approx_stats.ingress_packets += cluster->stats().ingress_packets;
    result.approx_stats.intra_packets += cluster->stats().intra_packets;
    result.approx_stats.predicted_drops += cluster->stats().predicted_drops;
    result.approx_stats.conflicts_resolved +=
        cluster->stats().conflicts_resolved;
    result.approx_stats.backlog_drops += cluster->stats().backlog_drops;
    for (std::size_t t = 0; t < kClusterTierCount; ++t) {
      result.approx_stats.tier_packets[t] += cluster->stats().tier_packets[t];
    }
    result.approx_stats.tier_transitions += cluster->stats().tier_transitions;
  }
  result.regions = collect_regions(network);
  if (config.telemetry) result.metrics = registry.snapshot();
  if (fidelity) result.fidelity = fidelity->report_section();
  return result;
}

}  // namespace

RunResult run_full_simulation(const ExperimentConfig& config,
                              const net::ClosSpec& spec) {
  return run_simulation(config, spec, nullptr);
}

RunResult run_hybrid_simulation(const ExperimentConfig& config,
                                const net::ClosSpec& spec,
                                const TrainedModels& models) {
  return run_simulation(config, spec, &models);
}

}  // namespace esim::core
