// PDES scale-out: events/s and sync-wait fraction vs partition count on a
// synthetic multi-cluster fat-tree, comparing the pre-existing engine
// configuration (global YAWNS window + rack-round-robin placement) against
// the scale-out path (per-pair lookahead windows + graph-cut placement).
// Both paths send cross-partition messages through the same plain
// per-pair mailboxes, which the round barrier alone keeps safe.
//
// The topology gives the partitioner something to exploit: intra-cluster
// links are short (1us) while agg<->core runs are long (8us). Round-robin
// placement cuts short links, pinning every window to 1us; graph-cut keeps
// clusters whole so only the long links cross, and per-pair windows open
// up to the 8us (and, between non-adjacent partitions, 16us+) horizon.
// Every configuration below stays digest-identical to the sequential
// engine — `esim_diffcheck fuzz` gates exactly this engine/builder path.
//
// All runs leave the modeled MPI overhead at zero, so events/s measures
// engine work, not a modeled stall. On a single-core
// host the speedup comes from fewer barrier rounds and cheaper drains, not
// thread parallelism; sync-wait fraction (barrier wall time summed over
// workers / (P * wall)) shows where the remaining time goes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/network.h"
#include "sim/parallel.h"
#include "telemetry/report.h"
#include "workload/generator.h"

namespace {

using namespace esim;  // NOLINT
using core::NetworkConfig;
using core::PlacementPolicy;
using sim::ParallelEngine;
using sim::SimTime;

// Weak-scaling sweep: the fat-tree grows with the partition count
// (clusters = max(8, P)), holding per-partition event work roughly
// constant so the curve isolates synchronization cost rather than
// work-per-thread dilution. tors_per_cluster deliberately exceeds cores
// so each agg has more intra-cluster than core links — otherwise min-cut
// refinement correctly (but unhelpfully for this sweep) drags aggs into
// the cores' partition and leaves 1us ToR-agg links crossing.
NetworkConfig fat_tree(std::uint32_t clusters) {
  NetworkConfig cfg;
  cfg.spec.clusters = clusters;
  cfg.spec.tors_per_cluster = 8;
  cfg.spec.aggs_per_cluster = 4;
  cfg.spec.hosts_per_tor = 2;
  cfg.spec.cores = 4;
  // Long inter-cluster runs: the links a cut-minimizing placement leaves
  // crossing carry 8x the lookahead of the intra-cluster fabric.
  cfg.core_link = cfg.fabric_link;
  cfg.core_link->propagation = sim::SimTime::from_us(8);
  return cfg;
}

struct Point {
  double events_per_sec = 0;
  double sync_wait_fraction = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t cut_links = 0;
};

Point run_point(std::uint32_t partitions, std::uint32_t clusters,
                bool scale_out, double load, SimTime duration) {
  ParallelEngine::Config ecfg;
  ecfg.num_partitions = partitions;
  ecfg.lookahead = SimTime::from_us(1);
  ecfg.seed = 17;
  ecfg.window_mode = scale_out ? ParallelEngine::WindowMode::per_pair
                               : ParallelEngine::WindowMode::global;
  ParallelEngine engine{ecfg};

  auto built = core::build_clos_partitioned(
      engine, fat_tree(clusters),
      scale_out ? PlacementPolicy::graph_cut : PlacementPolicy::round_robin);

  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{built.net.spec.total_hosts()};
  for (std::uint32_t p = 0; p < partitions; ++p) {
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = load;
    gcfg.stop_at = duration;
    auto* gen =
        engine.partition(p).sim().add_component<workload::TrafficGenerator>(
            "gen" + std::to_string(p), built.net.hosts, sizes.get(), &matrix,
            gcfg);
    gen->admission_filter = [&built, p](net::HostId src, net::HostId) {
      return built.partition_of_host[src] == p;
    };
    gen->start();
  }

  const auto start = std::chrono::steady_clock::now();
  engine.run_until(duration);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Point pt;
  pt.events = engine.stats().events_executed;
  pt.rounds = engine.stats().sync_rounds;
  pt.cross_messages = engine.stats().cross_messages;
  pt.cut_links = built.cross_partition_links;
  pt.events_per_sec = wall > 0 ? static_cast<double>(pt.events) / wall : 0;
  pt.sync_wait_fraction =
      wall > 0 ? engine.stats().sync_wait_seconds / (partitions * wall) : 0;
  return pt;
}

}  // namespace

int main() {
  bench::print_header(
      "PDES scale-out",
      "events/s vs partitions: global+round-robin baseline vs "
      "per-pair+graph-cut");

  const double load = 0.025;
  const double duration_ms = bench::quick_mode() ? 0.25 : 1.0;
  const int reps = bench::quick_mode() ? 1 : 2;
  const auto duration = SimTime::from_seconds_f(duration_ms / 1e3);
  std::vector<std::uint32_t> partition_counts{1, 2, 4, 8, 16, 32, 64};
  if (bench::quick_mode()) partition_counts = {1, 2, 4, 8};

  telemetry::RunReport report{"pdes_scaling"};
  report.set("bench", "pdes_scaling");
  report.set("load", load);
  report.set("duration_ms", duration_ms);
  report.set("topology",
             "clos cmax(8,P) t8 a4 h2 cores4, core links 8us (weak scaling)");

  std::printf("%-6s %-28s %-28s %-8s\n", "P",
              "baseline ev/s (sync%, rounds)",
              "scale-out ev/s (sync%, rounds)", "speedup");
  // Best-of-N per configuration: on a shared host a single rep can eat an
  // unlucky scheduling quantum; the fastest rep is the least-disturbed
  // measurement of the engine itself.
  auto best_point = [&](std::uint32_t P, std::uint32_t clusters,
                        bool scale_out) {
    Point best = run_point(P, clusters, scale_out, load, duration);
    for (int r = 1; r < reps; ++r) {
      const Point pt = run_point(P, clusters, scale_out, load, duration);
      if (pt.events_per_sec > best.events_per_sec) best = pt;
    }
    return best;
  };

  for (const auto P : partition_counts) {
    const std::uint32_t clusters = std::max<std::uint32_t>(8, P);
    const auto base = best_point(P, clusters, /*scale_out=*/false);
    const auto fast = best_point(P, clusters, /*scale_out=*/true);
    const double speedup = base.events_per_sec > 0
                               ? fast.events_per_sec / base.events_per_sec
                               : 0;
    std::printf("%-6u %-10.4g (%4.1f%%, %7llu) %-10.4g (%4.1f%%, %7llu) %-8.3g\n",
                P, base.events_per_sec, 100 * base.sync_wait_fraction,
                static_cast<unsigned long long>(base.rounds),
                fast.events_per_sec, 100 * fast.sync_wait_fraction,
                static_cast<unsigned long long>(fast.rounds), speedup);
    std::fflush(stdout);

    const std::string row = "p" + std::to_string(P);
    report.set(row + ".baseline.events_per_sec", base.events_per_sec);
    report.set(row + ".baseline.sync_wait_fraction", base.sync_wait_fraction);
    report.set(row + ".baseline.sync_rounds", base.rounds);
    report.set(row + ".baseline.cross_messages", base.cross_messages);
    report.set(row + ".baseline.cut_links", base.cut_links);
    report.set(row + ".baseline.events", base.events);
    report.set(row + ".scale_out.events_per_sec", fast.events_per_sec);
    report.set(row + ".scale_out.sync_wait_fraction", fast.sync_wait_fraction);
    report.set(row + ".scale_out.sync_rounds", fast.rounds);
    report.set(row + ".scale_out.cross_messages", fast.cross_messages);
    report.set(row + ".scale_out.cut_links", fast.cut_links);
    report.set(row + ".scale_out.events", fast.events);
    report.set(row + ".speedup", speedup);
  }

  const std::string report_path = "BENCH_pdes_scaling.json";
  if (report.write(report_path)) {
    std::printf("wrote %s\n", report_path.c_str());
  }

  bench::print_note(
      "baseline = the pre-existing engine path (global YAWNS window, "
      "rack-round-robin placement); scale-out = per-pair lookahead windows "
      "+ graph-cut placement. Both send cross-partition messages through "
      "per-pair mailboxes and are digest-identical to the sequential "
      "engine (esim_diffcheck).");
  bench::print_note(
      "expected shape: baseline rounds grow with P while windows stay "
      "pinned at the 1us global lookahead; scale-out windows follow the "
      "8us inter-cluster links, so rounds (and events/s) hold up as P "
      "grows. sync% is barrier wall time / (P * wall).");
  return 0;
}
