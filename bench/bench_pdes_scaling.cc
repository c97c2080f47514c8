// PDES scale-out: events/s and sync-wait fraction vs partition count on a
// synthetic multi-cluster fat-tree, in three engine configurations:
//   baseline         — global YAWNS window + rack-round-robin placement
//                      (the pre-existing path);
//   global_graph_cut — global window on graph-cut placement;
//   scale_out        — per-pair lookahead windows + graph-cut placement.
// scale_out/baseline is the whole scale-out change; scale_out over
// global_graph_cut compares the window modes on one placement. Every
// configuration launches the sequential run's flows and executes the same
// events, and sends cross-partition messages through the same plain
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
// engine work, not a modeled stall; sync-wait fraction (barrier wall time
// summed over workers / (P * wall)) shows where the remaining time goes.
// Each point runs every configuration once per repetition, starting the
// rotation one configuration later each repetition so host noise hits
// all three alike, and reports the median and quartiles of events/s and
// of the per-repetition ratios. ESIM_BENCH_QUICK=1 runs one repetition
// of a shorter horizon (the sanitizer smoke).
#include <algorithm>
#include <array>
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

struct Setup {
  const char* name;
  ParallelEngine::WindowMode window;
  PlacementPolicy placement;
};

constexpr std::array<Setup, 3> kSetups = {{
    {"baseline", ParallelEngine::WindowMode::global,
     PlacementPolicy::round_robin},
    {"global_graph_cut", ParallelEngine::WindowMode::global,
     PlacementPolicy::graph_cut},
    {"scale_out", ParallelEngine::WindowMode::per_pair,
     PlacementPolicy::graph_cut},
}};
constexpr std::size_t kBaseline = 0, kGlobalGraphCut = 1, kScaleOut = 2;

struct Point {
  double events_per_sec = 0;
  double sync_wait_fraction = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t cut_links = 0;
};

Point run_point(std::uint32_t partitions, std::uint32_t clusters,
                const Setup& setup, double load, SimTime duration) {
  ParallelEngine::Config ecfg;
  ecfg.num_partitions = partitions;
  ecfg.lookahead = SimTime::from_us(1);
  ecfg.seed = 17;
  ecfg.window_mode = setup.window;
  ParallelEngine engine{ecfg};

  auto built = core::build_clos_partitioned(engine, fat_tree(clusters),
                                            setup.placement);

  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{built.net.spec.total_hosts()};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = load;
  gcfg.stop_at = duration;
  workload::start_traffic(core::partition_sims(engine), built.net.hosts,
                          built.partition_of_host, sizes.get(), &matrix, gcfg);

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

/// Per-repetition ratios of two configurations' events/s.
std::vector<double> ratios(const std::vector<Point>& num,
                           const std::vector<Point>& den) {
  std::vector<double> out;
  for (std::size_t r = 0; r < num.size(); ++r) {
    out.push_back(den[r].events_per_sec > 0
                      ? num[r].events_per_sec / den[r].events_per_sec
                      : 0);
  }
  return out;
}

void report_quartiles(telemetry::RunReport& report, const std::string& key,
                      const bench::Quartiles& q) {
  report.set(key, q.median);
  report.set(key + "_q1", q.q1);
  report.set(key + "_q3", q.q3);
}

}  // namespace

int main() {
  bench::print_header(
      "PDES scale-out",
      "events/s vs partitions: global+round-robin baseline, global on "
      "graph-cut, per-pair+graph-cut");

  const double load = 0.025;
  const double duration_ms = bench::quick_mode() ? 0.25 : 1.0;
  const int reps = bench::quick_mode() ? 1 : 10;
  const auto duration = SimTime::from_seconds_f(duration_ms / 1e3);
  std::vector<std::uint32_t> partition_counts{1, 2, 4, 8, 16, 32, 64};
  if (bench::quick_mode()) partition_counts = {1, 2, 4, 8};

  telemetry::RunReport report{"pdes_scaling"};
  report.set("bench", "pdes_scaling");
  report.set("load", load);
  report.set("duration_ms", duration_ms);
  report.set("repetitions", static_cast<std::uint64_t>(reps));
  report.set("topology",
             "clos cmax(8,P) t8 a4 h2 cores4, core links 8us (weak scaling)");

  std::printf("%-4s %-17s %28s %7s %8s\n", "P", "configuration",
              "M events/s: q1 median q3", "sync%", "rounds");
  for (const auto P : partition_counts) {
    const std::uint32_t clusters = std::max<std::uint32_t>(8, P);
    // runs[c][r]: configuration c, repetition r.
    std::array<std::vector<Point>, kSetups.size()> runs;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t k = 0; k < kSetups.size(); ++k) {
        const std::size_t c =
            (k + static_cast<std::size_t>(r)) % kSetups.size();
        runs[c].push_back(run_point(P, clusters, kSetups[c], load, duration));
      }
    }

    const std::string row = "p" + std::to_string(P);
    for (std::size_t c = 0; c < kSetups.size(); ++c) {
      std::vector<double> eps, sync;
      for (const Point& pt : runs[c]) {
        eps.push_back(pt.events_per_sec);
        sync.push_back(pt.sync_wait_fraction);
      }
      const bench::Quartiles e = bench::quartiles(eps);
      const double sync_median = bench::quartiles(sync).median;
      // Events, rounds, messages and cuts are the same in every
      // repetition of a configuration; the last one reports them.
      const Point& last = runs[c].back();
      std::printf("%-4u %-17s %8.3f %8.3f %8.3f %6.1f%% %8llu\n", P,
                  kSetups[c].name, e.q1 / 1e6, e.median / 1e6, e.q3 / 1e6,
                  100 * sync_median,
                  static_cast<unsigned long long>(last.rounds));
      const std::string key = row + "." + kSetups[c].name;
      report_quartiles(report, key + ".events_per_sec", e);
      report.set(key + ".sync_wait_fraction", sync_median);
      report.set(key + ".sync_rounds", last.rounds);
      report.set(key + ".cross_messages", last.cross_messages);
      report.set(key + ".cut_links", last.cut_links);
      report.set(key + ".events", last.events);
    }
    const bench::Quartiles speedup =
        bench::quartiles(ratios(runs[kScaleOut], runs[kBaseline]));
    const bench::Quartiles window =
        bench::quartiles(ratios(runs[kScaleOut], runs[kGlobalGraphCut]));
    std::printf("%-4s scale_out/baseline %.3g [%.3g-%.3g]; per_pair/global "
                "on graph-cut %.3g [%.3g-%.3g]\n",
                "", speedup.median, speedup.q1, speedup.q3, window.median,
                window.q1, window.q3);
    std::fflush(stdout);
    report_quartiles(report, row + ".speedup", speedup);
    report_quartiles(report, row + ".per_pair_vs_global", window);
  }

  const std::string report_path = "BENCH_pdes_scaling.json";
  if (report.write(report_path)) {
    std::printf("wrote %s\n", report_path.c_str());
  }

  bench::print_note(
      "baseline = the pre-existing engine path (global YAWNS window, "
      "rack-round-robin placement); scale_out = per-pair lookahead windows "
      "+ graph-cut placement; global_graph_cut isolates the window mode. "
      "All send cross-partition messages through per-pair mailboxes and "
      "are digest-identical to the sequential engine (esim_diffcheck).");
  bench::print_note(
      "ratios are per repetition (median [q1-q3]); speedup = scale_out / "
      "baseline, per_pair/global = scale_out / global_graph_cut. sync% is "
      "the median of barrier wall time / (P * wall). At P above the host's "
      "core count the partitions' threads share cores.");
  return 0;
}
