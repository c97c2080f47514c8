#include <chrono>
// Figure 1: simulation performance (simulated seconds per wall-clock
// second) on leaf-spine topologies of increasing size, for a single-
// threaded engine versus conservative PDES spread over 1, 2, and 4
// modeled machines.
//
// The paper ran OMNeT++'s MPI-based PDES on real servers; here the
// inter-machine costs are modeled (DESIGN.md §1): each synchronization
// round pays a base collective cost plus a per-cross-message cost, both
// growing with machine count. On a many-core host the 1-machine PDES can
// genuinely win at small sizes; on a single-core CI box thread
// parallelism cannot help, and the curves show the paper's headline
// effect — synchronization overhead makes PDES fall further behind the
// single thread as the fabric (and thus cross-partition traffic) grows.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/network.h"
#include "sim/parallel.h"
#include "telemetry/report.h"
#include "workload/generator.h"

namespace {

using namespace esim;            // NOLINT
using core::NetworkConfig;
using sim::SimTime;

NetworkConfig leaf_spine(std::uint32_t n) {
  NetworkConfig cfg;
  cfg.spec.clusters = 1;
  cfg.spec.tors_per_cluster = n;
  cfg.spec.aggs_per_cluster = n;  // paper: ToRs and Cluster switches 4..64
  cfg.spec.hosts_per_tor = 4;
  cfg.spec.cores = 0;
  return cfg;
}

struct Measurement {
  double sim_seconds = 0;
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  double rate() const {
    return wall_seconds <= 0 ? 0 : sim_seconds / wall_seconds;
  }
};

SimTime run_duration() {
  return SimTime::from_seconds_f((bench::quick_mode() ? 0.5 : 2.0) / 1e3);
}

/// Starts the workload on `sims` and times `engine` to the horizon. Every
/// engine draws one arrival stream, so the runs launch the same flows.
template <typename Engine>
Measurement measure(Engine& engine, const std::vector<sim::Simulator*>& sims,
                    const core::BuiltNetwork& net,
                    const std::vector<std::uint32_t>& partition_of_host,
                    double load) {
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = load;
  gcfg.stop_at = run_duration();
  const auto gens = workload::start_traffic(sims, net.hosts, partition_of_host,
                                            sizes.get(), &matrix, gcfg);
  const auto start = std::chrono::steady_clock::now();
  engine.run_until(gcfg.stop_at);
  Measurement m;
  m.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  m.sim_seconds = gcfg.stop_at.to_seconds();
  for (const auto* g : gens) m.flows += g->launched();
  return m;
}

Measurement run_single(std::uint32_t n, double load) {
  sim::Simulator sim{17};
  const auto net = core::build_full_network(sim, leaf_spine(n));
  Measurement m = measure(sim, {&sim}, net, {}, load);
  m.events = sim.events_executed();
  return m;
}

Measurement run_pdes(std::uint32_t n, double load, std::uint32_t machines) {
  sim::ParallelEngine::Config ecfg;
  ecfg.num_partitions = 4;
  ecfg.lookahead = SimTime::from_us(1);
  ecfg.seed = 17;
  // Modeled MPI costs: a collective per window plus per-message transfer
  // cost; both grow with machine count (shared memory vs NIC + wire).
  ecfg.round_overhead_us = 3.0 * machines;
  ecfg.per_message_overhead_us = machines == 1 ? 0.2 : 0.6 * machines;
  sim::ParallelEngine engine{ecfg};
  const auto built = core::build_clos_partitioned(engine, leaf_spine(n));
  Measurement m = measure(engine, core::partition_sims(engine), built.net,
                          built.partition_of_host, load);
  m.events = engine.stats().events_executed;
  return m;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 1",
      "sim-seconds per wall-second, leaf-spine, DES vs PDES(1/2/4 machines)");

  const double load = 0.25;
  std::vector<std::uint32_t> sizes{4, 8, 16, 32};
  if (bench::quick_mode()) sizes = {4, 8};

  telemetry::RunReport report{"fig1_pdes_scaling"};
  report.set("bench", "fig1_pdes_scaling");
  report.set("load", load);

  std::printf("%-8s %-16s %-16s %-16s %-16s %s\n", "ToRs", "single-thread",
              "pdes-1machine", "pdes-2machines", "pdes-4machines",
              "flows single/pdes");
  for (const auto n : sizes) {
    const auto single = run_single(n, load);
    const auto p1 = run_pdes(n, load, 1);
    const auto p2 = run_pdes(n, load, 2);
    const auto p4 = run_pdes(n, load, 4);
    std::printf("%-8u %-16.4g %-16.4g %-16.4g %-16.4g %llu/%llu\n", n,
                single.rate(), p1.rate(), p2.rate(), p4.rate(),
                static_cast<unsigned long long>(single.flows),
                static_cast<unsigned long long>(p4.flows));
    std::fflush(stdout);
    const std::string row = "tors" + std::to_string(n);
    report.set(row + ".single_thread.rate", single.rate());
    report.set(row + ".single_thread.events", single.events);
    report.set(row + ".single_thread.flows", single.flows);
    report.set(row + ".pdes_1machine.rate", p1.rate());
    report.set(row + ".pdes_2machines.rate", p2.rate());
    report.set(row + ".pdes_4machines.rate", p4.rate());
    report.set(row + ".pdes_4machines.events", p4.events);
    report.set(row + ".pdes_4machines.flows", p4.flows);
  }

  const std::string report_path = "BENCH_fig1_pdes_scaling.json";
  if (report.write(report_path)) {
    std::printf("wrote %s\n", report_path.c_str());
  }

  bench::print_note(
      "rows are sim-seconds advanced per wall-second (higher is better); "
      "the paper's Figure 1 plots the same quantity for OMNeT++.");
  bench::print_note(
      "expected shape: every column falls as the fabric grows; the "
      "multi-machine PDES columns fall fastest (synchronization + "
      "cross-partition messaging), leaving the single thread ahead at "
      "the largest sizes — the paper's motivation for avoiding "
      "parallelization as the answer.");
  return 0;
}
