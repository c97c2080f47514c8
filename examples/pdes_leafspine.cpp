// Parallel discrete-event simulation of a leaf-spine fabric (the
// machinery behind the paper's Figure 1 motivation experiment).
//
// Builds one leaf-spine twice — sequentially, and partitioned over a
// conservative window-barrier PDES engine — runs the same workload, and
// reports where the time went (events vs synchronization rounds vs
// cross-partition messages). Both runs draw one arrival stream
// (workload::start_traffic), so the PDES run must launch and complete the
// sequential run's flows in the same number of events; the program exits
// 1 when it does not.
//
//   ./build/examples/pdes_leafspine
//
// Set ESIM_TELEMETRY=1 to additionally publish per-partition metrics and
// a Chrome trace (pdes_leafspine_report.json / pdes_leafspine_trace.json).
// Telemetry observes the run without changing it: event counts and sync
// rounds are identical either way, only wall clock can differ.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/network.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"
#include "workload/generator.h"

using namespace esim;  // NOLINT

namespace {

core::NetworkConfig leaf_spine(std::uint32_t n) {
  core::NetworkConfig cfg;
  cfg.spec.clusters = 1;
  cfg.spec.tors_per_cluster = n;
  cfg.spec.aggs_per_cluster = n;
  cfg.spec.hosts_per_tor = 4;
  cfg.spec.cores = 0;
  return cfg;
}

/// What the two runs must agree on.
struct Work {
  std::uint64_t launched = 0, completed = 0, events = 0;
  bool operator==(const Work&) const = default;
};

/// Totals one run's generators and prints them under `run`.
Work tally(const char* run,
           const std::vector<workload::TrafficGenerator*>& gens,
           std::uint64_t events, double wall) {
  Work w;
  w.events = events;
  for (const auto* g : gens) {
    w.launched += g->launched();
    w.completed += g->flows().completed_count();
  }
  std::printf("%s: %.3fs wall, %llu events (%.0f ev/s), %llu flows "
              "launched, %llu completed\n",
              run, wall, static_cast<unsigned long long>(w.events),
              static_cast<double>(w.events) / wall,
              static_cast<unsigned long long>(w.launched),
              static_cast<unsigned long long>(w.completed));
  return w;
}

}  // namespace

int main() {
  const std::uint32_t tors = 8;
  const auto duration = sim::SimTime::from_ms(2);
  const bool telemetry_on = std::getenv("ESIM_TELEMETRY") != nullptr;
  std::printf("leaf-spine: %u ToRs x %u spines, %u hosts, 2ms simulated%s\n\n",
              tors, tors, tors * 4,
              telemetry_on ? " (telemetry on)" : "");

  telemetry::RunReport report{"pdes_leafspine"};
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{tors * 4};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.25;
  gcfg.stop_at = duration;

  // --- sequential reference ---
  Work seq;
  {
    // Registry before the simulator: its flushers capture the sim, so the
    // sim must be destroyed first (and the snapshot taken before that).
    telemetry::Registry registry;
    sim::Simulator sim{99};
    if (telemetry_on) sim.set_telemetry(&registry, "seq");
    auto net = core::build_full_network(sim, leaf_spine(tors));
    const auto gens = workload::start_traffic({&sim}, net.hosts, {},
                                              sizes.get(), &matrix, gcfg);
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(duration);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    seq = tally("sequential ", gens, sim.events_executed(), wall);
    report.set("sequential.wall_seconds", wall);
    report.set("sequential.events_executed", seq.events);
    if (telemetry_on) report.add_metrics(registry.snapshot());
  }

  // --- conservative PDES over 4 partitions ---
  Work pdes;
  {
    sim::ParallelEngine::Config ecfg;
    ecfg.num_partitions = 4;
    ecfg.lookahead = sim::SimTime::from_us(1);
    ecfg.seed = 99;
    telemetry::Registry registry;
    telemetry::TraceSession trace;
    sim::ParallelEngine engine{ecfg};
    if (telemetry_on) {
      engine.set_telemetry(&registry);  // before components are built
      trace.start();
    }
    auto built = core::build_clos_partitioned(engine, leaf_spine(tors));
    const auto gens = workload::start_traffic(
        core::partition_sims(engine), built.net.hosts,
        built.partition_of_host, sizes.get(), &matrix, gcfg);
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_until(duration);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto& st = engine.stats();
    pdes = tally("pdes (4 LP)", gens, st.events_executed, wall);
    std::printf("             %llu sync rounds, %llu cross messages, "
                "%llu cross links\n",
                static_cast<unsigned long long>(st.sync_rounds),
                static_cast<unsigned long long>(st.cross_messages),
                static_cast<unsigned long long>(built.cross_partition_links));
    report.set("pdes.wall_seconds", wall);
    report.set("pdes.events_executed", pdes.events);
    report.set("pdes.sync_rounds", st.sync_rounds);
    report.set("pdes.cross_messages", st.cross_messages);
    report.set("pdes.cross_partition_links", built.cross_partition_links);
    if (telemetry_on) {
      trace.stop();
      report.add_metrics(registry.snapshot());
      const std::string report_path = "pdes_leafspine_report.json";
      const std::string trace_path = "pdes_leafspine_trace.json";
      if (report.write(report_path) && trace.write_chrome_json(trace_path)) {
        std::printf("\ntelemetry: wrote %s and %s\n", report_path.c_str(),
                    trace_path.c_str());
      }
    }
    std::printf(
        "\nOn densely meshed fabrics most ToR<->spine links cross\n"
        "partitions, so the window-barrier engine synchronizes every\n"
        "lookahead (= 1us of virtual time). That synchronization tax is\n"
        "what Figure 1 of the paper measures — and what the ML\n"
        "approximation sidesteps by removing the fabric entirely.\n");
  }
  if (pdes != seq) {
    std::fprintf(stderr, "pdes_leafspine: the PDES run's flows or events "
                         "differ from the sequential run's\n");
    return 1;
  }
  return 0;
}
