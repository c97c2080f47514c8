// Parallel discrete-event simulation of a leaf-spine fabric (the
// machinery behind the paper's Figure 1 motivation experiment).
//
// Builds one leaf-spine twice — sequentially, and partitioned over a
// conservative window-barrier PDES engine — runs the same workload, and
// reports where the time went (events vs synchronization rounds vs
// cross-partition messages).
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

}  // namespace

int main() {
  const std::uint32_t tors = 8;
  const auto duration = sim::SimTime::from_ms(2);
  const bool telemetry_on = std::getenv("ESIM_TELEMETRY") != nullptr;
  std::printf("leaf-spine: %u ToRs x %u spines, %u hosts, 2ms simulated%s\n\n",
              tors, tors, tors * 4,
              telemetry_on ? " (telemetry on)" : "");

  telemetry::RunReport report{"pdes_leafspine"};

  // --- sequential reference ---
  {
    // Registry before the simulator: its flushers capture the sim, so the
    // sim must be destroyed first (and the snapshot taken before that).
    telemetry::Registry registry;
    sim::Simulator sim{99};
    if (telemetry_on) sim.set_telemetry(&registry, "seq");
    auto net = core::build_full_network(sim, leaf_spine(tors));
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{net.spec.total_hosts()};
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = 0.25;
    gcfg.stop_at = duration;
    auto* gen = sim.add_component<workload::TrafficGenerator>(
        "gen", net.hosts, sizes.get(), &matrix, gcfg);
    gen->start();
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(duration);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("sequential : %.3fs wall, %llu events (%.0f ev/s)\n", wall,
                static_cast<unsigned long long>(sim.events_executed()),
                sim.events_executed() / wall);
    report.set("sequential.wall_seconds", wall);
    report.set("sequential.events_executed", sim.events_executed());
    if (telemetry_on) report.add_metrics(registry.snapshot());
  }

  // --- conservative PDES over 4 partitions ---
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
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{built.net.spec.total_hosts()};
    std::vector<workload::TrafficGenerator*> gens;
    for (std::uint32_t p = 0; p < engine.num_partitions(); ++p) {
      workload::TrafficGenerator::Config gcfg;
      gcfg.load = 0.25;
      gcfg.stop_at = duration;
      auto* gen =
          engine.partition(p).sim()
              .add_component<workload::TrafficGenerator>(
                  "gen" + std::to_string(p), built.net.hosts, sizes.get(),
                  &matrix, gcfg);
      gen->admission_filter = [&built, p](net::HostId src, net::HostId) {
        return built.partition_of_host[src] == p;
      };
      gen->start();
      gens.push_back(gen);
    }
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_until(duration);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto& st = engine.stats();
    std::printf("pdes (4 LP): %.3fs wall, %llu events (%.0f ev/s)\n", wall,
                static_cast<unsigned long long>(st.events_executed),
                st.events_executed / wall);
    std::printf("             %llu sync rounds, %llu cross messages, "
                "%llu cross links\n",
                static_cast<unsigned long long>(st.sync_rounds),
                static_cast<unsigned long long>(st.cross_messages),
                static_cast<unsigned long long>(built.cross_partition_links));
    report.set("pdes.wall_seconds", wall);
    report.set("pdes.events_executed", st.events_executed);
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
  return 0;
}
