// Quickstart: build a small 3-layer Clos data center, run a web-traffic
// workload over TCP New Reno + ECMP at full packet fidelity, and print
// flow and latency statistics — plus a structured run report
// (quickstart_report.json) built from the telemetry registry.
//
//   ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "core/network.h"
#include "stats/collectors.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "workload/generator.h"

using namespace esim;  // NOLINT

int main() {
  // A deterministic engine: same seed, same packets, same numbers.
  // Telemetry never perturbs the simulation, only observes it; the
  // registry must outlive the simulator publishing into it.
  telemetry::Registry registry;
  sim::Simulator sim{/*seed=*/42};
  sim.set_telemetry(&registry);

  // Two clusters of 2 ToRs x 2 Aggs x 8 servers, joined by 2 cores —
  // the building block the paper's evaluation uses.
  core::NetworkConfig cfg;
  cfg.spec.clusters = 2;
  cfg.spec.tors_per_cluster = 2;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 4;
  cfg.spec.cores = 2;
  auto net = core::build_full_network(sim, cfg);
  std::printf("built %u hosts, %u switches\n", cfg.spec.total_hosts(),
              cfg.spec.total_switches());

  // Collect RTT samples from every host.
  stats::LatencyCollector rtt;
  for (auto* host : net.hosts) host->set_rtt_collector(&rtt);

  // Offered load: 30% of aggregate host bandwidth, DCTCP-like flow sizes,
  // sources/destinations drawn cluster-aware (40% stay local).
  auto sizes = workload::mini_web_distribution();
  workload::ClusterMixTraffic matrix{cfg.spec, /*intra_fraction=*/0.4};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = 0.3;
  gcfg.stop_at = sim::SimTime::from_ms(20);
  auto* gen = sim.add_component<workload::TrafficGenerator>(
      "gen", net.hosts, sizes.get(), &matrix, gcfg);
  gen->start();

  // Run: 20ms of arrivals plus drain time.
  sim.run_until(sim::SimTime::from_ms(100));

  const auto& flows = gen->flows();
  std::printf("\nflows launched   : %llu\n",
              static_cast<unsigned long long>(gen->launched()));
  std::printf("flows completed  : %zu\n", flows.completed_count());
  std::printf("mean goodput     : %.2f Mbit/s\n",
              flows.mean_goodput_bps() / 1e6);
  if (flows.completed_count() > 0) {
    const auto fct = flows.fct_cdf();
    std::printf("FCT p50 / p99    : %.3f ms / %.3f ms\n",
                fct.quantile(0.5) * 1e3, fct.quantile(0.99) * 1e3);
  }
  std::printf("RTT samples      : %llu\n",
              static_cast<unsigned long long>(rtt.summary().count()));
  std::printf("RTT mean / p99   : %.1f us / %.1f us\n",
              rtt.summary().mean() * 1e6, rtt.cdf().quantile(0.99) * 1e6);
  std::printf("events executed  : %llu\n",
              static_cast<unsigned long long>(sim.events_executed()));

  // Where congestion happened: fabric drops per layer.
  std::uint64_t drops = 0;
  for (auto* link : net.host_downlinks) drops += link->counter().dropped;
  for (const auto& [c, link] : net.intra_fabric_links) {
    drops += link->counter().dropped;
  }
  for (const auto& att : net.core_links) {
    drops += att.up->counter().dropped + att.down->counter().dropped;
  }
  std::printf("fabric drops     : %llu\n",
              static_cast<unsigned long long>(drops));

  // Everything printed above — and the per-subsystem counters the
  // components published (sim.*, net.link.*, net.switch.*, tcp.*) — in
  // one versioned JSON document.
  telemetry::RunReport report{"quickstart"};
  report.set("flows.launched", gen->launched());
  report.set("flows.completed",
             static_cast<std::uint64_t>(flows.completed_count()));
  report.set("flows.mean_goodput_bps", flows.mean_goodput_bps());
  report.set("rtt.samples", rtt.summary().count());
  report.set("fabric.drops", drops);
  report.add_metrics(registry.snapshot());
  const std::string path = "quickstart_report.json";
  if (report.write(path)) {
    std::printf("run report       : %s\n", path.c_str());
  }
  return 0;
}
