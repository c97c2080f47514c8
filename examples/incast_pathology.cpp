// The minimum-window pathology of paper §2.1: "Given enough simultaneous
// connections, it is possible that the fair share of each connection is
// less than their minimum window size. When this occurs, TCP will never
// back off enough to prevent high packet loss."
//
// This example sweeps the number of simultaneous senders targeting one
// server and shows the phase change: once fair share drops below one MSS
// per RTT per sender, the drop rate stays persistently high no matter how
// much TCP backs off — behaviour only visible at sufficient scale, which
// is the paper's argument for simulating large networks at all.
//
//   ./build/examples/incast_pathology
#include <cstdio>
#include <string>
#include <vector>

#include "core/network.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "workload/generator.h"

using namespace esim;  // NOLINT

namespace {

struct Outcome {
  double drop_rate = 0.0;
  double makespan_ms = 0.0;
  double aggregate_goodput_gbps = 0.0;
  std::uint64_t timeouts = 0;
  int completed = 0;
  telemetry::Snapshot metrics;
};

Outcome run_incast(int senders) {
  telemetry::Registry registry;  // outlives the sim publishing into it
  sim::Simulator sim{7};
  sim.set_telemetry(&registry);
  core::NetworkConfig cfg;
  cfg.spec.clusters = 2;
  cfg.spec.tors_per_cluster = 2;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 16;  // plenty of potential senders
  cfg.spec.cores = 2;
  auto net = core::build_full_network(sim, cfg);

  constexpr std::uint64_t kBlock = 256'000;  // bytes per sender
  std::vector<tcp::TcpConnection*> conns;
  Outcome out;
  sim::SimTime last_done;
  sim.schedule_at(sim::SimTime::from_us(10), [&] {
    // All senders start simultaneously into host 0, from other racks.
    for (int i = 0; i < senders; ++i) {
      const net::HostId src =
          static_cast<net::HostId>(16 + (i % 48));  // racks 1..3
      auto* c = net.hosts[src]->open_flow(0, kBlock, i + 1);
      c->on_complete = [&out, &last_done, &sim] {
        ++out.completed;
        last_done = sim.now();
      };
      conns.push_back(c);
    }
  });
  sim.run_until(sim::SimTime::from_sec(20));

  // Loss at the sink's last hop, where incast concentrates.
  const auto& counter = net.host_downlinks[0]->counter();
  out.drop_rate = counter.drop_rate();
  for (auto* c : conns) out.timeouts += c->stats().timeouts;
  out.makespan_ms = last_done.to_seconds() * 1e3;
  if (last_done > sim::SimTime{}) {
    out.aggregate_goodput_gbps = static_cast<double>(senders) * kBlock *
                                 8.0 / last_done.to_seconds() / 1e9;
  }
  out.metrics = registry.snapshot();
  return out;
}

}  // namespace

int main() {
  std::printf(
      "TCP incast / minimum-window pathology (paper §2.1 motivation)\n");
  std::printf("256 KB from N senders to one 10G host, shallow buffers\n\n");
  telemetry::RunReport report{"incast_pathology"};
  std::printf("%-10s %-12s %-14s %-14s %-12s %-10s\n", "senders",
              "drop-rate", "makespan(ms)", "agg-Gbps", "RTOs", "completed");
  for (const int n : {2, 4, 8, 16, 32, 48}) {
    const auto o = run_incast(n);
    std::printf("%-10d %-12.4f %-14.2f %-14.2f %-12llu %-10d\n", n,
                o.drop_rate, o.makespan_ms, o.aggregate_goodput_gbps,
                static_cast<unsigned long long>(o.timeouts), o.completed);
    std::fflush(stdout);
    const std::string row = "senders" + std::to_string(n);
    report.set(row + ".drop_rate", o.drop_rate);
    report.set(row + ".makespan_ms", o.makespan_ms);
    report.set(row + ".aggregate_goodput_gbps", o.aggregate_goodput_gbps);
    report.set(row + ".timeouts", o.timeouts);
    report.set(row + ".completed", static_cast<std::int64_t>(o.completed));
    report.add_metrics(o.metrics, row + ".metrics");
  }
  const std::string report_path = "incast_report.json";
  if (report.write(report_path)) {
    std::printf("\nrun report: %s\n", report_path.c_str());
  }
  std::printf(
      "\nReading: as senders grow, the per-sender fair share falls below\n"
      "one minimum window per RTT; drops and retransmission timeouts stop\n"
      "being transient and become the steady state. Small testbeds never\n"
      "reach this regime — the paper's case for at-scale simulation.\n");
  return 0;
}
