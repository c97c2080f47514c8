// Fidelity-observatory overhead: events/s on a hybrid (approx-cluster)
// run with the observatory off vs on at 1/64 and 1/16 shadow sampling.
//
// The cost contract (DESIGN.md §11) says the observatory is pay-for-use:
// off, it is one null-pointer branch per boundary packet; on, the
// per-packet tax is two counter bumps plus one SplitMix64 hash, and only
// the 1-in-N admitted packets pay for a reference forward pass and a
// queue-model peek. The acceptance bar is <=5% events/s overhead at
// 1/64 sampling. Because the observatory schedules no events and draws
// no randomness, every instrumented run below is digest-identical to
// its baseline — asserted here on every repetition, so the bench doubles
// as a determinism check at a scale the fuzz tier does not reach.
//
// Runs use the largest scenario the differential harness generates
// (hand-pinned, not fuzzed) with sampled drops and batching on — the
// production configuration. Each point is the best of R repetitions to
// shave scheduler noise; overhead is reported against the off baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "check/diff_runner.h"
#include "telemetry/fidelity.h"
#include "telemetry/report.h"

namespace {

using namespace esim;  // NOLINT

check::Scenario bench_scenario(bool quick) {
  check::Scenario sc;
  check::Scenario::Approximation& a = sc.approx.emplace();
  sc.seed = 2026;
  sc.clusters = 4;
  sc.tors = 2;
  sc.spines = 2;
  sc.hosts_per_tor = 2;
  sc.cores = 2;
  a.model_seed = 11;
  a.drop_bias = -2.0;
  a.latency_mean_us = 8.0;
  a.sample_drops = true;
  a.batch_max = 8;
  sc.duration_ns = quick ? 2'000'000 : 40'000'000;

  // Dense all-pairs-ish flow schedule: every boundary crossing is a
  // candidate for shadow admission, so the on-vs-off delta is dominated
  // by observatory cost rather than idle engine ticks.
  const std::uint32_t hosts = sc.total_hosts();
  const std::size_t flows = quick ? 160 : 2'400;
  std::int64_t t = 1'000;
  for (std::size_t i = 0; i < flows; ++i) {
    check::FlowSpec f;
    f.src = static_cast<net::HostId>((i * 5) % hosts);
    f.dst = static_cast<net::HostId>((i * 5 + hosts / 2 + 1) % hosts);
    if (f.src == f.dst) f.dst = (f.dst + 1) % hosts;
    f.bytes = 2'000 + 512 * (i % 7);
    f.flow_id = i + 1;
    f.start_ns = t;
    t += 7'001;  // co-prime stagger: no duplicate start times
    sc.flows.push_back(f);
  }
  sc.validate();
  return sc;
}

struct Point {
  double wall_best = 0;          // seconds, best of reps
  std::uint64_t events = 0;
  check::Digest digest;
  std::uint64_t shadow_samples = 0;
  std::uint64_t rows = 0;
};

Point run_point(const check::Scenario& sc, std::uint32_t partitions,
                std::uint32_t sample_period, int reps) {
  Point pt;
  pt.wall_best = 1e30;
  for (int r = 0; r < reps; ++r) {
    telemetry::FidelitySink* sink = nullptr;
    std::unique_ptr<telemetry::FidelitySink> owned;
    if (sample_period > 0) {
      telemetry::FidelityConfig fcfg;
      fcfg.enabled = true;
      fcfg.sample_period = sample_period;
      owned = std::make_unique<telemetry::FidelitySink>(fcfg);
      sink = owned.get();
    }
    const auto start = std::chrono::steady_clock::now();
    check::RunHooks hooks;
    hooks.fidelity = sink;
    const auto digest =
        check::run_scenario(sc, {partitions},
                            sim::SimTime::from_ns(sc.duration_ns), hooks)
            .digest;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    pt.wall_best = std::min(pt.wall_best, wall);
    pt.events = digest.events;
    pt.digest = digest;
    if (sink) {
      std::uint64_t shadow = 0;
      for (const auto& s : sink->summaries()) shadow += s.shadow_samples;
      pt.shadow_samples = shadow;
      pt.rows = sink->rows_appended();
    }
  }
  return pt;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  bench::print_header("bench_fidelity",
                      "fidelity observatory overhead: hybrid events/s with "
                      "shadow sampling off / 1-per-64 / 1-per-16");
  if (quick) bench::print_note("quick mode: shrunken horizon and flow count");

  const auto sc = bench_scenario(quick);
  const int reps = quick ? 2 : 5;
  const std::vector<std::uint32_t> engines = {0, 2};  // sequential, PDES(2)
  const std::vector<std::uint32_t> periods = {0, 64, 16};

  telemetry::RunReport report{"bench_fidelity"};
  report.set("scenario.flows", static_cast<std::uint64_t>(sc.flows.size()));
  report.set("scenario.duration_ns",
             static_cast<std::uint64_t>(sc.duration_ns));

  std::printf("%-12s %-10s %12s %14s %10s %8s %8s\n", "engine", "sampling",
              "events", "events/s", "overhead", "shadow", "rows");
  bool digest_ok = true;
  for (std::uint32_t p : engines) {
    Point base;
    const std::string engine = p == 0 ? "sequential" : "pdes(" +
                                   std::to_string(p) + ")";
    for (std::uint32_t period : periods) {
      const Point pt = run_point(sc, p, period, reps);
      if (period == 0) {
        base = pt;
      } else if (!(pt.digest == base.digest)) {
        digest_ok = false;
      }
      const double eps = pt.wall_best > 0
                             ? static_cast<double>(pt.events) / pt.wall_best
                             : 0;
      const double base_eps =
          base.wall_best > 0
              ? static_cast<double>(base.events) / base.wall_best
              : 0;
      const double overhead =
          period == 0 || base_eps <= 0 ? 0.0 : (base_eps - eps) / base_eps;
      const std::string sampling =
          period == 0 ? "off" : "1/" + std::to_string(period);
      std::printf("%-12s %-10s %12llu %14.0f %9.2f%% %8llu %8llu\n",
                  engine.c_str(), sampling.c_str(),
                  static_cast<unsigned long long>(pt.events), eps,
                  overhead * 100.0,
                  static_cast<unsigned long long>(pt.shadow_samples),
                  static_cast<unsigned long long>(pt.rows));
      const std::string key =
          "series." + engine + ".period_" + std::to_string(period);
      report.set(key + ".events", pt.events);
      report.set(key + ".events_per_sec", eps);
      report.set(key + ".overhead", overhead);
      report.set(key + ".shadow_samples", pt.shadow_samples);
      report.set(key + ".rows", pt.rows);
    }
  }
  report.set("digest_invariant", digest_ok);
  if (!digest_ok)
    std::printf("FAIL: instrumented digest diverged from baseline\n");
  else
    bench::print_note(
        "all instrumented runs digest-identical to their baselines");
  report.write("BENCH_fidelity.json");
  return digest_ok ? 0 : 1;
}
