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
// (hand-pinned, not fuzzed) with sampled drops and per-packet
// inference — the production configuration. Each repetition runs the
// three points back to back, off first on even repetitions and last on
// odd ones, so host noise hits both sides of a comparison alike. A point
// reports the median and quartiles of its repetitions' events/s. The
// overhead is taken per repetition against the same repetition's off
// run; its median and quartiles decide the bar, which is `unresolved`
// while the quartiles straddle it.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "check/diff_runner.h"
#include "telemetry/fidelity.h"
#include "telemetry/report.h"

namespace {

using namespace esim;  // NOLINT

constexpr double kOverheadBar = 0.05;

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
  sc.duration_ns = quick ? 2'000'000 : 100'000'000;

  // Dense all-pairs-ish flow schedule: every boundary crossing is a
  // candidate for shadow admission, so the on-vs-off delta is dominated
  // by observatory cost rather than idle engine ticks.
  const std::uint32_t hosts = sc.total_hosts();
  const std::size_t flows = quick ? 160 : 12'000;
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

struct Run {
  double events_per_sec = 0;
  check::Digest digest;
  std::uint64_t shadow_samples = 0;
  std::uint64_t rows = 0;
};

Run run_once(const check::Scenario& sc, std::uint32_t partitions,
             std::uint32_t sample_period) {
  std::unique_ptr<telemetry::FidelitySink> sink;
  if (sample_period > 0) {
    telemetry::FidelityConfig fcfg;
    fcfg.enabled = true;
    fcfg.sample_period = sample_period;
    sink = std::make_unique<telemetry::FidelitySink>(fcfg);
  }
  const auto start = std::chrono::steady_clock::now();
  check::RunHooks hooks;
  hooks.fidelity = sink.get();
  Run run;
  run.digest = check::run_scenario(sc, {partitions},
                                   sim::SimTime::from_ns(sc.duration_ns), hooks)
                   .digest;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.events_per_sec = static_cast<double>(run.digest.events) / wall;
  if (sink) {
    for (const auto& s : sink->summaries()) {
      run.shadow_samples += s.shadow_samples;
    }
    run.rows = sink->rows_appended();
  }
  return run;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  bench::print_header("bench_fidelity",
                      "fidelity observatory overhead: hybrid events/s with "
                      "shadow sampling off / 1-per-64 / 1-per-16");
  if (quick) bench::print_note("quick mode: shrunken horizon and flow count");

  const auto sc = bench_scenario(quick);
  const int reps = quick ? 3 : 10;
  const std::vector<std::uint32_t> engines = {0, 2};  // sequential, PDES(2)
  const std::vector<std::uint32_t> periods = {0, 64, 16};

  telemetry::RunReport report{"bench_fidelity"};
  report.set("scenario.flows", static_cast<std::uint64_t>(sc.flows.size()));
  report.set("scenario.duration_ns",
             static_cast<std::uint64_t>(sc.duration_ns));
  report.set("repetitions", static_cast<std::uint64_t>(reps));

  std::printf("%-11s %-8s %9s %26s %26s %-10s %7s %6s\n", "engine",
              "sampling", "events", "M events/s: q1 median q3",
              "overhead %: q1 median q3", "bar <=5%", "shadow", "rows");
  bool digest_ok = true;
  for (std::uint32_t p : engines) {
    const std::string engine =
        p == 0 ? "sequential" : "pdes(" + std::to_string(p) + ")";
    // runs[i][r]: point periods[i], repetition r.
    std::vector<std::vector<Run>> runs(periods.size());
    for (int r = 0; r < reps; ++r) {
      for (std::size_t k = 0; k < periods.size(); ++k) {
        const std::size_t i = r % 2 == 0 ? k : periods.size() - 1 - k;
        runs[i].push_back(run_once(sc, p, periods[i]));
        if (!(runs[i].back().digest == runs[0].front().digest)) {
          digest_ok = false;
        }
      }
    }
    for (std::size_t i = 0; i < periods.size(); ++i) {
      std::vector<double> eps;
      std::vector<double> overhead;
      for (int r = 0; r < reps; ++r) {
        eps.push_back(runs[i][r].events_per_sec);
        const double off = runs[0][r].events_per_sec;
        overhead.push_back((off - runs[i][r].events_per_sec) / off);
      }
      const bench::Quartiles e = bench::quartiles(eps);
      const bench::Quartiles o = bench::quartiles(overhead);
      const std::string sampling =
          periods[i] == 0 ? "off" : "1/" + std::to_string(periods[i]);
      const char* verdict = periods[i] == 0       ? ""
                            : o.q3 <= kOverheadBar ? "met"
                            : o.q1 > kOverheadBar  ? "missed"
                                                   : "unresolved";
      const Run& last = runs[i].back();
      std::printf("%-11s %-8s %9llu %8.3f %8.3f %8.3f ", engine.c_str(),
                  sampling.c_str(),
                  static_cast<unsigned long long>(last.digest.events),
                  e.q1 / 1e6, e.median / 1e6, e.q3 / 1e6);
      if (periods[i] == 0) {
        std::printf("%26s %-10s", "", "");
      } else {
        std::printf("%+8.2f %+8.2f %+8.2f %-10s", o.q1 * 100,
                    o.median * 100, o.q3 * 100, verdict);
      }
      std::printf(" %7llu %6llu\n",
                  static_cast<unsigned long long>(last.shadow_samples),
                  static_cast<unsigned long long>(last.rows));
      const std::string key =
          "series." + engine + ".period_" + std::to_string(periods[i]);
      report.set(key + ".events", last.digest.events);
      report.set(key + ".events_per_sec", e.median);
      report.set(key + ".events_per_sec_q1", e.q1);
      report.set(key + ".events_per_sec_q3", e.q3);
      if (periods[i] != 0) {
        report.set(key + ".overhead", o.median);
        report.set(key + ".overhead_q1", o.q1);
        report.set(key + ".overhead_q3", o.q3);
        report.set(key + ".bar", std::string{verdict});
      }
      report.set(key + ".shadow_samples", last.shadow_samples);
      report.set(key + ".rows", last.rows);
    }
  }
  report.set("digest_invariant", digest_ok);
  if (!digest_ok)
    std::printf("FAIL: instrumented digest diverged from baseline\n");
  else
    bench::print_note(
        "every repetition digest-identical to its engine's first off run");
  report.write("BENCH_fidelity.json");
  return digest_ok ? 0 : 1;
}
