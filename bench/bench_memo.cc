// Phase-memoization bench (DESIGN.md §13): what does recording a periodic
// workload's phase delta once and fast-forwarding over verified repeats
// buy, and is the fast-forward really invisible?
//
// Three sections, each with an acceptance gate:
//
//   A. Speedup in the aggregate (speedup) mode: an ML-training-style
//      workload — the same ring-allreduce flight of flows injected every
//      period, for hundreds of iterations — run memo-off and memo-on,
//      sequentially and under PDES(2), five times each (median, min,
//      max). The memo runner records the first occurrence live, then
//      every verified repeat applies the cached counter/identity delta
//      and jumps virtual time past the phase. Acceptance: sequential
//      memo-on median >= 10x faster than the memo-off median, with a
//      bit-identical final-state fingerprint.
//
//   B. Equivalence in the digest-attached mode: a shorter run of the same
//      workload with the full StateDigest attached, memo-on vs memo-off.
//      Replayed pop/packet/completion streams must leave the digest —
//      order lane included — bit-identical. This is the bench-sized
//      mirror of the DiffCheck.MemoFuzz CTest gate.
//
//   C. Scaling: aggregate memo-on, sequential, at P and 10·P phases
//      (240/2400; 60/600 under ESIM_BENCH_QUICK), each timed as the best
//      of five runs on a cache warmed by one untimed run, so every phase
//      fast-forwards. A fast-forwarded phase must cost O(pattern + its
//      entry) — the run validates its pattern rather than the flow list,
//      hashes its constants once and replays the entry's counter
//      summary — not O(phases or flows in the run): the gate fails when
//      the per-phase cost ratio exceeds 2x (a per-boundary walk of the
//      whole run gives ~10x).
//
// Output schema (BENCH_memo.json) is documented in EXPERIMENTS.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "check/scenario.h"
#include "memo/memo_diff.h"
#include "memo/memo_runner.h"
#include "telemetry/report.h"

namespace {

using namespace esim;  // NOLINT

// One training iteration: a ring-allreduce flight — every host streams a
// gradient chunk to its ring successor — plus a small parameter broadcast
// from host 0. Folded by make_periodic into a PhasePattern repeated
// `phases` times, with host-pair ECMP so repeated iterations are
// path-identical despite fresh ephemeral ports.
memo::PeriodicScenario training_workload(std::uint32_t phases,
                                         std::int64_t period_ns) {
  check::Scenario base;
  base.seed = 2018;
  base.tors = 2;
  base.spines = 2;
  base.hosts_per_tor = 4;
  base.queue_bytes = 150'000;
  base.tcp = check::TcpVariant::NewReno;
  const std::uint32_t hosts = base.total_hosts();
  std::uint64_t id = 1;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    check::FlowSpec f;
    f.src = h;
    f.dst = (h + 1) % hosts;
    f.bytes = 30'000 + 2'000 * (h % 3);  // uneven shards, same every phase
    f.start_ns = 5'000 + 1'000 * static_cast<std::int64_t>(h);
    f.flow_id = id++;
    base.flows.push_back(f);
  }
  for (std::uint32_t h = 1; h < hosts; h += 3) {  // parameter broadcast
    check::FlowSpec f;
    f.src = 0;
    f.dst = h;
    f.bytes = 8'000;
    f.start_ns = 400'000 + 1'000 * static_cast<std::int64_t>(h);
    f.flow_id = id++;
    base.flows.push_back(f);
  }
  base.duration_ns = period_ns;
  return memo::make_periodic(base, phases, period_ns);
}

/// `reps` back-to-back runs of one configuration, each on a fresh runner
/// (cold cache): the first run's outcome — runs are deterministic — and
/// every run's wall time, sorted ascending.
struct TimedRun {
  memo::MemoRunOutcome out;
  std::vector<double> walls;
  double median() const { return walls[walls.size() / 2]; }
};

TimedRun timed_run(const memo::PeriodicScenario& ps,
                   const check::EngineSpec& engine, bool memo_enabled,
                   bool with_digest, int reps = 1) {
  memo::MemoConfig cfg;
  cfg.enabled = memo_enabled;
  TimedRun r;
  for (int rep = 0; rep < reps; ++rep) {
    memo::MemoRunner runner{cfg};
    const auto start = std::chrono::steady_clock::now();
    memo::MemoRunOutcome out =
        runner.run(ps.scenario, ps.pattern, engine, with_digest);
    r.walls.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    if (rep == 0) r.out = std::move(out);
  }
  std::sort(r.walls.begin(), r.walls.end());
  return r;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  bench::print_header(
      "bench_memo",
      "phase memoization: fast-forward speedup on a periodic training "
      "workload, digest-invisible replay");

  telemetry::RunReport report{"bench_memo"};
  bool ok = true;

  // ---- Section A: aggregate-mode speedup ----
  const std::uint32_t phases = quick ? 60 : 240;
  const std::int64_t period_ns = 2'000'000;
  const auto ps = training_workload(phases, period_ns);
  std::printf("[A] %u phases x %lld ns, %zu flows/phase, %u hosts\n", phases,
              static_cast<long long>(period_ns), ps.pattern.pattern.size(),
              ps.scenario.total_hosts());
  report.set("workload.phases", static_cast<std::uint64_t>(phases));
  report.set("workload.period_ns", period_ns);
  report.set("workload.flows_per_phase",
             static_cast<std::uint64_t>(ps.pattern.pattern.size()));
  report.set("workload.hosts",
             static_cast<std::uint64_t>(ps.scenario.total_hosts()));

  // Median of five runs per configuration: a single memo-on run lasts a
  // few milliseconds, so one-shot speedups swing by 2x between runs.
  constexpr int kSpeedupReps = 5;
  report.set("aggregate.reps", static_cast<std::uint64_t>(kSpeedupReps));
  std::printf("%-18s %10s %10s %10s %12s %8s %8s %10s\n", "run", "wall_s",
              "min_s", "max_s", "final_fp", "hits", "misses", "ff_phases");
  double seq_speedup = 0.0;
  for (const std::uint32_t parts : {0u, 2u}) {
    const check::EngineSpec eng{parts, false};
    const std::string label = parts == 0 ? "seq" : "pdes" + std::to_string(parts);
    const TimedRun off = timed_run(ps, eng, /*memo=*/false, /*digest=*/false,
                                   kSpeedupReps);
    const TimedRun on = timed_run(ps, eng, /*memo=*/true, /*digest=*/false,
                                  kSpeedupReps);
    const double speedup =
        on.median() > 0 ? off.median() / on.median() : 0.0;
    const bool fp_equal = on.out.final_state_fp == off.out.final_state_fp &&
                          on.out.flows_completed == off.out.flows_completed;
    for (const auto& [name, r, enabled] :
         {std::tuple{label + ".memo_off", &off, false},
          std::tuple{label + ".memo_on", &on, true}}) {
      std::printf("%-18s %10.4f %10.4f %10.4f %12llx %8llu %8llu %10llu\n",
                  name.c_str(), r->median(), r->walls.front(),
                  r->walls.back(),
                  static_cast<unsigned long long>(r->out.final_state_fp),
                  static_cast<unsigned long long>(r->out.stats.hits),
                  static_cast<unsigned long long>(r->out.stats.misses),
                  static_cast<unsigned long long>(
                      r->out.stats.fast_forwarded_phases));
      const std::string key = "aggregate." + name;
      report.set(key + ".wall_seconds", r->median());
      report.set(key + ".wall_seconds_min", r->walls.front());
      report.set(key + ".wall_seconds_max", r->walls.back());
      report.set(key + ".final_state_fp", r->out.final_state_fp);
      report.set(key + ".flows_completed", r->out.flows_completed);
      memo::add_memo_section(report, r->out, enabled, key + ".memo");
    }
    std::printf("%s: %.1fx speedup, final state %s\n", label.c_str(), speedup,
                fp_equal ? "identical" : "DIVERGED");
    report.set("aggregate." + label + ".speedup", speedup);
    report.set("aggregate." + label + ".final_state_identical", fp_equal);
    if (parts == 0) seq_speedup = speedup;
    if (!fp_equal) {
      std::printf("FAIL: %s memo-on landed on a different final state\n",
                  label.c_str());
      ok = false;
    }
    if (on.out.stats.hits == 0) {
      std::printf("FAIL: %s memo-on produced zero cache hits\n", label.c_str());
      ok = false;
    }
  }
  report.set("aggregate.speedup_target", 10.0);
  report.set("aggregate.speedup_target_met", seq_speedup >= 10.0);
  if (seq_speedup < 10.0) {
    std::printf("FAIL: sequential speedup %.1fx under the 10x target\n",
                seq_speedup);
    ok = false;
  }

  // ---- Section B: digest-attached replay equivalence ----
  const auto ps_digest = training_workload(quick ? 8 : 24, period_ns);
  std::printf("\n[B] digest-attached, %u phases\n",
              quick ? 8u : 24u);
  for (const std::uint32_t parts : {0u, 2u}) {
    const check::EngineSpec eng{parts, false};
    const std::string label = parts == 0 ? "seq" : "pdes" + std::to_string(parts);
    const TimedRun off = timed_run(ps_digest, eng, /*memo=*/false,
                                   /*digest=*/true);
    const TimedRun on = timed_run(ps_digest, eng, /*memo=*/true,
                                  /*digest=*/true);
    const bool equal = on.out.digest == off.out.digest &&
                       on.out.flows_completed == off.out.flows_completed;
    std::printf("%-8s digest %s, %llu hits\n", label.c_str(),
                equal ? "identical" : "DIVERGED",
                static_cast<unsigned long long>(on.out.stats.hits));
    report.set("digest." + label + ".identical", equal);
    report.set("digest." + label + ".hits", on.out.stats.hits);
    if (!equal || on.out.stats.hits == 0) {
      std::printf("FAIL: %s digest replay %s\n", label.c_str(),
                  equal ? "never hit the cache" : "diverged");
      ok = false;
    }
  }

  // ---- Section C: per-phase cost scaling ----
  // Timed runs reuse a runner whose cache one untimed run of the same
  // scenario has filled, so every phase fast-forwards: no live phase's
  // cost or noise can mask a per-boundary cost that grows with the run.
  const std::uint32_t short_run = phases;
  const std::uint32_t long_run = 10 * phases;
  constexpr int kScalingReps = 5;
  std::printf("\n[C] aggregate memo-on cost per phase on a warm cache, %u vs "
              "%u phases (best of %d)\n",
              short_run, long_run, kScalingReps);
  double us_per_phase[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    const std::uint32_t n = i == 0 ? short_run : long_run;
    const auto ps_n = training_workload(n, period_ns);
    memo::MemoRunner runner{memo::MemoConfig{}};
    runner.run(ps_n.scenario, ps_n.pattern, check::EngineSpec{}, false);
    const std::uint64_t warm_misses = runner.stats().misses;
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kScalingReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      runner.run(ps_n.scenario, ps_n.pattern, check::EngineSpec{}, false);
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
    us_per_phase[i] = best * 1e6 / n;
    std::printf("%6u phases: %8.3f ms, %8.2f us/phase\n", n, best * 1e3,
                us_per_phase[i]);
    const std::string key = "scaling.phases_" + std::to_string(n);
    report.set(key + ".wall_seconds", best);
    report.set(key + ".us_per_phase", us_per_phase[i]);
    if (runner.stats().misses != warm_misses) {
      std::printf("FAIL: a warm %u-phase run missed the cache\n", n);
      ok = false;
    }
  }
  const double cost_ratio = us_per_phase[1] / us_per_phase[0];
  std::printf("per-phase cost ratio %ux/%ux: %.2f (gate <= 2)\n", long_run,
              short_run, cost_ratio);
  report.set("scaling.cost_ratio", cost_ratio);
  report.set("scaling.cost_ratio_limit", 2.0);
  if (cost_ratio > 2.0) {
    std::printf("FAIL: per-phase cost grows with run length (%.2fx)\n",
                cost_ratio);
    ok = false;
  }

  report.set("pass", ok);
  report.write("BENCH_memo.json");
  std::printf("wrote BENCH_memo.json\n");
  bench::print_note(
      "the speedup ceiling is phases/2: the rolling-summary signature "
      "misses on the first two phases, then every repeat fast-forwards");
  return ok ? 0 : 1;
}
