// Compare mode: for every end-to-end metric x workload present in two
// results files, print both sides' medians and quartiles, the bound from
// BENCHMARK.json and a verdict:
//
//   unresolved  the spread (larger interquartile range of the two sides)
//               is wider than the bound, unless every B run reads better
//               than every A run (then: better); or B would read better
//               from fewer than ten runs on a side;
//   worse       B's median is worse than A's by more than the bound;
//   better      B's median is better by more than A's interquartile
//               range, and B wins at least 9 in 10 of all (A run, B run)
//               pairs;
//   unchanged   otherwise.
//
// A is the parent, B the change. The exit status is 1 when any row is
// worse or B failed runs that A did not.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "benchmark.h"

namespace esim::bench {

namespace {

struct Bound {
  double share = 0.0;
  bool lower_is_better = true;
};

std::vector<double> samples_of(const telemetry::Json& workload,
                               const std::string& metric) {
  std::vector<double> xs;
  const telemetry::Json* e2e = workload.find("end_to_end");
  const telemetry::Json* m = e2e != nullptr ? e2e->find(metric) : nullptr;
  const telemetry::Json* s = m != nullptr ? m->find("samples") : nullptr;
  if (s == nullptr) return xs;
  for (std::size_t i = 0; i < s->size(); ++i) xs.push_back(s->at(i).as_double());
  return xs;
}

std::string verdict(const std::vector<double>& a, const std::vector<double>& b,
                    const Bound& bound) {
  const Quartiles qa = quartiles(a), qb = quartiles(b);
  // Positive = B is worse.
  const auto worse_by = [&bound](double from, double to) {
    return bound.lower_is_better ? to - from : from - to;
  };
  std::size_t b_wins = 0;
  for (const double x : a) {
    for (const double y : b) b_wins += worse_by(x, y) < 0 ? 1 : 0;
  }
  const double win_frac =
      static_cast<double>(b_wins) / static_cast<double>(a.size() * b.size());
  const double allowed = bound.share * std::abs(qa.median);
  const double spread = std::max(qa.q3 - qa.q1, qb.q3 - qb.q1);
  const double delta = worse_by(qa.median, qb.median);
  // A gain is claimed only from at least ten runs on each side.
  const char* gain = std::min(a.size(), b.size()) >= 10 ? "better" : "unresolved";
  if (spread > allowed) return win_frac == 1.0 ? gain : "unresolved";
  if (delta > allowed) return "worse";
  if (-delta > qa.q3 - qa.q1 && win_frac >= 0.9) return gain;
  return "unchanged";
}

}  // namespace

int compare_main(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  std::string bounds_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--bounds" && i + 1 < args.size()) {
      bounds_path = args[++i];
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 2 || bounds_path.empty()) {
    throw std::invalid_argument(
        "compare A.json B.json --bounds BENCHMARK.json");
  }
  const telemetry::Json spec = load_json(bounds_path);
  std::vector<std::pair<std::string, Bound>> bounds;
  const telemetry::Json* e2e = spec.find("end_to_end");
  if (e2e == nullptr) throw std::runtime_error("BENCHMARK.json lacks end_to_end");
  for (std::size_t i = 0; i < e2e->size(); ++i) {
    const telemetry::Json& m = e2e->at(i);
    bounds.push_back({m.find("name")->as_string(),
                      {m.find("bound")->as_double(),
                       m.find("better")->as_string() == "lower"}});
  }

  const telemetry::Json a = load_json(files[0]), b = load_json(files[1]);
  const telemetry::Json* wa = a.find("workloads");
  const telemetry::Json* wb = b.find("workloads");
  if (wa == nullptr || wb == nullptr) {
    throw std::runtime_error("results files must hold a workloads object");
  }
  std::printf("A = %s\nB = %s\n\n", files[0].c_str(), files[1].c_str());
  std::printf("%-22s %-15s %12s %12s %12s %4s   %12s %12s %12s %4s %8s %7s  %s\n",
              "workload", "metric", "A median", "A q1", "A q3", "n", "B median",
              "B q1", "B q3", "n", "delta", "bound", "verdict");
  bool regression = false;
  for (const auto& [name, ja] : wa->members()) {
    const telemetry::Json* jb = wb->find(name);
    if (jb == nullptr) {
      std::printf("%-22s only in A\n", name.c_str());
      continue;
    }
    for (const auto& [metric, bound] : bounds) {
      const auto xa = samples_of(ja, metric), xb = samples_of(*jb, metric);
      if (xa.empty() || xb.empty()) {
        std::printf("%-22s %-15s missing samples\n", name.c_str(),
                    metric.c_str());
        continue;
      }
      const Quartiles qa = quartiles(xa), qb = quartiles(xb);
      const std::string v = verdict(xa, xb, bound);
      regression = regression || v == "worse";
      std::printf(
          "%-22s %-15s %12.6g %12.6g %12.6g %4zu   %12.6g %12.6g %12.6g %4zu "
          "%+7.2f%% %6.1f%%  %s\n",
          name.c_str(), metric.c_str(), qa.median, qa.q1, qa.q3, xa.size(),
          qb.median, qb.q1, qb.q3, xb.size(),
          qa.median != 0 ? 100.0 * (qb.median - qa.median) / qa.median : 0.0,
          100.0 * bound.share, v.c_str());
    }
    // Accuracy is deterministic per seed: any change is reported exactly.
    if (const auto* acc_a = ja.find("accuracy")) {
      const telemetry::Json* acc_b = jb->find("accuracy");
      for (const auto& [metric, va] : acc_a->members()) {
        const telemetry::Json* vb =
            acc_b != nullptr ? acc_b->find(metric) : nullptr;
        if (vb == nullptr) continue;
        std::printf("%-22s %-26s A %.6g  B %.6g\n", name.c_str(),
                    metric.c_str(), va.as_double(), vb->as_double());
      }
    }
    const std::uint64_t fa = ja.find("failed") ? ja.find("failed")->as_uint() : 0;
    const std::uint64_t fb =
        jb->find("failed") ? jb->find("failed")->as_uint() : 0;
    if (fb > fa) {
      regression = true;
      std::printf("%-22s B failed %llu runs, A %llu\n", name.c_str(),
                  static_cast<unsigned long long>(fb),
                  static_cast<unsigned long long>(fa));
    }
  }
  for (const auto& [name, jb] : wb->members()) {
    if (wa->find(name) == nullptr) std::printf("%-22s only in B\n", name.c_str());
  }
  return regression ? 1 : 0;
}

}  // namespace esim::bench
