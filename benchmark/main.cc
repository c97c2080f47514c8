// esim_benchmark: runs one workload of the repository benchmark, merges
// per-workload results, or compares two results files. benchmark/run.sh
// builds it and is the documented entry point (see README.md).
//
//   esim_benchmark run --workload NAME --spec BENCHMARK.json --out DIR
//                      [--seed N] [--reps N] [--seconds S] [--trace 0|1]
//                      [--smoke]
//   esim_benchmark merge OUT.json IN.json...
//   esim_benchmark compare A.json B.json --bounds BENCHMARK.json
//
// A run: the untimed reference; set-up plus one warm-up run, several
// times (median = setup_s); timed runs back to back until --seconds (at
// least --reps of them); then with --trace one more run with the
// telemetry registry on for the per-layer numbers. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchmark.h"

namespace esim::bench {

namespace {

struct RunArgs {
  std::string workload;
  std::string spec_path;
  std::string out_dir;
  std::uint64_t seed = 5;
  std::uint64_t min_reps = 0;  // 0: 2 with --seconds, else 5
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
};

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty() || v[0] == '-') {
    throw std::invalid_argument(flag + " expects a whole number, got '" + v +
                                "'");
  }
  return x;
}

RunArgs parse_run_args(const std::vector<std::string>& args) {
  RunArgs a;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& f = args[i];
    if (f == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= args.size()) throw std::invalid_argument(f + " needs a value");
    const std::string& v = args[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--spec") {
      a.spec_path = v;
    } else if (f == "--out") {
      a.out_dir = v;
    } else if (f == "--seed") {
      a.seed = parse_uint(f, v);
    } else if (f == "--reps") {
      a.min_reps = parse_uint(f, v);
    } else if (f == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(f, v));
    } else if (f == "--trace") {
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown option " + f);
    }
  }
  if (a.workload.empty() || a.spec_path.empty() || a.out_dir.empty()) {
    throw std::invalid_argument("run needs --workload, --spec and --out");
  }
  if (a.min_reps == 0) a.min_reps = a.seconds > 0 ? 2 : 5;
  return a;
}

// Peak resident set: VmHWM, reset before each timed run by writing 5 to
// /proc/self/clear_refs, so each sample is that run's own high-water mark.
bool reset_peak_rss() {
  std::ofstream f{"/proc/self/clear_refs"};
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f{"/proc/self/status"};
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// Host seconds since this process started, from /proc (clock-tick
// resolution), to check that the spans account for the process.
double process_wall_s() {
  std::ifstream stat{"/proc/self/stat"};
  std::string text;
  std::getline(stat, text);
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest{text.substr(close + 2)};
  std::string field;
  // starttime is field 22; fields 3.. follow the command name.
  for (int i = 3; i <= 22 && rest >> field; ++i) {
  }
  std::ifstream up{"/proc/uptime"};
  double uptime = 0.0;
  up >> uptime;
  return uptime - std::stod(field) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

telemetry::Json quartile_json(const std::string& unit,
                              const std::vector<double>& xs) {
  const Quartiles q = quartiles(xs);
  telemetry::Json j = telemetry::Json::object();
  j["unit"] = unit;
  j["median"] = q.median;
  j["q1"] = q.q1;
  j["q3"] = q.q3;
  j["n"] = static_cast<std::uint64_t>(xs.size());
  telemetry::Json samples = telemetry::Json::array();
  for (const double x : xs) samples.push_back(x);
  j["samples"] = std::move(samples);
  return j;
}

void write_json(const std::string& path, const telemetry::Json& doc) {
  std::ofstream f{path};
  f << doc.dump(2) << "\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

// Picks the metrics BENCHMARK.json lists under `section`, checking each
// name exists here with the unit the file states.
telemetry::Json contract_metrics(const telemetry::Json& spec,
                                 const char* section,
                                 const std::vector<Metric>& have) {
  const telemetry::Json* list = spec.find(section);
  if (list == nullptr || !list->is_array()) {
    throw std::runtime_error(std::string{"BENCHMARK.json lacks "} + section);
  }
  telemetry::Json out = telemetry::Json::object();
  for (std::size_t i = 0; i < list->size(); ++i) {
    const std::string name = list->at(i).find("name")->as_string();
    const std::string unit = list->at(i).find("unit")->as_string();
    const Metric* m = nullptr;
    for (const Metric& h : have) {
      if (h.name == name) m = &h;
    }
    if (m == nullptr || m->unit != unit) {
      throw std::runtime_error("BENCHMARK.json metric " + name + " [" + unit +
                               "] is not produced by this benchmark");
    }
    out[name]["value"] = m->value;
    out[name]["unit"] = unit;
  }
  return out;
}

int run_main(const std::vector<std::string>& argv) {
  const RunArgs args = parse_run_args(argv);
  const telemetry::Json spec = load_json(args.spec_path);
  std::filesystem::create_directories(args.out_dir);
  auto w = make_workload(args.workload, {args.seed, args.smoke});

  std::vector<double> setup_s, wall_per_sim, heap_mb, rss_mb, call_s;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<Check> checks;
  std::vector<Metric> accuracy;
  std::vector<Metric> layers = blank_layers();
  bool rss_reset_ok = true;
  std::optional<Outputs> first_out;
  {
    ScopedSpan root{"bench.main"};
    {
      ScopedSpan s{"bench.reference"};
      w->reference();
    }
    {
      // Set-up is everything the first timed run waits for, the warm-up
      // run included. At least three repetitions; a short set-up repeats
      // until the repetitions take a second. The last warm-up runs right
      // before the first timed run, so that run starts warm.
      ScopedSpan s{"bench.setup"};
      double total = 0.0;
      while (setup_s.size() < 3 || (total < 1.0 && setup_s.size() < 1000)) {
        const double t0 = now_s();
        w->setup();
        w->run(false, true);
        setup_s.push_back(now_s() - t0);
        total += setup_s.back();
      }
    }

    const auto judge = [&](const RunRecord& r) {
      if (!first_out) {
        first_out = r.out;
        return true;
      }
      if (r.out == *first_out) return true;
      ++failed;
      errors.push_back("run " + std::to_string(attempted) +
                       " differs from run 0: " + r.out.describe() + " vs " +
                       first_out->describe());
      return false;
    };

    const double t_start = now_s();
    std::vector<double> rep_s;
    while (attempted < args.min_reps ||
           (args.seconds > 0 &&
            now_s() - t_start + quartiles(rep_s).median <= args.seconds)) {
      malloc_trim(0);
      rss_reset_ok = reset_peak_rss() && rss_reset_ok;
      reset_heap_peak();
      ++attempted;
      const double t0 = now_s();
      try {
        ScopedSpan s{"bench.timed_run"};
        const RunRecord r = w->run(false, false);
        const double rss = peak_rss_mb();
        const double heap = heap_peak_mb();
        if (judge(r)) {
          call_s.push_back(r.call_s);
          wall_per_sim.push_back(r.call_s / w->simulated_seconds());
          rss_mb.push_back(rss);
          heap_mb.push_back(heap);
        }
      } catch (const std::exception& e) {
        ++failed;
        errors.push_back("run " + std::to_string(attempted - 1) +
                         " threw: " + e.what());
      }
      rep_s.push_back(now_s() - t0);
    }

    if (first_out) {
      checks = w->validate();
      accuracy = w->accuracy();
    }
    if (args.trace && first_out) {
      ScopedSpan s{"bench.traced_run"};
      ++attempted;
      try {
        const RunRecord r = w->run(true, false);
        if (judge(r)) {
          w->per_layer(layers);
          set_layer(layers, "telemetry.overhead_frac",
                    r.call_s / quartiles(call_s).median - 1.0);
        }
      } catch (const std::exception& e) {
        ++failed;
        errors.push_back(std::string{"traced run threw: "} + e.what());
      }
    }
  }
  for (const Check& c : checks) {
    if (!c.ok) {
      failed = attempted;  // the outputs every run shares are invalid
      errors.push_back("check " + c.name + " failed: " + c.detail);
    }
  }
  for (const Metric& m : accuracy) set_layer(layers, m.name, m.value);
  const bool correct = attempted > 0 && failed == 0 && !call_s.empty();

  // The end-to-end series: each reported as its median over the samples.
  const struct {
    const char* name;
    const char* unit;
    const std::vector<double>& samples;
  } series[] = {
      {"wall_per_sim_s", "s/s", wall_per_sim},
      {"setup_s", "s", setup_s},
      {"peak_heap_mb", "MB", heap_mb},
      {"peak_rss_mb", "MB", rss_mb},
  };
  std::vector<Metric> end_to_end;
  for (const auto& s : series) {
    end_to_end.push_back({s.name, s.unit, quartiles(s.samples).median});
  }

  // ---- human-readable report
  std::printf("workload %s  seed %llu%s  %llu runs attempted, %llu failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.smoke ? "  (smoke)" : "",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const auto& s : series) {
    const Quartiles q = quartiles(s.samples);
    std::printf("  %-16s %12.6g %-4s  q1 %.6g  q3 %.6g  n=%zu\n", s.name,
                q.median, s.unit, q.q1, q.q3, s.samples.size());
  }
  if (!rss_reset_ok) {
    std::printf("  note: /proc/self/clear_refs refused the reset; peak_rss_mb "
                "is the process high-water mark\n");
  }
  for (const Metric& m : accuracy) {
    std::printf("  %-24s %.6g\n", m.name.c_str(), m.value);
  }
  for (const Check& c : checks) {
    std::printf("  check %-28s %s (%s)\n", c.name.c_str(),
                c.ok ? "ok" : "FAILED", c.detail.c_str());
  }
  for (const std::string& e : errors) std::printf("  error: %s\n", e.c_str());

  // ---- results file
  telemetry::Json wj = telemetry::Json::object();
  wj["correct"] = correct;
  wj["attempted"] = attempted;
  wj["failed"] = failed;
  wj["simulated_seconds"] = w->simulated_seconds();
  if (first_out) {
    wj["outputs"]["events"] = first_out->events;
    wj["outputs"]["flows_launched"] = first_out->flows_launched;
    wj["outputs"]["flows_completed"] = first_out->flows_completed;
    wj["outputs"]["fct_hash"] = first_out->fct_hash;
    wj["outputs"]["rtt_hash"] = first_out->rtt_hash;
    wj["outputs"]["state_fp"] = first_out->state_fp;
  }
  for (const auto& s : series) {
    wj["end_to_end"][s.name] = quartile_json(s.unit, s.samples);
  }
  telemetry::Json acc = telemetry::Json::object();
  for (const Metric& m : accuracy) acc[m.name] = m.value;
  wj["accuracy"] = std::move(acc);
  telemetry::Json cj = telemetry::Json::array();
  for (const Check& c : checks) {
    telemetry::Json row = telemetry::Json::object();
    row["name"] = c.name;
    row["ok"] = c.ok;
    row["detail"] = c.detail;
    cj.push_back(std::move(row));
  }
  wj["checks"] = std::move(cj);
  telemetry::Json ej = telemetry::Json::array();
  for (const std::string& e : errors) ej.push_back(e);
  wj["errors"] = std::move(ej);

  if (args.trace) {
    std::printf("  per-layer (traced run):\n");
    telemetry::Json lj = telemetry::Json::object();
    for (const Metric& m : layers) {
      std::printf("    %-32s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      lj[m.name]["value"] = m.value;
      lj[m.name]["unit"] = m.unit;
    }
    wj["per_layer"] = std::move(lj);

    telemetry::Json table = SpanLog::instance().self_time_table();
    const double wall = process_wall_s();
    table["process_wall_s"] = wall;
    std::printf("  self time by span (process wall %.3f s, spans %.3f s):\n",
                wall, table.find("self_sum_s")->as_double());
    const telemetry::Json& rows = *table.find("by_span");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const telemetry::Json& r = rows.at(i);
      std::printf("    %-40s %10.4f s  %5.1f%%  x%llu\n",
                  r.find("name")->as_string().c_str(),
                  r.find("self_s")->as_double(),
                  100.0 * r.find("self_share")->as_double(),
                  static_cast<unsigned long long>(r.find("count")->as_uint()));
    }
    wj["self_time"] = std::move(table);
    const std::string trace_path =
        args.out_dir + "/" + args.workload + ".trace.json";
    write_json(trace_path, SpanLog::instance().chrome_json());
    std::printf("  wrote %s\n", trace_path.c_str());
  }

  telemetry::Json doc = telemetry::Json::object();
  doc["seed"] = args.seed;
  doc["smoke"] = args.smoke;
  doc["workloads"][args.workload] = std::move(wj);
  const std::string results_path = args.out_dir + "/" + args.workload + ".json";
  write_json(results_path, doc);
  std::printf("  wrote %s\n", results_path.c_str());

  // ---- the one-line result, last on stdout
  telemetry::Json line = telemetry::Json::object();
  line["correct"] = correct;
  line["attempted"] = attempted;
  line["failed"] = failed;
  line["metrics"] = args.trace ? contract_metrics(spec, "per_layer", layers)
                               : contract_metrics(spec, "end_to_end", end_to_end);
  std::printf("%s\n", line.dump(0).c_str());
  return correct ? 0 : 1;
}

// Unions the "workloads" objects of per-workload results files.
int merge_main(const std::vector<std::string>& args) {
  if (args.size() < 2) throw std::invalid_argument("merge OUT.json IN.json...");
  telemetry::Json doc = telemetry::Json::object();
  for (std::size_t i = 1; i < args.size(); ++i) {
    const telemetry::Json in = load_json(args[i]);
    for (const char* key : {"seed", "smoke"}) {
      if (const auto* v = in.find(key)) doc[key] = *v;
    }
    const telemetry::Json* ws = in.find("workloads");
    if (ws == nullptr) throw std::runtime_error(args[i] + ": no workloads");
    for (const auto& [name, w] : ws->members()) doc["workloads"][name] = w;
  }
  write_json(args[0], doc);
  return 0;
}

}  // namespace

}  // namespace esim::bench

int main(int argc, char** argv) {
  using namespace esim::bench;  // NOLINT
  const std::vector<std::string> all(argv + 1, argv + argc);
  if (all.empty()) {
    std::fprintf(stderr, "usage: esim_benchmark run|merge|compare ...\n");
    return 2;
  }
  const std::vector<std::string> rest(all.begin() + 1, all.end());
  try {
    if (all[0] == "run") return run_main(rest);
    if (all[0] == "merge") return merge_main(rest);
    if (all[0] == "compare") return compare_main(rest);
    throw std::invalid_argument("unknown mode " + all[0]);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "esim_benchmark: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esim_benchmark: %s\n", e.what());
    return 1;
  }
}
