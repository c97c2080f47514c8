// The repository benchmark: host seconds per simulated second at a stated
// accuracy, on four workloads, with per-layer numbers measured from
// outside the simulator (see README.md for the metric table and why each
// workload exists).
//
// The benchmark drives the simulator only through its public entry points
// and reads only counters the simulator already keeps; README.md lists
// them. Spans are recorded by this package around those calls, never
// inside the simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.h"

namespace esim::bench {

// ---------------------------------------------------------------- spans

/// One completed (or still open, end_ns < 0) span of the benchmark's own
/// timeline. `parent` indexes the enclosing span, -1 for the root.
struct SpanRecord {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
};

/// The process-wide span log. Spans are opened and closed on the main
/// thread only, strictly nested; the simulator's worker threads never
/// touch it.
class SpanLog {
 public:
  static SpanLog& instance();

  int open(std::string name);
  void close(int id);
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  telemetry::Json chrome_json() const;

  /// Self time (duration minus the part its children cover) summed per
  /// span name and per layer (the name up to its first '.'), plus the
  /// root's duration and the sum of all self times.
  telemetry::Json self_time_table() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span on the process span log.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name)
      : id_{SpanLog::instance().open(std::move(name))} {}
  ~ScopedSpan() { SpanLog::instance().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Monotonic seconds since an arbitrary process-local origin.
double now_s();

/// The most heap, in MiB, live at once since the last reset_heap_peak(),
/// above what was live at that reset; counted through the global
/// operator new/delete (heap.cc). Call both from the main thread while no
/// simulator thread runs.
double heap_peak_mb();
void reset_heap_peak();

// ---------------------------------------------------------------- metrics

/// One per-layer metric value with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every per-layer metric the benchmark knows, in report order, with
/// value 0 (a layer a workload does not exercise reports 0).
std::vector<Metric> blank_layers();

/// Sets `name` in `layers`; throws std::logic_error for an unknown name.
void set_layer(std::vector<Metric>& layers, const std::string& name,
               double value);

// ---------------------------------------------------------------- workloads

struct WorkloadOptions {
  std::uint64_t seed = 5;
  /// Shrunken horizons, phases and training for the pre-merge smoke run.
  bool smoke = false;
};

/// The exact simulated outputs of one run. Two runs of one workload in
/// one process must produce equal Outputs (the correctness gate).
struct Outputs {
  std::uint64_t events = 0;
  std::uint64_t flows_launched = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t fct_hash = 0;
  std::uint64_t rtt_hash = 0;
  std::uint64_t state_fp = 0;

  bool operator==(const Outputs&) const = default;
  std::string describe() const;
};

/// One timed call: its host wall time and what it produced.
struct RunRecord {
  double call_s = 0.0;
  Outputs out;
};

/// One named validity check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// A benchmark workload. The harness calls reference() once, then
/// setup() and a warm-up run() several times (each setup() repeats the
/// whole set-up and replaces the previous one), then run() repeatedly.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Simulated seconds covered by one full run.
  virtual double simulated_seconds() const = 0;

  /// What the runs need prepared: boundary-trace recording and training,
  /// or the periodic schedule. Each run builds its own network.
  virtual void setup() {}

  /// The untimed reference (accuracy baseline or memo-off run); it must
  /// not depend on setup().
  virtual void reference() {}

  /// One run. `warmup` shrinks the horizon; `traced` installs the
  /// telemetry registry and keeps its numbers for per_layer().
  virtual RunRecord run(bool traced, bool warmup) = 0;

  /// Workload validity checks on the last full run's outputs.
  virtual std::vector<Check> validate() const = 0;

  /// Accuracy against the reference, for the workloads that have one:
  /// {ks_fct, rtt_p99_rel_err}. Empty otherwise.
  virtual std::vector<Metric> accuracy() const { return {}; }

  /// Fills the per-layer metrics from the set-up timings and the traced
  /// run (call after run(true, false)).
  virtual void per_layer(std::vector<Metric>& layers) = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

// ---------------------------------------------------------------- helpers

/// Median and quartiles as Python's statistics.quantiles(n=4) gives them
/// (the "exclusive" method); a single sample is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> xs);

/// FNV-1a over the bit patterns of `xs` (order-sensitive).
std::uint64_t hash_doubles(const std::vector<double>& xs);

/// Parses a JSON file; throws std::runtime_error on I/O or syntax errors.
telemetry::Json load_json(const std::string& path);

/// `esim_benchmark compare A.json B.json --bounds BENCHMARK.json`.
int compare_main(const std::vector<std::string>& args);

}  // namespace esim::bench
