// The fidelity observatory: online accuracy and congestion telemetry for
// approximated clusters (the paper's central bet is that a cluster's
// black-box model stays "close enough" to packet-level truth — this layer
// watches that closeness *while the simulation runs*, instead of only in
// offline held-out eval).
//
// Three cooperating pieces, all off by default:
//
//   * shadow sampling — a deterministic fraction of the boundary packets
//     an ApproxCluster's Ml tier decides is additionally evaluated against
//     the reference paths (the naive-inference second opinion and the
//     queue-model ground truth derived from the emulated port backlog),
//     comparing the drop decision and the latency prediction. Admission is
//     a pure hash of (packet id, seed) — no RNG stream is consumed — and
//     nothing observed here schedules events or touches simulation state,
//     so a run with fidelity on is bit-identical (event counts, pop
//     order, digest lanes) to the same run with fidelity off.
//   * per-cluster congestion tracking — every admitted packet feeds
//     windowed offered-load / drop / backlog accumulators; at each window
//     boundary the EWMAs update and the cluster is classified quiescent /
//     nominal / congested. The classification is what an adaptive
//     ApproxCluster steps its GranularityController with (DESIGN.md §12);
//     it is exposed through the metrics registry as fidelity.c<k>.*
//     series.
//   * streaming time-series export — one JSONL row per cluster per window
//     (virtual-time bucketed: congestion state, drift metrics, shadow
//     sample counts), appended to a shared FidelitySink which also builds
//     the `fidelity` section of the run report, flagging clusters whose
//     observed drift left the configured error band and naming the band
//     and the window that broke it.
//
// Cost contract (DESIGN.md §11): a cluster without a probe pays one null
// check per packet. With fidelity on, unsampled packets pay a handful of
// scalar adds; only the 1-in-sample_period shadow packets pay a reference
// inference. Windows piggyback on the cluster's existing macro-window
// timer (advancing fidelity state schedules NO events of its own — that
// is what makes the on/off digest-invariance argument airtight).
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.h"

namespace esim::telemetry {

class Registry;
class Counter;
class Gauge;
class Histogram;

/// Windowed congestion regime of one approximated cluster. Quiescent
/// clusters are candidates for demotion to a fluid model, congested ones
/// for promotion back to packet fidelity (the HyGra direction).
enum class CongestionState : std::uint8_t {
  Quiescent = 0,
  Nominal = 1,
  Congested = 2,
};

const char* to_string(CongestionState s);

/// SplitMix64 finalizer used for deterministic shadow admission. Local
/// copy (telemetry sits below src/check and must not depend on it).
constexpr std::uint64_t fidelity_mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Knobs for the observatory. A default-constructed config is disabled;
/// runs are bit-identical either way. A fidelity window is one macro-
/// classifier window: the probe closes it when the cluster's existing
/// macro timer fires, so it never schedules events of its own.
struct FidelityConfig {
  bool enabled = false;

  /// Shadow-sample 1 in `sample_period` admitted packets (deterministic:
  /// fidelity_mix64(packet_id ^ seed) % sample_period == 0). 1 shadows
  /// every packet; 0 disables shadowing but keeps congestion tracking.
  std::uint32_t sample_period = 64;
  /// Seed of the admission hash (a forked, self-contained stream: it
  /// shares nothing with any component RNG).
  std::uint64_t seed = 0xF1DE117Eull;

  // --- error budget (the drift band a cluster must stay inside) ---
  /// Violation when |mean ln(model latency / reference latency)| over a
  /// window's shadow samples exceeds this.
  double latency_band_log = 0.75;
  /// Violation when the shadow drop-decision disagreement rate over a
  /// window exceeds this. A window is judged on it only when it holds at
  /// least ceil(1 / drop_band) shadow samples, so one disagreement alone
  /// never flags it; every window counts toward the run-level rate.
  double drop_band = 0.05;

  // --- congestion classification (EWMA across windows) ---
  double ewma_alpha = 0.3;      ///< smoothing for util/drop EWMAs
  double quiescent_util = 0.02; ///< util EWMA at/below which = quiescent
  double congested_util = 0.5;  ///< util EWMA at/above which = congested
  double congested_drop_rate = 0.02;  ///< drop EWMA at/above = congested

  /// JSONL export path ("" keeps rows in memory only; they still feed
  /// the run-report section).
  std::string jsonl_path;
};

/// One exported time-series row: a cluster's state over one window.
struct FidelityRow {
  std::int64_t t_ns = 0;        ///< virtual time of the window's end
  std::int64_t window_ns = 0;   ///< window span
  std::uint32_t cluster = 0;
  CongestionState state = CongestionState::Quiescent;

  // Congestion gauges (window + smoothed).
  double utilization = 0.0;       ///< offered bits / capacity, this window
  double utilization_ewma = 0.0;
  double offered_bps = 0.0;
  double drop_rate = 0.0;         ///< drops / packets, this window
  double drop_rate_ewma = 0.0;
  std::uint64_t packets = 0;      ///< admitted this window
  std::uint64_t predicted_drops = 0;
  std::uint64_t backlog_drops = 0;
  std::int64_t backlog_max_ns = 0;  ///< worst port-queue wait granted

  // Shadow-sampled drift metrics (0 samples -> drift fields are 0).
  std::uint64_t shadow_samples = 0;
  std::uint64_t drop_mismatches = 0;      ///< model vs reference decision
  std::uint64_t queue_drop_mismatches = 0;  ///< model vs queue-truth
  double latency_err_mean_log = 0.0;  ///< mean ln(model/ref), signed
  double latency_err_mae_log = 0.0;   ///< mean |ln(model/ref)|
  double queue_err_mae_log = 0.0;     ///< mean |ln(model/queue-truth)|
  bool band_violation = false;

  Json to_json() const;
  /// Parses a row written by to_json(); throws std::runtime_error on a
  /// malformed document.
  static FidelityRow from_json(const Json& j);
};

/// Why a cluster left its error band (FidelityClusterSummary::violation).
enum class FidelityBand : std::uint8_t {
  None = 0,      ///< in band
  Latency = 1,   ///< a window's |mean ln(model/ref)| > latency_band_log
  Drop = 2,      ///< a judged window's disagreement rate > drop_band
  RunDrift = 3,  ///< no window broke a band, the run-level drift did
};

const char* to_string(FidelityBand b);

/// Aggregated per-cluster totals over a whole run (the report section).
struct FidelityClusterSummary {
  std::uint32_t cluster = 0;
  std::uint64_t windows = 0;
  std::uint64_t quiescent_windows = 0;
  std::uint64_t nominal_windows = 0;
  std::uint64_t congested_windows = 0;
  std::uint64_t packets = 0;
  std::uint64_t shadow_samples = 0;
  std::uint64_t drop_mismatches = 0;
  std::uint64_t band_violations = 0;
  double latency_err_mae_log = 0.0;  ///< sample-weighted over windows
  double latency_err_mean_log = 0.0;
  double queue_err_mae_log = 0.0;
  /// The band the cluster broke first: the first violating window's
  /// (Latency when that window broke both), else RunDrift when the
  /// run-level drift is out of band, else None.
  FidelityBand violation = FidelityBand::None;
  /// t_ns of the window that broke `violation` (for RunDrift, the
  /// cluster's last window, where the run-level figure stands); 0 when
  /// in band.
  std::int64_t violation_t_ns = 0;

  bool in_band() const { return violation == FidelityBand::None; }
};

/// Thread-safe collector shared by every probe of one run (PDES window
/// timers fire on partition threads). Owns the JSONL stream and retains
/// every row for the report section.
class FidelitySink {
 public:
  /// Opens `config.jsonl_path` for streaming append when non-empty.
  /// Throws std::runtime_error if the file cannot be opened.
  explicit FidelitySink(const FidelityConfig& config);
  ~FidelitySink();

  FidelitySink(const FidelitySink&) = delete;
  FidelitySink& operator=(const FidelitySink&) = delete;

  const FidelityConfig& config() const { return config_; }

  /// Appends one row: streams the JSONL line (if a path was configured)
  /// and retains the row in memory. Thread-safe.
  void append(const FidelityRow& row);

  /// Flushes the JSONL stream (rows are flushed per-append already; this
  /// exists for tests that read the file mid-run).
  void flush();

  /// All rows so far, sorted by (t_ns, cluster) — PDES partitions append
  /// concurrently, so retention order is not deterministic but this view
  /// is. Thread-safe copy.
  std::vector<FidelityRow> rows() const;

  std::uint64_t rows_appended() const;

  /// The `fidelity` run-report section:
  ///   {"enabled":true, "sample_period":N, "rows":R,
  ///    "band":{"latency_log":..,"drop":..},
  ///    "clusters":[{...per-cluster summary...}],
  ///    "violating_clusters":[k,...]}
  /// Clusters whose run-level drift exceeds the band, or that logged any
  /// window-level band violation, land in violating_clusters; each one's
  /// summary carries "violation":{"band":"latency"|"drop"|"run_drift",
  /// "t_ns":...}.
  Json report_section() const;

  /// Per-cluster aggregation of the retained rows, sorted by cluster id,
  /// each with its band verdict.
  std::vector<FidelityClusterSummary> summaries() const;

 private:
  FidelityConfig config_;
  mutable std::mutex mu_;
  std::vector<FidelityRow> rows_;
  std::ofstream out_;
};

/// Per-cluster probe, owned by the ApproxCluster (null when fidelity is
/// off). All methods are called from the cluster's own partition thread;
/// only FidelitySink::append crosses threads.
class ClusterFidelityProbe {
 public:
  /// `capacity_bps` is the cluster's aggregate boundary capacity (the
  /// denominator of utilization). `registry` may be null (metrics off;
  /// rows and the report section still work).
  ClusterFidelityProbe(FidelitySink& sink, std::uint32_t cluster,
                       double capacity_bps, Registry* registry);

  /// Deterministic shadow admission for one packet id. Pure; consumes no
  /// randomness.
  bool shadow_admit(std::uint64_t packet_id) const {
    if (!shadowing_) return false;
    return fidelity_mix64(packet_id ^ sink_.config().seed) % period_ == 0;
  }

  /// Every admitted packet's outcome (called whether or not sampled).
  void observe_packet(std::uint32_t wire_bytes, bool dropped);

  /// Port-queue observation for a delivered packet: how long past its
  /// desired time the emulated port pushed it (0 = no conflict), or a
  /// backlog drop.
  void observe_backlog(std::int64_t wait_ns, bool backlog_drop);

  /// One shadow comparison. Latencies in seconds, all > 0; `*_drop` are
  /// the decisions under the SAME pre-drawn uniform (common random
  /// numbers, so disagreement measures the models, not the coin).
  void record_shadow(bool model_drop, double model_latency_s, bool ref_drop,
                     double ref_latency_s, bool queue_drop,
                     double queue_latency_s);

  /// Window boundary, piggybacked on the cluster's macro timer: closes
  /// the fidelity window — classifies, publishes instruments, and appends
  /// a row at virtual time `now_ns`.
  void on_macro_window(std::int64_t now_ns, std::int64_t macro_window_ns);

  /// End-of-run flush of the current partial window (no-op when empty).
  void finalize(std::int64_t now_ns);

  /// Congestion regime as of the last closed window.
  CongestionState state() const { return state_; }
  double utilization_ewma() const { return util_ewma_; }

  /// Totals across the run (monotonic; exposed for tests/benches).
  std::uint64_t shadow_samples_total() const { return shadow_total_; }
  std::uint64_t band_violations_total() const { return violations_total_; }

 private:
  void close_window(std::int64_t now_ns, std::int64_t window_ns);

  FidelitySink& sink_;
  std::uint32_t cluster_;
  double capacity_bps_;
  bool shadowing_ = false;
  std::uint32_t period_ = 1;

  // EWMA state across windows.
  double util_ewma_ = 0.0;
  double drop_ewma_ = 0.0;
  bool ewma_seeded_ = false;
  CongestionState state_ = CongestionState::Quiescent;

  // Current-window accumulators.
  std::uint64_t w_packets_ = 0;
  std::uint64_t w_pred_drops_ = 0;
  std::uint64_t w_backlog_drops_ = 0;
  std::uint64_t w_bytes_ = 0;
  std::int64_t w_backlog_max_ns_ = 0;
  std::uint64_t w_shadow_ = 0;
  std::uint64_t w_drop_mismatch_ = 0;
  std::uint64_t w_queue_drop_mismatch_ = 0;
  double w_err_log_sum_ = 0.0;  // signed ln(model/ref)
  double w_err_log_abs_ = 0.0;
  double w_queue_err_abs_ = 0.0;
  std::int64_t window_start_ns_ = 0;

  // Run totals.
  std::uint64_t shadow_total_ = 0;
  std::uint64_t violations_total_ = 0;

  // Registry instruments (null when metrics are off).
  Gauge* g_state_ = nullptr;
  Gauge* g_util_ppm_ = nullptr;
  Gauge* g_drop_ppm_ = nullptr;
  Gauge* g_backlog_ns_ = nullptr;
  Counter* c_shadow_ = nullptr;
  Counter* c_drop_mismatch_ = nullptr;
  Counter* c_violations_ = nullptr;
  Histogram* h_latency_err_ = nullptr;  // |ln(model/ref)| in milli-nats
};

}  // namespace esim::telemetry
