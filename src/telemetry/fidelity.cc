#include "telemetry/fidelity.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace esim::telemetry {

const char* to_string(CongestionState s) {
  switch (s) {
    case CongestionState::Quiescent:
      return "quiescent";
    case CongestionState::Nominal:
      return "nominal";
    case CongestionState::Congested:
      return "congested";
  }
  return "unknown";
}

const char* to_string(FidelityBand b) {
  switch (b) {
    case FidelityBand::None:
      return "none";
    case FidelityBand::Latency:
      return "latency";
    case FidelityBand::Drop:
      return "drop";
    case FidelityBand::RunDrift:
      return "run_drift";
  }
  return "unknown";
}

namespace {

CongestionState state_from_string(const std::string& s) {
  if (s == "quiescent") return CongestionState::Quiescent;
  if (s == "nominal") return CongestionState::Nominal;
  if (s == "congested") return CongestionState::Congested;
  throw std::runtime_error("FidelityRow: unknown state '" + s + "'");
}

const Json& require(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  if (v == nullptr) {
    throw std::runtime_error("FidelityRow: missing key '" + std::string{key} +
                             "'");
  }
  return *v;
}

}  // namespace

Json FidelityRow::to_json() const {
  Json j = Json::object();
  j["t_ns"] = t_ns;
  j["window_ns"] = window_ns;
  j["cluster"] = static_cast<std::uint64_t>(cluster);
  j["state"] = to_string(state);
  j["utilization"] = utilization;
  j["utilization_ewma"] = utilization_ewma;
  j["offered_bps"] = offered_bps;
  j["drop_rate"] = drop_rate;
  j["drop_rate_ewma"] = drop_rate_ewma;
  j["packets"] = packets;
  j["predicted_drops"] = predicted_drops;
  j["backlog_drops"] = backlog_drops;
  j["backlog_max_ns"] = backlog_max_ns;
  j["shadow_samples"] = shadow_samples;
  j["drop_mismatches"] = drop_mismatches;
  j["queue_drop_mismatches"] = queue_drop_mismatches;
  j["latency_err_mean_log"] = latency_err_mean_log;
  j["latency_err_mae_log"] = latency_err_mae_log;
  j["queue_err_mae_log"] = queue_err_mae_log;
  j["band_violation"] = band_violation;
  return j;
}

FidelityRow FidelityRow::from_json(const Json& j) {
  FidelityRow r;
  r.t_ns = require(j, "t_ns").as_int();
  r.window_ns = require(j, "window_ns").as_int();
  r.cluster = static_cast<std::uint32_t>(require(j, "cluster").as_uint());
  r.state = state_from_string(require(j, "state").as_string());
  r.utilization = require(j, "utilization").as_double();
  r.utilization_ewma = require(j, "utilization_ewma").as_double();
  r.offered_bps = require(j, "offered_bps").as_double();
  r.drop_rate = require(j, "drop_rate").as_double();
  r.drop_rate_ewma = require(j, "drop_rate_ewma").as_double();
  r.packets = require(j, "packets").as_uint();
  r.predicted_drops = require(j, "predicted_drops").as_uint();
  r.backlog_drops = require(j, "backlog_drops").as_uint();
  r.backlog_max_ns = require(j, "backlog_max_ns").as_int();
  r.shadow_samples = require(j, "shadow_samples").as_uint();
  r.drop_mismatches = require(j, "drop_mismatches").as_uint();
  r.queue_drop_mismatches = require(j, "queue_drop_mismatches").as_uint();
  r.latency_err_mean_log = require(j, "latency_err_mean_log").as_double();
  r.latency_err_mae_log = require(j, "latency_err_mae_log").as_double();
  r.queue_err_mae_log = require(j, "queue_err_mae_log").as_double();
  r.band_violation = require(j, "band_violation").as_bool();
  return r;
}

FidelitySink::FidelitySink(const FidelityConfig& config) : config_{config} {
  if (!config_.jsonl_path.empty()) {
    out_.open(config_.jsonl_path, std::ios::out | std::ios::trunc);
    if (!out_.is_open()) {
      throw std::runtime_error("FidelitySink: cannot open " +
                               config_.jsonl_path);
    }
  }
}

FidelitySink::~FidelitySink() = default;

void FidelitySink::append(const FidelityRow& row) {
  std::lock_guard lock{mu_};
  rows_.push_back(row);
  if (out_.is_open()) {
    out_ << row.to_json().dump(0) << '\n';
    out_.flush();
  }
}

void FidelitySink::flush() {
  std::lock_guard lock{mu_};
  if (out_.is_open()) out_.flush();
}

std::vector<FidelityRow> FidelitySink::rows() const {
  std::vector<FidelityRow> out;
  {
    std::lock_guard lock{mu_};
    out = rows_;
  }
  std::sort(out.begin(), out.end(),
            [](const FidelityRow& a, const FidelityRow& b) {
              if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
              return a.cluster < b.cluster;
            });
  return out;
}

std::uint64_t FidelitySink::rows_appended() const {
  std::lock_guard lock{mu_};
  return rows_.size();
}

std::vector<FidelityClusterSummary> FidelitySink::summaries() const {
  const std::vector<FidelityRow> sorted = rows();
  std::vector<FidelityClusterSummary> out;
  // Sample-weighted drift sums, parallel to `out`; every drift figure is
  // weighted by the window's shadow samples.
  struct Drift {
    double mae = 0.0, mean = 0.0, queue = 0.0;
    std::uint64_t weight = 0;
    std::int64_t last_t_ns = 0;
  };
  std::vector<Drift> drift;
  for (const FidelityRow& r : sorted) {
    std::size_t i = 0;
    for (; i < out.size(); ++i) {
      if (out[i].cluster == r.cluster) break;
    }
    if (i == out.size()) {
      out.push_back(FidelityClusterSummary{});
      out.back().cluster = r.cluster;
      drift.push_back(Drift{});
    }
    FidelityClusterSummary& s = out[i];
    ++s.windows;
    switch (r.state) {
      case CongestionState::Quiescent:
        ++s.quiescent_windows;
        break;
      case CongestionState::Nominal:
        ++s.nominal_windows;
        break;
      case CongestionState::Congested:
        ++s.congested_windows;
        break;
    }
    s.packets += r.packets;
    s.shadow_samples += r.shadow_samples;
    s.drop_mismatches += r.drop_mismatches;
    if (r.band_violation) {
      if (s.band_violations == 0) {
        s.violation = std::abs(r.latency_err_mean_log) >
                              config_.latency_band_log
                          ? FidelityBand::Latency
                          : FidelityBand::Drop;
        s.violation_t_ns = r.t_ns;
      }
      ++s.band_violations;
    }
    // Window drift means are weighted back by their sample counts so the
    // run-level figure is the plain per-sample mean.
    const double n = static_cast<double>(r.shadow_samples);
    drift[i].mae += r.latency_err_mae_log * n;
    drift[i].mean += r.latency_err_mean_log * n;
    drift[i].queue += r.queue_err_mae_log * n;
    drift[i].weight += r.shadow_samples;
    drift[i].last_t_ns = r.t_ns;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    FidelityClusterSummary& s = out[i];
    if (drift[i].weight == 0) continue;
    const double w = static_cast<double>(drift[i].weight);
    s.latency_err_mae_log = drift[i].mae / w;
    s.latency_err_mean_log = drift[i].mean / w;
    s.queue_err_mae_log = drift[i].queue / w;
    const double mismatch_rate = static_cast<double>(s.drop_mismatches) /
                                 static_cast<double>(s.shadow_samples);
    if (s.violation == FidelityBand::None &&
        (std::abs(s.latency_err_mean_log) > config_.latency_band_log ||
         mismatch_rate > config_.drop_band)) {
      s.violation = FidelityBand::RunDrift;
      s.violation_t_ns = drift[i].last_t_ns;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FidelityClusterSummary& a,
               const FidelityClusterSummary& b) { return a.cluster < b.cluster; });
  return out;
}

Json FidelitySink::report_section() const {
  Json j = Json::object();
  j["enabled"] = config_.enabled;
  j["sample_period"] = static_cast<std::uint64_t>(config_.sample_period);
  j["rows"] = rows_appended();
  if (!config_.jsonl_path.empty()) j["jsonl_path"] = config_.jsonl_path;
  Json band = Json::object();
  band["latency_log"] = config_.latency_band_log;
  band["drop"] = config_.drop_band;
  j["band"] = std::move(band);

  Json clusters = Json::array();
  Json violating = Json::array();
  for (const FidelityClusterSummary& s : summaries()) {
    Json c = Json::object();
    c["cluster"] = static_cast<std::uint64_t>(s.cluster);
    c["windows"] = s.windows;
    c["quiescent_windows"] = s.quiescent_windows;
    c["nominal_windows"] = s.nominal_windows;
    c["congested_windows"] = s.congested_windows;
    c["packets"] = s.packets;
    c["shadow_samples"] = s.shadow_samples;
    c["drop_mismatches"] = s.drop_mismatches;
    c["band_violations"] = s.band_violations;
    c["latency_err_mae_log"] = s.latency_err_mae_log;
    c["latency_err_mean_log"] = s.latency_err_mean_log;
    c["queue_err_mae_log"] = s.queue_err_mae_log;
    c["in_band"] = s.in_band();
    if (!s.in_band()) {
      Json v = Json::object();
      v["band"] = to_string(s.violation);
      v["t_ns"] = s.violation_t_ns;
      c["violation"] = std::move(v);
      violating.push_back(static_cast<std::uint64_t>(s.cluster));
    }
    clusters.push_back(std::move(c));
  }
  j["clusters"] = std::move(clusters);
  j["violating_clusters"] = std::move(violating);
  return j;
}

ClusterFidelityProbe::ClusterFidelityProbe(FidelitySink& sink,
                                           std::uint32_t cluster,
                                           double capacity_bps,
                                           Registry* registry)
    : sink_{sink}, cluster_{cluster}, capacity_bps_{capacity_bps} {
  if (capacity_bps <= 0) {
    throw std::invalid_argument(
        "ClusterFidelityProbe: capacity must be positive");
  }
  const FidelityConfig& cfg = sink.config();
  shadowing_ = cfg.sample_period > 0;
  period_ = cfg.sample_period > 0 ? cfg.sample_period : 1;
  if (registry != nullptr) {
    const std::string p = "fidelity.c" + std::to_string(cluster) + ".";
    g_state_ = registry->gauge(p + "state");
    g_util_ppm_ = registry->gauge(p + "util_ppm");
    g_drop_ppm_ = registry->gauge(p + "drop_rate_ppm");
    g_backlog_ns_ = registry->gauge(p + "backlog_max_ns");
    c_shadow_ = registry->counter(p + "shadow_samples");
    c_drop_mismatch_ = registry->counter(p + "drop_mismatches");
    c_violations_ = registry->counter(p + "band_violations");
    h_latency_err_ = registry->histogram("fidelity.shadow.latency_err_mnats");
  }
}

void ClusterFidelityProbe::observe_packet(std::uint32_t wire_bytes,
                                          bool dropped) {
  ++w_packets_;
  w_bytes_ += wire_bytes;
  if (dropped) ++w_pred_drops_;
}

void ClusterFidelityProbe::observe_backlog(std::int64_t wait_ns,
                                           bool backlog_drop) {
  if (backlog_drop) {
    ++w_backlog_drops_;
    return;
  }
  w_backlog_max_ns_ = std::max(w_backlog_max_ns_, wait_ns);
}

void ClusterFidelityProbe::record_shadow(bool model_drop,
                                         double model_latency_s, bool ref_drop,
                                         double ref_latency_s, bool queue_drop,
                                         double queue_latency_s) {
  ++w_shadow_;
  ++shadow_total_;
  if (c_shadow_ != nullptr) c_shadow_->inc();
  const double err = std::log(model_latency_s / ref_latency_s);
  w_err_log_sum_ += err;
  w_err_log_abs_ += std::abs(err);
  if (model_drop != ref_drop) {
    ++w_drop_mismatch_;
    if (c_drop_mismatch_ != nullptr) c_drop_mismatch_->inc();
  }
  if (h_latency_err_ != nullptr) {
    h_latency_err_->record(static_cast<std::uint64_t>(std::abs(err) * 1000.0));
  }
  w_queue_err_abs_ += std::abs(std::log(model_latency_s / queue_latency_s));
  if (model_drop != queue_drop) ++w_queue_drop_mismatch_;
}

void ClusterFidelityProbe::on_macro_window(std::int64_t now_ns,
                                           std::int64_t macro_window_ns) {
  close_window(now_ns, macro_window_ns);
}

void ClusterFidelityProbe::finalize(std::int64_t now_ns) {
  if (w_packets_ == 0 && w_shadow_ == 0) return;
  const std::int64_t span = now_ns - window_start_ns_;
  if (span <= 0) return;
  close_window(now_ns, span);
}

void ClusterFidelityProbe::close_window(std::int64_t now_ns,
                                        std::int64_t window_ns) {
  const FidelityConfig& cfg = sink_.config();
  FidelityRow row;
  row.t_ns = now_ns;
  row.window_ns = window_ns;
  row.cluster = cluster_;

  const double window_s = static_cast<double>(window_ns) * 1e-9;
  const double offered_bits = static_cast<double>(w_bytes_) * 8.0;
  row.offered_bps = window_s > 0 ? offered_bits / window_s : 0.0;
  row.utilization = capacity_bps_ > 0 ? row.offered_bps / capacity_bps_ : 0.0;
  const std::uint64_t drops = w_pred_drops_ + w_backlog_drops_;
  row.drop_rate = w_packets_ > 0 ? static_cast<double>(drops) /
                                       static_cast<double>(w_packets_)
                                 : 0.0;
  row.packets = w_packets_;
  row.predicted_drops = w_pred_drops_;
  row.backlog_drops = w_backlog_drops_;
  row.backlog_max_ns = w_backlog_max_ns_;

  // EWMA update: the first window seeds (no decay from the zero state),
  // mirroring stats::Ewma.
  if (!ewma_seeded_) {
    util_ewma_ = row.utilization;
    drop_ewma_ = row.drop_rate;
    ewma_seeded_ = true;
  } else {
    util_ewma_ += cfg.ewma_alpha * (row.utilization - util_ewma_);
    drop_ewma_ += cfg.ewma_alpha * (row.drop_rate - drop_ewma_);
  }
  row.utilization_ewma = util_ewma_;
  row.drop_rate_ewma = drop_ewma_;

  if (drop_ewma_ >= cfg.congested_drop_rate ||
      util_ewma_ >= cfg.congested_util) {
    state_ = CongestionState::Congested;
  } else if (util_ewma_ <= cfg.quiescent_util &&
             drop_ewma_ < cfg.congested_drop_rate * 0.25) {
    state_ = CongestionState::Quiescent;
  } else {
    state_ = CongestionState::Nominal;
  }
  row.state = state_;

  row.shadow_samples = w_shadow_;
  row.drop_mismatches = w_drop_mismatch_;
  row.queue_drop_mismatches = w_queue_drop_mismatch_;
  double mismatch_rate = 0.0;
  if (w_shadow_ > 0) {
    const double n = static_cast<double>(w_shadow_);
    row.latency_err_mean_log = w_err_log_sum_ / n;
    row.latency_err_mae_log = w_err_log_abs_ / n;
    row.queue_err_mae_log = w_queue_err_abs_ / n;
    mismatch_rate = static_cast<double>(w_drop_mismatch_) / n;
  }
  // A window's drop band is judged only once it holds enough samples
  // that one disagreement alone cannot exceed it: ceil(1 / drop_band) of
  // them (20 at the default 0.05). Smaller windows still count toward
  // the run-level drift (FidelitySink::summaries).
  const bool drop_judged =
      cfg.drop_band <= 0 ||
      static_cast<double>(w_shadow_) >= std::ceil(1.0 / cfg.drop_band);
  row.band_violation =
      w_shadow_ > 0 &&
      (std::abs(row.latency_err_mean_log) > cfg.latency_band_log ||
       (drop_judged && mismatch_rate > cfg.drop_band));
  if (row.band_violation) {
    ++violations_total_;
    if (c_violations_ != nullptr) c_violations_->inc();
  }

  if (g_state_ != nullptr) {
    g_state_->set(static_cast<std::int64_t>(state_));
    g_util_ppm_->set(static_cast<std::int64_t>(util_ewma_ * 1e6));
    g_drop_ppm_->set(static_cast<std::int64_t>(drop_ewma_ * 1e6));
    g_backlog_ns_->set(w_backlog_max_ns_);
  }

  sink_.append(row);

  w_packets_ = 0;
  w_pred_drops_ = 0;
  w_backlog_drops_ = 0;
  w_bytes_ = 0;
  w_backlog_max_ns_ = 0;
  w_shadow_ = 0;
  w_drop_mismatch_ = 0;
  w_queue_drop_mismatch_ = 0;
  w_err_log_sum_ = 0.0;
  w_err_log_abs_ = 0.0;
  w_queue_err_abs_ = 0.0;
  window_start_ns_ = now_ns;
}

}  // namespace esim::telemetry
