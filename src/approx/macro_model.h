// The macro congestion-state classifier (paper §4.1).
//
// "Currently, our simulation platform identifies macro states using a
//  simple and fast auto-regressive model. Based on previously observed
//  latency and drop rates, if latency is relatively low, it classifies the
//  network as (1). If drops are relatively high, it classifies the network
//  as (4). (2) and (3) are distinguished based on prior state by observing
//  whether latency and drops are rising or falling."
//
// Implemented faithfully: packet outcomes (latency, drop) are folded into
// per-window aggregates; at each window boundary the state machine above
// runs on EWMA-smoothed latency and drop rate. "Relatively low/high" are
// thresholds relative to the fabric's no-load baseline latency and an
// absolute per-window drop-rate bound. Rising/falling is the comparison of
// the current window's smoothed latency+drop signal against the previous
// window's. The two thresholds are the classifier's only settings
// (bench/ablate_macro sweeps them); the window, the baseline and the EWMA
// smoothing are constants.
#pragma once

#include <cstdint>

#include "approx/features.h"
#include "sim/time.h"
#include "stats/summary.h"

namespace esim::approx {

/// Windowed auto-regressive classifier over observed latency/drop rates.
class MacroClassifier {
 public:
  /// Aggregation window (the paper observes second- and microsecond-scale
  /// structure; the window sits between the two). Callers schedule
  /// advance_window() with it.
  static constexpr sim::SimTime kWindow = sim::SimTime::from_us(100);
  /// No-load fabric latency the thresholds are relative to.
  static constexpr double kBaselineLatencyS = 6e-6;
  /// EWMA smoothing across windows.
  static constexpr double kSmoothingAlpha = 0.3;

  struct Config {
    /// "Relatively low" latency: ewma_latency < low_latency_factor *
    /// kBaselineLatencyS (and drops below high_drop_rate).
    double low_latency_factor = 2.0;
    /// "Relatively high" drop rate per window.
    double high_drop_rate = 0.05;
  };

  MacroClassifier() : MacroClassifier(Config{}) {}
  explicit MacroClassifier(const Config& config);

  /// Folds one packet outcome into the current window. Dropped packets
  /// contribute no latency.
  void observe(double latency_seconds, bool dropped);

  /// Closes the current window: updates the EWMAs and re-classifies.
  /// Windows with no observations decay toward MinimalCongestion.
  void advance_window();

  /// Current regime.
  MacroState state() const { return state_; }

  /// Smoothed per-window mean latency (seconds).
  double latency_ewma() const { return latency_ewma_.value(); }

  /// Restores the initial state.
  void reset();

 private:
  Config config_;
  MacroState state_ = MacroState::MinimalCongestion;
  stats::Ewma latency_ewma_;
  stats::Ewma drop_ewma_;
  double prev_signal_ = 0.0;
  // Current window accumulators.
  double window_latency_sum_ = 0.0;
  std::uint64_t window_delivered_ = 0;
  std::uint64_t window_dropped_ = 0;
};

}  // namespace esim::approx
