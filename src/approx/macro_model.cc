#include "approx/macro_model.h"

namespace esim::approx {

MacroClassifier::MacroClassifier(const Config& config)
    : config_{config},
      latency_ewma_{kSmoothingAlpha},
      drop_ewma_{kSmoothingAlpha} {}

void MacroClassifier::reset() {
  state_ = MacroState::MinimalCongestion;
  latency_ewma_.reset();
  drop_ewma_.reset();
  prev_signal_ = 0.0;
  window_latency_sum_ = 0.0;
  window_delivered_ = 0;
  window_dropped_ = 0;
}

void MacroClassifier::observe(double latency_seconds, bool dropped) {
  if (dropped) {
    ++window_dropped_;
  } else {
    ++window_delivered_;
    window_latency_sum_ += latency_seconds;
  }
}

void MacroClassifier::advance_window() {
  const std::uint64_t total = window_delivered_ + window_dropped_;
  const double mean_latency =
      window_delivered_ == 0
          ? 0.0
          : window_latency_sum_ / static_cast<double>(window_delivered_);
  const double drop_rate =
      total == 0 ? 0.0
                 : static_cast<double>(window_dropped_) /
                       static_cast<double>(total);
  latency_ewma_.add(mean_latency);
  drop_ewma_.add(drop_rate);
  window_latency_sum_ = 0.0;
  window_delivered_ = 0;
  window_dropped_ = 0;

  const double lat = latency_ewma_.value();
  const double drop = drop_ewma_.value();
  // Combined congestion signal used for the rising/falling decision.
  const double signal = lat / kBaselineLatencyS + 50.0 * drop;
  const bool rising = signal > prev_signal_;
  prev_signal_ = signal;

  if (lat < config_.low_latency_factor * kBaselineLatencyS &&
      drop < config_.high_drop_rate) {
    state_ = MacroState::MinimalCongestion;
  } else if (drop >= config_.high_drop_rate) {
    // Paper text: relatively high drops classify as state (4).
    state_ = MacroState::DecreasingCongestion;
  } else if (rising) {
    state_ = MacroState::IncreasingCongestion;
  } else {
    state_ = MacroState::HighCongestion;
  }
}

}  // namespace esim::approx
