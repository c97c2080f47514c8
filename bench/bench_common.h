// Shared helpers for the figure-reproduction benches.
//
// Every figure bench prints: a header naming the paper figure it
// regenerates, the series the figure plots (one row per point), and a
// trailing NOTES section explaining how to read the shape. Absolute
// numbers differ from the paper (different hardware, no OMNeT++, no GPU);
// the shapes are the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace esim::bench {

/// True when the ESIM_BENCH_QUICK environment variable is set: benches
/// shrink durations/training to smoke-test size.
inline bool quick_mode() {
  const char* v = std::getenv("ESIM_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  if (quick_mode()) std::printf("(ESIM_BENCH_QUICK: reduced scale)\n");
  std::printf("==============================================================\n");
}

inline void print_note(const std::string& note) {
  std::printf("NOTE: %s\n", note.c_str());
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// Linearly interpolated quartiles of `v` (non-empty).
inline Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

}  // namespace esim::bench
