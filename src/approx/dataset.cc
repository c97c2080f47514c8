#include "approx/dataset.h"

#include <algorithm>
#include <cmath>

namespace esim::approx {

double Dataset::drop_rate() const {
  if (drop_targets.empty()) return 0.0;
  double s = 0;
  for (double d : drop_targets) s += d;
  return s / static_cast<double>(drop_targets.size());
}

Dataset build_dataset(const net::ClosSpec& spec, std::uint32_t cluster,
                      Direction direction,
                      const std::vector<BoundaryRecord>& records,
                      const MacroClassifier::Config& macro_config) {
  std::vector<const BoundaryRecord*> ordered;
  ordered.reserve(records.size());
  for (const auto& r : records) {
    if (r.completed && r.direction == direction) ordered.push_back(&r);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const BoundaryRecord* a, const BoundaryRecord* b) {
              if (a->entry != b->entry) return a->entry < b->entry;
              return a->packet.id < b->packet.id;
            });

  Dataset ds;
  ds.features.reserve(ordered.size());
  ds.drop_targets.reserve(ordered.size());
  ds.latency_log_us.reserve(ordered.size());

  FeatureExtractor extractor{spec, cluster, direction};
  MacroClassifier macro{macro_config};
  sim::SimTime window_end = MacroClassifier::kWindow;

  double sum = 0.0, sumsq = 0.0;
  std::size_t delivered = 0;

  for (const BoundaryRecord* rec : ordered) {
    // Advance macro windows up to this packet's entry time.
    while (rec->entry >= window_end) {
      macro.advance_window();
      window_end += MacroClassifier::kWindow;
    }
    const PacketFeatures f =
        extractor.extract(rec->packet, rec->entry, macro.state());
    ds.features.push_back(f);
    ds.drop_targets.push_back(rec->dropped ? 1.0 : 0.0);
    double log_us = 0.0;
    if (!rec->dropped) {
      const double us = std::max((rec->exit - rec->entry).to_us(), 1e-3);
      log_us = std::log(us);
      sum += log_us;
      sumsq += log_us * log_us;
      ++delivered;
    }
    ds.latency_log_us.push_back(log_us);
    macro.observe((rec->exit - rec->entry).to_seconds(), rec->dropped);
  }

  if (delivered > 0) {
    ds.mean_log_us = sum / static_cast<double>(delivered);
    const double var =
        sumsq / static_cast<double>(delivered) - ds.mean_log_us * ds.mean_log_us;
    ds.std_log_us = var > 1e-12 ? std::sqrt(var) : 1.0;
  }
  return ds;
}

}  // namespace esim::approx
