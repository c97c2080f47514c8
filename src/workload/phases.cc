#include "workload/phases.h"

#include <set>
#include <stdexcept>

namespace esim::workload {

std::vector<PhasePattern::Injection> PhasePattern::expand(
    std::uint64_t first_flow_id) const {
  validate();
  std::vector<Injection> out;
  out.reserve(static_cast<std::size_t>(phases) * pattern.size());
  for (std::uint32_t k = 0; k < phases; ++k) {
    const std::int64_t base = boundary_ns(k);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      const PhaseFlow& f = pattern[i];
      Injection inj;
      inj.src = f.src;
      inj.dst = f.dst;
      inj.bytes = f.bytes;
      inj.start_ns = base + f.offset_ns;
      inj.flow_id = first_flow_id +
                    static_cast<std::uint64_t>(k) * pattern.size() + i;
      inj.phase = k;
      inj.index_in_phase = static_cast<std::uint32_t>(i);
      out.push_back(inj);
    }
  }
  return out;
}

void PhasePattern::validate() const {
  if (period_ns <= 0) {
    throw std::invalid_argument("PhasePattern: period must be positive");
  }
  if (phases == 0) {
    throw std::invalid_argument("PhasePattern: need at least one phase");
  }
  if (pattern.empty()) {
    throw std::invalid_argument("PhasePattern: empty flow pattern");
  }
  std::set<std::pair<std::uint32_t, std::int64_t>> starts;
  for (const PhaseFlow& f : pattern) {
    if (f.src == f.dst) {
      throw std::invalid_argument("PhasePattern: flow src == dst");
    }
    if (f.bytes == 0) {
      throw std::invalid_argument("PhasePattern: flow bytes must be positive");
    }
    if (f.offset_ns < 0 || f.offset_ns >= period_ns) {
      throw std::invalid_argument(
          "PhasePattern: flow offset outside [0, period)");
    }
    if (!starts.insert({f.src, f.offset_ns}).second) {
      throw std::invalid_argument(
          "PhasePattern: per-host flow offsets must be unique within a "
          "phase (port assignment would depend on injection order)");
    }
  }
}

}  // namespace esim::workload
