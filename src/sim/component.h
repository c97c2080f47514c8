// Base class for simulation components (hosts, switches, links, models).
//
// A component is a named object owned by a Simulator. It provides sugar for
// scheduling relative to the owning engine and for leveled logging tagged
// with the component's name.
#pragma once

#include <string>
#include <utility>

#include "sim/simulator.h"

namespace esim::sim {

/// Named simulation object owned by a Simulator.
class Component {
 public:
  /// Creates a component registered under `name` (names should be unique;
  /// duplicates are allowed but only the first is findable by name).
  Component(Simulator& sim, std::string name)
      : sim_{sim}, name_{std::move(name)}, rng_{sim.rng().fork()} {}

  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// The registered name, e.g. "cluster0.tor1".
  const std::string& name() const { return name_; }

  /// Owning engine.
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  /// Current virtual time (sugar for sim().now()).
  SimTime now() const { return sim_.now(); }

  /// Component-private RNG stream, forked from the simulator's root stream
  /// at construction so component draws are order-independent.
  Rng& rng() { return rng_; }

  /// True if a message at `level` would be emitted (the ESIM_LOG guard).
  bool log_enabled(LogLevel level) const {
    return sim_.logger().enabled(level);
  }

  /// Emits a log message tagged with this component's name. Prefer
  /// ESIM_LOG(*this, level, expr) so the message is only built when
  /// enabled.
  void log(LogLevel level, const std::string& message) {
    sim_.logger().log(level, now(), name_, message);
  }

 protected:
  /// Schedules a member action after `delay`.
  EventHandle schedule_in(SimTime delay, EventFn&& fn) {
    return sim_.schedule_in(delay, std::move(fn));
  }

  /// Schedules a member action at absolute time `t`.
  EventHandle schedule_at(SimTime t, EventFn&& fn) {
    return sim_.schedule_at(t, std::move(fn));
  }

 private:
  Simulator& sim_;
  std::string name_;
  Rng rng_;
};

}  // namespace esim::sim
