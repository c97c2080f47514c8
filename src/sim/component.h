// Base class for simulation components (hosts, switches, links, models).
//
// A component is a named object owned by a Simulator. It provides sugar for
// scheduling relative to the owning engine and a private RNG stream.
#pragma once

#include <string>
#include <utility>

#include "sim/simulator.h"

namespace esim::sim {

/// Named simulation object owned by a Simulator.
class Component {
 public:
  /// Creates a component named `name` (a label for reports, digests and
  /// error messages; names need not be unique).
  Component(Simulator& sim, std::string name)
      : sim_{sim}, name_{std::move(name)}, rng_{sim.rng().fork()} {}

  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// The component's name, e.g. "cluster0.tor1".
  const std::string& name() const { return name_; }

  /// Owning engine.
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  /// Current virtual time (sugar for sim().now()).
  SimTime now() const { return sim_.now(); }

  /// Component-private RNG stream, forked from the simulator's root stream
  /// at construction so component draws are order-independent.
  Rng& rng() { return rng_; }

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
