// The sequential discrete-event simulation engine.
//
// A `Simulator` owns the future-event set, the virtual clock, the root RNG,
// and the components built on it. It is the single-threaded engine used
// by full-fidelity simulations and by each partition of the parallel engine
// (see parallel.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"

namespace esim::telemetry {
class Registry;
}

namespace esim::sim {

class Component;

/// Observer of the engine's event pop stream. Installed by the
/// differential-determinism harness (src/check) to fingerprint execution
/// order; costs one branch per event when absent (the telemetry pattern).
class PopObserver {
 public:
  virtual ~PopObserver() = default;

  /// Called once per executed event, before its closure runs. `time` is
  /// the event's virtual time (== now() at execution), `seq` the FES
  /// insertion sequence that broke any same-time tie.
  virtual void on_event_pop(SimTime time, std::uint64_t seq) = 0;
};

/// Discrete-event simulation engine: virtual clock + future-event set.
///
/// Typical use:
///
///   Simulator sim{/*seed=*/42};
///   auto* host = sim.add_component<Host>(...);
///   sim.schedule_in(SimTime::from_ms(1), [&]{ ... });
///   sim.run_until(SimTime::from_sec(5));
class Simulator {
 public:
  /// Constructs an engine whose root RNG is seeded with `seed`.
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (must be >= now()).
  EventHandle schedule_at(SimTime t, EventFn&& fn);

  /// Schedules `fn` at `t` with an engine-invariant same-time priority key
  /// (smaller first; key 0 — every plain schedule — precedes all keyed
  /// events). Links key packet deliveries by packet id so same-instant
  /// arrivals at a switch order identically under every engine; see
  /// event_queue.h.
  EventHandle schedule_at_keyed(SimTime t, std::uint64_t key, EventFn&& fn);

  /// Schedules `fn` after a delay of `d` (must be >= 0).
  EventHandle schedule_in(SimTime d, EventFn&& fn);

  /// Cancels a pending event. Returns false if already fired or cancelled.
  bool cancel(EventHandle h);

  /// Runs until the event set is exhausted or stop() is called.
  void run();

  /// Runs until virtual time reaches `end` (events at exactly `end` are NOT
  /// executed), the event set empties, or stop() is called. The clock is
  /// left at min(end, time of last executed event-set state).
  void run_until(SimTime end);

  /// Executes at most one event. Returns false when none remain.
  bool step();

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return events_executed_; }

  /// Number of events ever scheduled (executed + pending + cancelled).
  std::uint64_t events_scheduled() const { return queue_.total_scheduled(); }

  /// Number of pending events.
  std::size_t events_pending() const { return queue_.size(); }

  /// Time of the earliest pending event. Requires events_pending() > 0.
  SimTime next_event_time() { return queue_.next_time(); }

  /// Root RNG. Components should `fork()` their own stream from this at
  /// construction so later additions don't shift earlier streams.
  Rng& rng() { return rng_; }

  /// Installs a metrics registry (telemetry on) or nullptr (off, the
  /// default). Registers a pull-flusher publishing this engine's event
  /// accounting under `<prefix>.events_executed`, `.events_scheduled`,
  /// `.events_pending`, and `.fes_heap_entries`. Install *before*
  /// building components: they capture instrument pointers at
  /// construction. The registry must outlive every snapshot taken while
  /// this simulator is alive.
  void set_telemetry(telemetry::Registry* registry,
                     const std::string& prefix = "sim");

  /// The installed registry, or nullptr. Components check this once at
  /// construction, never on the hot path.
  telemetry::Registry* telemetry() const { return telemetry_; }

  /// Installs an event-pop observer (or nullptr to remove it). The
  /// observer sees every executed event's (time, tie-break seq) before the
  /// closure runs. Zero cost when absent: step() pays one null check, the
  /// same contract as telemetry. The observer must outlive the run.
  void set_pop_observer(PopObserver* observer) { pop_observer_ = observer; }

  /// The installed pop observer, or nullptr.
  PopObserver* pop_observer() const { return pop_observer_; }

  // --- memoization / fast-forward hooks (src/memo) ---------------------

  /// Jumps the virtual clock to `t` without executing anything. Sound only
  /// when the interval [now, t) is known to be empty of pending events —
  /// i.e. a memoized phase replay has already accounted for them. Throws
  /// std::logic_error if `t` < now() or a pending event precedes `t`.
  void fast_forward_to(SimTime t);

  /// Declares `n` logical event executions (a replayed phase) without
  /// running them, keeping events_executed() identical to a live run.
  void advance_executed_accounting(std::uint64_t n) { events_executed_ += n; }

  /// FES accounting advance — see EventQueue::advance_accounting and the
  /// memoization contract in event_queue.h.
  void fes_advance(std::uint64_t scheduled_delta) {
    queue_.advance_accounting(scheduled_delta);
  }

  /// The FES insertion sequence the next schedule will consume.
  std::uint64_t fes_next_seq() const { return queue_.next_seq(); }

  /// Schedules `fn` at `t` (must be >= now()) under a sequence reserved
  /// earlier with fes_advance(); see EventQueue::schedule_reserved.
  EventHandle schedule_reserved(SimTime t, std::uint64_t seq, EventFn&& fn);

  /// TEST-ONLY: forwards to EventQueue::debug_set_invert_tiebreak — the
  /// determinism harness's injected ordering bug. Throws if any event has
  /// already been scheduled on this engine.
  void debug_invert_fes_tiebreak(bool on) {
    queue_.debug_set_invert_tiebreak(on);
  }

  /// Constructs a component in place and returns a non-owning pointer.
  /// The simulator owns the component.
  template <typename T, typename... Args>
  T* add_component(Args&&... args) {
    auto owned = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T* raw = owned.get();
    components_.push_back(std::move(owned));
    return raw;
  }

  /// All components, in the order they were added.
  const std::vector<std::unique_ptr<Component>>& components() const {
    return components_;
  }

 private:
  /// Advances the clock to `ev` and runs it (the body of step()).
  void execute(Event& ev);

  SimTime now_;
  EventQueue queue_;
  Rng rng_;
  telemetry::Registry* telemetry_ = nullptr;
  PopObserver* pop_observer_ = nullptr;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::vector<std::unique_ptr<Component>> components_;
};

}  // namespace esim::sim
