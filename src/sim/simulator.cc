#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>

#include "sim/component.h"
#include "telemetry/metrics.h"

namespace esim::sim {

Simulator::Simulator(std::uint64_t seed) : rng_{seed} {}

Simulator::~Simulator() = default;

EventHandle Simulator::schedule_at(SimTime t, EventFn&& fn) {
  if (t < now_) {
    throw std::logic_error("schedule_at: time " + t.to_string() +
                           " is in the past (now=" + now_.to_string() + ")");
  }
  return queue_.schedule(t, std::move(fn));
}

EventHandle Simulator::schedule_at_keyed(SimTime t, std::uint64_t key,
                                         EventFn&& fn) {
  if (t < now_) {
    throw std::logic_error("schedule_at_keyed: time " + t.to_string() +
                           " is in the past (now=" + now_.to_string() + ")");
  }
  return queue_.schedule(t, key, std::move(fn));
}

EventHandle Simulator::schedule_reserved(SimTime t, std::uint64_t seq,
                                         EventFn&& fn) {
  if (t < now_) {
    throw std::logic_error("schedule_reserved: time " + t.to_string() +
                           " is in the past (now=" + now_.to_string() + ")");
  }
  return queue_.schedule_reserved(t, seq, std::move(fn));
}

EventHandle Simulator::schedule_in(SimTime d, EventFn&& fn) {
  if (d < SimTime{}) {
    throw std::logic_error("schedule_in: negative delay " + d.to_string());
  }
  return queue_.schedule(now_ + d, std::move(fn));
}

bool Simulator::cancel(EventHandle h) { return queue_.cancel(h); }

void Simulator::execute(Event& ev) {
  assert(ev.time >= now_);
  now_ = ev.time;
  ++events_executed_;
  if (pop_observer_ != nullptr) pop_observer_->on_event_pop(ev.time, ev.seq);
  ev.fn();
}

bool Simulator::step() {
  auto ev = queue_.pop();
  if (!ev) return false;
  execute(*ev);
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(SimTime end) {
  stopped_ = false;
  while (!stopped_) {
    auto ev = queue_.pop_before(end);
    if (!ev) break;
    execute(*ev);
  }
  if (now_ < end) now_ = end;
}

void Simulator::fast_forward_to(SimTime t) {
  if (t < now_) {
    throw std::logic_error("fast_forward_to: time " + t.to_string() +
                           " is in the past (now=" + now_.to_string() + ")");
  }
  if (!queue_.empty() && queue_.next_time() < t) {
    throw std::logic_error(
        "fast_forward_to: a pending event at " +
        queue_.next_time().to_string() + " precedes the target " +
        t.to_string() + " — the skipped interval is not empty");
  }
  now_ = t;
}

void Simulator::set_telemetry(telemetry::Registry* registry,
                              const std::string& prefix) {
  telemetry_ = registry;
  if (registry == nullptr) return;
  auto* executed = registry->counter(prefix + ".events_executed");
  auto* scheduled = registry->counter(prefix + ".events_scheduled");
  auto* pending = registry->gauge(prefix + ".events_pending");
  auto* heap = registry->gauge(prefix + ".fes_heap_entries");
  registry->add_flusher([this, executed, scheduled, pending, heap] {
    executed->set(events_executed_);
    scheduled->set(queue_.total_scheduled());
    pending->set(static_cast<std::int64_t>(queue_.size()));
    heap->set(static_cast<std::int64_t>(queue_.heap_entries()));
  });
}

}  // namespace esim::sim
