#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace esim::sim {
namespace {

constexpr std::int64_t kNeverNs = std::numeric_limits<std::int64_t>::max();

/// a + b for non-negative int64 without overflow (saturates at max).
std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  return a > std::numeric_limits<std::int64_t>::max() - b
             ? std::numeric_limits<std::int64_t>::max()
             : a + b;
}

/// A spin-wait hint: lets the sibling hyperthread run while we poll.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// The barrier every partition crosses twice per sync round.
///
/// Sense-reversing: the last party to arrive runs the round's serial step,
/// re-arms the arrival count and bumps `generation_`, which releases the
/// others. A PDES round is short (the adaptive Clos runs ~59k windows of
/// ~1 us, a few us of work each), so how a waiter notices the bump is the
/// barrier's whole cost. A futex sleep costs tens of us per wake-up, so
/// waiters poll in three stages: a few pause-spins for the common case of
/// a near-simultaneous arrival, then `yield()` for a bounded number of
/// polls — which hands the core to a runnable partition when there are
/// more partitions than cores — and only then `atomic::wait`, so a long
/// imbalance (one partition's heavy window) sleeps instead of burning a
/// core. The budgets are constants: yielding keeps oversubscribed runs
/// cheap without knowing the CPU count.
class RoundBarrier {
 public:
  explicit RoundBarrier(std::uint32_t parties)
      : parties_{parties}, waiting_{parties} {}

  /// Blocks until all parties have arrived. The last to arrive runs
  /// `step()` before releasing the others, so every party sees what
  /// `step` wrote, and what every party wrote before arriving.
  template <typename Step>
  void arrive_and_wait(Step&& step) {
    // Read before arriving: the bump cannot happen until we have arrived.
    const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
    if (waiting_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      step();
      waiting_.store(parties_, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    for (int i = 0; i < kSpinPolls; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
    for (int i = 0; i < kYieldPolls; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      std::this_thread::yield();
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  static constexpr int kSpinPolls = 16;
  static constexpr int kYieldPolls = 2000;

  const std::uint32_t parties_;
  // Arrivals and the release flag on separate cache lines: waiters poll
  // generation_ while late arrivals decrement waiting_.
  alignas(64) std::atomic<std::uint32_t> waiting_;
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

}  // namespace

Partition::Partition(std::uint32_t index, std::uint64_t seed,
                     std::uint32_t num_sources)
    : index_{index}, sim_{seed}, mailboxes_(num_sources) {
  drain_runs_.reserve(num_sources);
  drain_pos_.reserve(num_sources);
}

void Partition::post(std::uint32_t source, SimTime deliver_at,
                     std::uint64_t key, EventFn&& fn) {
  std::vector<CrossMessage>& box = mailboxes_[source].messages;
  box.push_back(CrossMessage{deliver_at, key, box.size(), std::move(fn)});
}

void Partition::set_telemetry(telemetry::Registry* registry,
                              telemetry::Gauge* inbox_high_water,
                              telemetry::Counter* drained) {
  registry_ = registry;
  inbox_high_water_gauge_ = inbox_high_water;
  drained_ = drained;
  pair_messages_.assign(registry != nullptr ? mailboxes_.size() : 0, nullptr);
}

std::size_t Partition::drain_inbox() {
  // Each source posts in its own execution order (source_seq ascending),
  // but deliver times are not monotone per source (links have different
  // delays), so sort each small mailbox by (deliver_at, seq). Mailboxes
  // are mostly sorted already, which keeps this cheap.
  std::size_t total = 0;
  std::vector<std::vector<CrossMessage>*>& runs = drain_runs_;
  runs.clear();
  for (std::uint32_t s = 0; s < mailboxes_.size(); ++s) {
    std::vector<CrossMessage>& run = mailboxes_[s].messages;
    if (run.empty()) continue;
    std::sort(run.begin(), run.end(),
              [](const CrossMessage& a, const CrossMessage& b) {
                if (a.deliver_at != b.deliver_at)
                  return a.deliver_at < b.deliver_at;
                return a.source_seq < b.source_seq;
              });
    total += run.size();
    if (static_cast<std::int64_t>(run.size()) > inbox_high_water_) {
      inbox_high_water_ = static_cast<std::int64_t>(run.size());
      if (inbox_high_water_gauge_ != nullptr) {
        inbox_high_water_gauge_->set(inbox_high_water_);
      }
    }
    if (registry_ != nullptr) {
      telemetry::Counter*& pair = pair_messages_[s];
      if (pair == nullptr) {
        pair = registry_->counter("pdes.pair.p" + std::to_string(s) + "_p" +
                                  std::to_string(index_) + ".messages");
      }
      pair->inc(run.size());
    }
    runs.push_back(&run);
  }
  if (total == 0) return 0;
  if (drained_ != nullptr) drained_->inc(total);

  // Merge the ordered per-source streams into the FES by
  // (deliver_at, source, seq) — the order one sort of every message by
  // that key would give, so cross-engine determinism holds.
  std::vector<std::size_t>& pos = drain_pos_;
  pos.assign(runs.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    std::size_t best = runs.size();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (pos[i] == runs[i]->size()) continue;
      if (best == runs.size() ||
          (*runs[i])[pos[i]].deliver_at < (*runs[best])[pos[best]].deliver_at) {
        best = i;  // tie on deliver_at keeps the lower source (scan order)
      }
    }
    CrossMessage& m = (*runs[best])[pos[best]++];
    sim_.schedule_at_keyed(m.deliver_at, m.key, std::move(m.fn));
  }
  for (std::vector<CrossMessage>* run : runs) run->clear();
  return total;
}

ParallelEngine::ParallelEngine(Config config) : config_{config} {
  if (config_.num_partitions == 0) {
    throw std::invalid_argument("ParallelEngine: need at least 1 partition");
  }
  if (config_.lookahead <= SimTime{}) {
    throw std::invalid_argument("ParallelEngine: lookahead must be positive");
  }
  const std::uint32_t P = config_.num_partitions;
  partitions_.reserve(P);
  for (std::uint32_t i = 0; i < P; ++i) {
    partitions_.push_back(std::make_unique<Partition>(i, config_.seed, P));
  }
  pair_lookahead_ns_.assign(static_cast<std::size_t>(P) * P,
                            config_.lookahead.ns());
}

ParallelEngine::~ParallelEngine() = default;

SimTime ParallelEngine::pair_lookahead(std::uint32_t from,
                                       std::uint32_t to) const {
  return SimTime::from_ns(
      pair_lookahead_ns_.at(static_cast<std::size_t>(from) *
                                num_partitions() + to));
}

void ParallelEngine::set_pair_lookahead(std::uint32_t from, std::uint32_t to,
                                        SimTime min_delay) {
  if (from >= num_partitions() || to >= num_partitions()) {
    throw std::invalid_argument("set_pair_lookahead: partition out of range");
  }
  if (min_delay < config_.lookahead) {
    throw std::invalid_argument(
        "set_pair_lookahead: pair lookahead below the engine's global "
        "lookahead (" + min_delay.to_string() + " < " +
        config_.lookahead.to_string() + ")");
  }
  pair_lookahead_ns_[static_cast<std::size_t>(from) * num_partitions() + to] =
      min_delay.ns();
  pair_reach_dirty_ = true;
}

void ParallelEngine::recompute_pair_reach() {
  const std::size_t P = num_partitions();
  // Seed with the direct channels only: the diagonal starts at "never"
  // (there is no zero-cost self channel), so after relaxation it holds the
  // shortest round-trip cycle through each partition — the earliest a
  // partition's own pending events could echo back into its inbox.
  pair_reach_ns_.assign(P * P, kNeverNs);
  for (std::size_t a = 0; a < P; ++a) {
    for (std::size_t b = 0; b < P; ++b) {
      if (a != b) pair_reach_ns_[a * P + b] = pair_lookahead_ns_[a * P + b];
    }
  }
  for (std::size_t k = 0; k < P; ++k) {
    for (std::size_t a = 0; a < P; ++a) {
      const std::int64_t ak = pair_reach_ns_[a * P + k];
      if (ak == kNeverNs) continue;
      for (std::size_t b = 0; b < P; ++b) {
        const std::int64_t kb = pair_reach_ns_[k * P + b];
        if (kb == kNeverNs) continue;
        const std::int64_t via = saturating_add(ak, kb);
        if (via < pair_reach_ns_[a * P + b]) pair_reach_ns_[a * P + b] = via;
      }
    }
  }
  pair_reach_dirty_ = false;
}

void ParallelEngine::set_telemetry(telemetry::Registry* registry) {
  telemetry_ = registry;
  sync_wait_ns_.clear();
  window_advance_ = nullptr;
  if (registry == nullptr) {
    for (auto& p : partitions_) p->set_telemetry(nullptr, nullptr, nullptr);
    return;
  }
  auto* rounds = registry->counter("pdes.sync_rounds");
  auto* crossings = registry->counter("pdes.cross_messages");
  auto* executed = registry->counter("pdes.events_executed");
  auto* overhead = registry->counter("pdes.modeled_overhead_us");
  registry->add_flusher([this, rounds, crossings, executed, overhead] {
    rounds->set(stats_.sync_rounds);
    crossings->set(stats_.cross_messages);
    std::uint64_t events = 0;
    for (auto& p : partitions_) events += p->sim().events_executed();
    executed->set(events);
    overhead->set(
        static_cast<std::uint64_t>(stats_.modeled_overhead_seconds * 1e6));
  });
  window_advance_ = registry->histogram("pdes.window_advance_ns");
  sync_wait_ns_.reserve(partitions_.size());
  for (std::uint32_t i = 0; i < num_partitions(); ++i) {
    const std::string prefix = "pdes.p" + std::to_string(i);
    partitions_[i]->sim().set_telemetry(registry, prefix);
    partitions_[i]->set_telemetry(
        registry, registry->gauge(prefix + ".inbox_high_water"),
        registry->counter(prefix + ".inbox_drained"));
    sync_wait_ns_.push_back(registry->counter(prefix + ".sync_wait_ns"));
  }
}

void ParallelEngine::send_cross(std::uint32_t from, std::uint32_t to,
                                SimTime deliver_at, std::uint64_t key,
                                EventFn&& fn) {
  Partition& src = *partitions_.at(from);
  const std::int64_t pair_ns =
      pair_lookahead_ns_.at(static_cast<std::size_t>(from) * num_partitions() +
                            to);
  if (pair_ns == kNeverNs ||
      deliver_at.ns() < saturating_add(src.sim().now().ns(), pair_ns)) {
    throw std::logic_error(
        "send_cross: delivery violates lookahead (deliver_at=" +
        deliver_at.to_string() + ", now=" + src.sim().now().to_string() +
        ", pair lookahead=" +
        (pair_ns == kNeverNs ? std::string("infinite (no channel)")
                             : SimTime::from_ns(pair_ns).to_string()) +
        ")");
  }
  partitions_.at(to)->post(from, deliver_at, key, std::move(fn));
}

void ParallelEngine::spin_overhead(double microseconds) {
  if (microseconds <= 0.0) return;
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::duration<double, std::micro>(microseconds);
  while (std::chrono::steady_clock::now() - start < budget) {
    // Busy-wait: models a blocking MPI collective on the critical path.
  }
  stats_.modeled_overhead_seconds += microseconds / 1e6;
}

void ParallelEngine::run_until(SimTime end) {
  const std::uint32_t P = num_partitions();
  const bool per_pair = config_.window_mode == WindowMode::per_pair;
  if (per_pair && pair_reach_dirty_) recompute_pair_reach();

  // Published by each partition before the window barrier, read by every
  // partition after it (the barrier orders the accesses).
  std::vector<std::int64_t> next_ns(P, kNeverNs);
  std::vector<std::uint64_t> drained(P, 0);
  SimTime global_window_end;
  bool done = false;

  auto on_window_computed = [&]() noexcept {
    // Runs on the last partition to arrive while the others wait: decides
    // run termination (and, in global mode, the shared window) and models
    // the MPI synchronization cost. Every message is drained at the top of
    // the round after its send, so the drains count the last window's.
    const std::int64_t next = *std::min_element(next_ns.begin(), next_ns.end());
    if (next == kNeverNs || SimTime::from_ns(next) >= end) {
      done = true;
    } else if (!per_pair) {
      global_window_end = SimTime::from_ns(next) + config_.lookahead;
      if (global_window_end > end) global_window_end = end;
    }
    std::uint64_t msgs = 0;
    for (const std::uint64_t n : drained) msgs += n;
    stats_.cross_messages += msgs;
    telemetry::trace_instant("pdes.sync_round",
                             static_cast<std::int64_t>(msgs));
    // The terminating round executes no window: a real MPI run would not
    // pay a collective there, so charging it would inflate the modeled
    // overhead by one round per run_until call (Figure 1's denominator).
    if (!done) {
      ++stats_.sync_rounds;
      spin_overhead(config_.round_overhead_us +
                    config_.per_message_overhead_us *
                        static_cast<double>(msgs));
    }
  };

  // One barrier, crossed twice per round: before the window (with the
  // window step) and after it. It is the engine's only synchronization:
  // no partition drains a mailbox while its source still posts into it,
  // and no source posts while the destination drains.
  RoundBarrier barrier{P};

  // Each worker's error and wall time at the barriers; read after join.
  std::vector<std::exception_ptr> errors(P);
  std::vector<std::uint64_t> waited_ns(P, 0);

  telemetry::Counter* const* wait_counters =
      sync_wait_ns_.size() == P ? sync_wait_ns_.data() : nullptr;

  auto worker = [&](std::uint32_t idx) {
    Partition& part = *partitions_[idx];
    if (auto* trace = telemetry::TraceSession::active()) {
      trace->set_thread_name("partition " + std::to_string(idx));
    }
    std::uint64_t waited_total = 0;
    auto sync = [&](auto&& step) {
      const auto wait_start = std::chrono::steady_clock::now();
      barrier.arrive_and_wait(step);
      const auto waited = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count());
      waited_total += waited;
      if (wait_counters != nullptr) wait_counters[idx]->inc(waited);
    };
    bool failed = false;
    for (;;) {
      std::int64_t local_next = kNeverNs;
      std::uint64_t local_drained = 0;
      if (!failed) {
        try {
          local_drained = part.drain_inbox();
          if (part.sim().events_pending() > 0) {
            local_next = part.sim().next_event_time().ns();
          }
        } catch (...) {
          errors[idx] = std::current_exception();
          failed = true;
        }
      }
      // A failed partition reports "never" so the run winds down without
      // deadlocking the barrier.
      next_ns[idx] = local_next;
      drained[idx] = local_drained;
      sync(on_window_computed);
      if (done) break;
      if (!failed) {
        try {
          SimTime window_end = end;
          if (per_pair) {
            // This partition's private horizon: nothing can arrive before
            // next_ns[j] + D[j][idx] for any j, where D is the closed
            // lookahead matrix — chains through idle partitions and
            // round-trips of idx's own events included (DESIGN.md §10).
            // Unreachable pairs and idle partitions do not constrain it.
            for (std::uint32_t j = 0; j < P; ++j) {
              if (next_ns[j] == kNeverNs) continue;
              const std::int64_t lah =
                  pair_reach_ns_[static_cast<std::size_t>(j) * P + idx];
              if (lah == kNeverNs) continue;
              const std::int64_t bound = saturating_add(next_ns[j], lah);
              if (bound < window_end.ns()) window_end = SimTime::from_ns(bound);
            }
          } else {
            window_end = global_window_end;
          }
          telemetry::Span window_span{"pdes.window"};
          const std::int64_t before = part.sim().now().ns();
          part.sim().run_until(window_end);
          if (window_advance_ != nullptr && window_end.ns() > before) {
            window_advance_->record(
                static_cast<std::uint64_t>(window_end.ns() - before));
          }
        } catch (...) {
          errors[idx] = std::current_exception();
          failed = true;
        }
      }
      sync([] {});
    }
    waited_ns[idx] = waited_total;
    if (!failed) {
      // Advance the clock to the requested end for a consistent epilogue.
      part.sim().run_until(end);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(P);
  for (std::uint32_t i = 0; i < P; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();

  stats_.events_executed = 0;
  for (auto& p : partitions_) {
    stats_.events_executed += p->sim().events_executed();
  }
  for (const std::uint64_t ns : waited_ns) sync_wait_ns_total_ += ns;
  stats_.sync_wait_seconds = static_cast<double>(sync_wait_ns_total_) / 1e9;

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace esim::sim
