// Trace emission: spans and instants recorded into lock-free per-thread
// ring buffers and serialized as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// One TraceSession may be active per process (PDES sync rounds happen on
// worker threads the engine creates per run, so session discovery has to
// be ambient, exactly like Chrome's). Call sites pay one relaxed atomic
// load when no session is active:
//
//   if (telemetry::TraceSession::active()) { ... }        // manual
//   telemetry::Span span{"approx.inference"};             // RAII span
//   telemetry::trace_instant("pdes.sync_round", msgs);    // instant
//
// Each thread records into its own fixed-capacity ring buffer (registered
// on first use; oldest events are overwritten on overflow and counted as
// dropped), so recording never takes a lock or allocates. Serialization
// happens after stop(), when no recorder can be running.
//
// Timestamps are wall-clock microseconds since the session started —
// tracing measures where *wall* time goes; virtual time belongs in event
// args. Recording never touches simulation state, so enabling tracing
// cannot change simulation outputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.h"

namespace esim::telemetry {

/// One recorded trace event (span or instant).
struct TraceEvent {
  const char* name = nullptr;  ///< static string
  std::int64_t start_ns = 0;   ///< since session start
  std::int64_t dur_ns = -1;    ///< -1 = instant, >= 0 = complete span
  std::int64_t arg = kNoArg;   ///< optional numeric payload
  std::uint32_t tid = 0;       ///< session-assigned thread index

  static constexpr std::int64_t kNoArg =
      std::int64_t{0x7fffffffffffffff};
};

/// Fixed-capacity single-writer ring buffer of TraceEvents.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity, std::uint32_t tid)
      : ring_(capacity), tid_{tid} {}

  void push(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
            std::int64_t arg) {
    TraceEvent& e = ring_[head_];
    e.name = name;
    e.start_ns = start_ns;
    e.dur_ns = dur_ns;
    e.arg = arg;
    e.tid = tid_;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (count_ < ring_.size()) {
      ++count_;
    } else {
      ++overwritten_;
    }
  }

  std::uint32_t tid() const { return tid_; }
  std::uint64_t overwritten() const { return overwritten_; }

  /// Copies the retained events in recording order. Only safe when the
  /// owning thread is quiescent (after TraceSession::stop()).
  std::vector<TraceEvent> drain() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint32_t tid_;
};

/// Process-wide trace recording session.
class TraceSession {
 public:
  struct Config {
    /// Events retained per recording thread before the ring wraps.
    std::size_t events_per_thread = 1 << 16;
  };

  TraceSession();
  explicit TraceSession(Config config);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The active session, or nullptr. One relaxed atomic load.
  static TraceSession* active() {
    return active_.load(std::memory_order_acquire);
  }

  /// Makes this session the active one. Throws if another is active.
  void start();

  /// Stops recording (active() returns nullptr afterwards). Events stay
  /// buffered for write_chrome_json(). Idempotent.
  void stop();

  /// Records a complete span on the calling thread's buffer.
  void complete(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::int64_t arg = TraceEvent::kNoArg);

  /// Records an instant event at now().
  void instant(const char* name, std::int64_t arg = TraceEvent::kNoArg);

  /// Nanoseconds since the session was constructed (steady clock).
  std::int64_t now_ns() const;

  /// Labels the calling thread ("partition 0", ...) in the trace.
  void set_thread_name(const std::string& name);

  /// Events overwritten across all buffers (ring wrap).
  std::uint64_t overwritten() const;

  /// Builds the Chrome trace-event document: events sorted by timestamp,
  /// phase "X" (spans) or "i" (instants), pid 0, session-assigned tids,
  /// plus thread_name metadata. Call after stop().
  Json chrome_trace() const;

  /// Serializes chrome_trace() to `path`. Returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  TraceBuffer* this_thread_buffer();

  static std::atomic<TraceSession*> active_;

  Config config_;
  std::uint64_t id_;  ///< process-unique; keys the thread-local cache
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<TraceBuffer> buffers_;  // deque: stable pointers
  std::vector<std::pair<std::uint32_t, std::string>> thread_names_;
};

/// RAII span: records [construction, destruction) on the active session.
/// `name` must outlive the session (a string literal).
class Span {
 public:
  explicit Span(const char* name, std::int64_t arg = TraceEvent::kNoArg)
      : session_{TraceSession::active()}, name_{name}, arg_{arg} {
    if (session_ != nullptr) start_ns_ = session_->now_ns();
  }

  ~Span() {
    if (session_ != nullptr) {
      session_->complete(name_, start_ns_, session_->now_ns(), arg_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceSession* session_;
  const char* name_;
  std::int64_t arg_;
  std::int64_t start_ns_ = 0;
};

/// Records an instant on the active session, if any.
inline void trace_instant(const char* name,
                          std::int64_t arg = TraceEvent::kNoArg) {
  if (TraceSession* s = TraceSession::active()) s->instant(name, arg);
}

}  // namespace esim::telemetry
