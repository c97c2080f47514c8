#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace esim::telemetry {

std::atomic<TraceSession*> TraceSession::active_{nullptr};

namespace {

// Per-thread buffer cache, keyed by a process-unique session id (not the
// session pointer, which a later session could reuse) so a thread that
// outlives one session re-registers with the next.
thread_local std::uint64_t t_session_id = 0;
thread_local TraceBuffer* t_buffer = nullptr;

std::atomic<std::uint64_t> next_session_id{1};

}  // namespace

std::vector<TraceEvent> TraceBuffer::drain() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest retained event sits at head_ once the ring has wrapped.
  const std::size_t start = count_ < ring_.size() ? 0 : head_;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

TraceSession::TraceSession() : TraceSession(Config{}) {}

TraceSession::TraceSession(Config config)
    : config_{config},
      id_{next_session_id.fetch_add(1, std::memory_order_relaxed)},
      epoch_{std::chrono::steady_clock::now()} {
  if (config_.events_per_thread == 0) {
    throw std::invalid_argument("TraceSession: events_per_thread must be > 0");
  }
}

TraceSession::~TraceSession() { stop(); }

void TraceSession::start() {
  TraceSession* expected = nullptr;
  if (!active_.compare_exchange_strong(expected, this,
                                       std::memory_order_acq_rel)) {
    if (expected == this) return;
    throw std::logic_error("TraceSession: another session is already active");
  }
}

void TraceSession::stop() {
  TraceSession* expected = this;
  active_.compare_exchange_strong(expected, nullptr,
                                  std::memory_order_acq_rel);
}

std::int64_t TraceSession::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceBuffer* TraceSession::this_thread_buffer() {
  if (t_session_id == id_) return t_buffer;
  std::lock_guard lock{mu_};
  buffers_.emplace_back(config_.events_per_thread,
                        static_cast<std::uint32_t>(buffers_.size()));
  t_session_id = id_;
  t_buffer = &buffers_.back();
  return t_buffer;
}

void TraceSession::complete(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t arg) {
  this_thread_buffer()->push(name, start_ns,
                             end_ns >= start_ns ? end_ns - start_ns : 0, arg);
}

void TraceSession::instant(const char* name, std::int64_t arg) {
  this_thread_buffer()->push(name, now_ns(), -1, arg);
}

void TraceSession::set_thread_name(const std::string& name) {
  const std::uint32_t tid = this_thread_buffer()->tid();
  std::lock_guard lock{mu_};
  thread_names_.emplace_back(tid, name);
}

std::uint64_t TraceSession::overwritten() const {
  std::lock_guard lock{mu_};
  std::uint64_t total = 0;
  for (const auto& b : buffers_) total += b.overwritten();
  return total;
}

Json TraceSession::chrome_trace() const {
  std::vector<TraceEvent> events;
  std::vector<std::pair<std::uint32_t, std::string>> names;
  {
    std::lock_guard lock{mu_};
    for (const auto& b : buffers_) {
      auto part = b.drain();
      events.insert(events.end(), part.begin(), part.end());
    }
    names = thread_names_;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });

  Json doc = Json::object();
  Json list = Json::array();
  for (const auto& [tid, name] : names) {
    Json meta = Json::object();
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = 0;
    meta["tid"] = static_cast<std::int64_t>(tid);
    meta["args"]["name"] = name;
    list.push_back(std::move(meta));
  }
  for (const TraceEvent& e : events) {
    Json ev = Json::object();
    ev["name"] = e.name;
    ev["ph"] = e.dur_ns >= 0 ? "X" : "i";
    ev["pid"] = 0;
    ev["tid"] = static_cast<std::int64_t>(e.tid);
    ev["ts"] = static_cast<double>(e.start_ns) / 1e3;  // microseconds
    if (e.dur_ns >= 0) {
      ev["dur"] = static_cast<double>(e.dur_ns) / 1e3;
    } else {
      ev["s"] = "t";  // instant scope: thread
    }
    if (e.arg != TraceEvent::kNoArg) ev["args"]["v"] = e.arg;
    list.push_back(std::move(ev));
  }
  doc["traceEvents"] = std::move(list);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

bool TraceSession::write_chrome_json(const std::string& path) const {
  const std::string text = chrome_trace().dump(1);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace esim::telemetry
