// Span log and small helpers shared by the run and compare modes.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "benchmark.h"

namespace esim::bench {

namespace {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

int SpanLog::open(std::string name) {
  SpanRecord s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  // ScopedSpan closes in nesting order, also while unwinding; popping
  // down to `id` keeps the log well-formed without throwing from a
  // destructor.
  const std::int64_t end = now_ns();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    spans_[static_cast<std::size_t>(top)].end_ns = end;
    if (top == id) break;
  }
}

telemetry::Json SpanLog::chrome_json() const {
  telemetry::Json events = telemetry::Json::array();
  for (const SpanRecord& s : spans_) {
    if (s.end_ns < 0) continue;
    telemetry::Json e = telemetry::Json::object();
    e["name"] = s.name;
    e["cat"] = layer_of(s.name);
    e["ph"] = "X";
    e["ts"] = static_cast<double>(s.start_ns) * 1e-3;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    e["pid"] = 1;
    e["tid"] = 1;
    e["args"]["parent"] =
        s.parent < 0 ? std::string{}
                     : spans_[static_cast<std::size_t>(s.parent)].name;
    events.push_back(std::move(e));
  }
  telemetry::Json doc = telemetry::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

telemetry::Json SpanLog::self_time_table() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns < 0) continue;
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> by_span, by_layer;
  std::int64_t self_sum = 0, root_ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (s.parent < 0) root_ns += s.end_ns - s.start_ns;
    for (Row* r : {&by_span[s.name], &by_layer[layer_of(s.name)]}) {
      ++r->count;
      r->total_ns += s.end_ns - s.start_ns;
      r->self_ns += self[i];
    }
    self_sum += self[i];
  }
  const auto rows = [root_ns](const std::map<std::string, Row>& m) {
    std::vector<std::pair<std::string, Row>> v(m.begin(), m.end());
    std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.second.self_ns > b.second.self_ns;
    });
    telemetry::Json out = telemetry::Json::array();
    for (const auto& [name, r] : v) {
      telemetry::Json row = telemetry::Json::object();
      row["name"] = name;
      row["count"] = r.count;
      row["total_s"] = static_cast<double>(r.total_ns) * 1e-9;
      row["self_s"] = static_cast<double>(r.self_ns) * 1e-9;
      row["self_share"] = root_ns > 0 ? static_cast<double>(r.self_ns) /
                                            static_cast<double>(root_ns)
                                      : 0.0;
      out.push_back(std::move(row));
    }
    return out;
  };
  telemetry::Json t = telemetry::Json::object();
  t["root_s"] = static_cast<double>(root_ns) * 1e-9;
  t["self_sum_s"] = static_cast<double>(self_sum) * 1e-9;
  t["by_span"] = rows(by_span);
  t["by_layer"] = rows(by_layer);
  return t;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 1) return {xs[0], xs[0], xs[0]};
  // Python statistics.quantiles(xs, n=4, method="exclusive").
  const auto cut = [&xs, n](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

std::uint64_t hash_doubles(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : xs) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof x);
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

telemetry::Json load_json(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto doc = telemetry::Json::parse(text.str());
  if (!doc) throw std::runtime_error(path + ": not valid JSON");
  return std::move(*doc);
}

}  // namespace esim::bench
