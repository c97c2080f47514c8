// Minimal JSON document model for telemetry artifacts.
//
// Every machine-readable file this repo emits (run reports, Chrome traces,
// BENCH_*.json) goes through this one writer so escaping, number
// formatting, and key ordering are uniform and diffable. The parser exists
// so tests (and report-diff tooling) can load what was written; it handles
// the full JSON grammar but is tuned for trusted, repo-generated input,
// not hostile documents.
//
// Objects preserve insertion order (reports diff cleanly run-to-run), and
// lookups are linear — fine for the small objects telemetry produces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace esim::telemetry {

/// One JSON value: null, bool, number (int64/uint64/double), string,
/// array, or insertion-ordered object.
class Json {
 public:
  enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

  Json() : kind_{Kind::Null} {}
  Json(std::nullptr_t) : kind_{Kind::Null} {}  // NOLINT(runtime/explicit)
  Json(bool b) : kind_{Kind::Bool}, bool_{b} {}  // NOLINT(runtime/explicit)
  Json(int v) : kind_{Kind::Int}, int_{v} {}     // NOLINT(runtime/explicit)
  Json(std::int64_t v) : kind_{Kind::Int}, int_{v} {}  // NOLINT
  Json(std::uint64_t v) : kind_{Kind::Uint}, uint_{v} {}  // NOLINT
  Json(double v) : kind_{Kind::Double}, double_{v} {}     // NOLINT
  Json(const char* s) : kind_{Kind::String}, string_{s} {}  // NOLINT
  Json(std::string s)  // NOLINT(runtime/explicit)
      : kind_{Kind::String}, string_{std::move(s)} {}

  /// Explicit factories for the container kinds.
  static Json array() { return Json{Kind::Array}; }
  static Json object() { return Json{Kind::Object}; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const { return bool_; }
  /// Numeric access with cross-kind conversion (Int/Uint/Double).
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const { return string_; }

  /// Array element count or object member count (0 for scalars).
  std::size_t size() const;

  /// Array access. Requires is_array() and i < size().
  const Json& at(std::size_t i) const { return items_[i]; }

  /// Appends to an array (converts a Null value into an empty array).
  void push_back(Json v);

  /// Object member access; inserts a Null member if absent (converts a
  /// Null value into an empty object so `doc["a"]["b"] = 1` just works).
  Json& operator[](std::string_view key);

  /// Read-only member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;

  /// True when the object has `key`.
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  /// Object members in insertion order.
  const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }

  /// Serializes. `indent` > 0 pretty-prints with that many spaces per
  /// level; 0 emits the compact one-line form.
  std::string dump(int indent = 2) const;

  /// Parses a complete JSON document; nullopt on any syntax error.
  static std::optional<Json> parse(std::string_view text);

 private:
  explicit Json(Kind k) : kind_{k} {}

  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace esim::telemetry
