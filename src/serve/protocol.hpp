// Line-delimited JSON wire protocol for the exploration service.
//
// One JSON object per line in each direction; no external JSON dependency,
// so this is a deliberately small value type covering exactly the subset
// the protocol needs (null, bool, int64, double, string, array, object)
// with a recursion-depth guard on the parser.  Numbers without '.', 'e'
// or 'E' parse as Int, everything else as Double; object member order is
// preserved for stable golden output.
//
// The request/response grammar itself is documented in DESIGN.md §15.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aspmt::serve {

class Json {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Int, Double, String, Array, Object };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}  // NOLINT
  Json(std::int64_t i) : kind_(Kind::Int), int_(i) {}  // NOLINT
  Json(int i) : kind_(Kind::Int), int_(i) {}  // NOLINT
  Json(std::size_t u)  // NOLINT
      : kind_(Kind::Int), int_(static_cast<std::int64_t>(u)) {}
  Json(double d) : kind_(Kind::Double), double_(d) {}  // NOLINT
  Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::String), string_(s) {}  // NOLINT

  [[nodiscard]] static Json array() {
    Json j;
    j.kind_ = Kind::Array;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.kind_ = Kind::Object;
    return j;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::Object;
  }

  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
    return kind_ == Kind::Bool ? bool_ : fallback;
  }
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const noexcept {
    if (kind_ == Kind::Int) return int_;
    if (kind_ == Kind::Double) return static_cast<std::int64_t>(double_);
    return fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
    if (kind_ == Kind::Double) return double_;
    if (kind_ == Kind::Int) return static_cast<double>(int_);
    return fallback;
  }
  [[nodiscard]] const std::string& as_string() const noexcept {
    static const std::string kEmpty;
    return kind_ == Kind::String ? string_ : kEmpty;
  }

  [[nodiscard]] const std::vector<Json>& items() const noexcept {
    return array_;
  }
  std::vector<Json>& items() noexcept { return array_; }
  void push_back(Json v) {
    kind_ = Kind::Array;
    array_.push_back(std::move(v));
  }

  /// Object member access; get() returns null for a missing key.
  void set(std::string key, Json value);
  [[nodiscard]] const Json& get(std::string_view key) const noexcept;
  [[nodiscard]] bool has(std::string_view key) const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const noexcept {
    return object_;
  }

  /// Compact single-line serialization (never emits raw newlines: they are
  /// escaped inside strings, so one value is always one protocol line).
  [[nodiscard]] std::string dump() const;

  /// Parse one JSON value.  Returns "" and fills `out` on success, a
  /// diagnostic otherwise.  Trailing garbage after the value is an error.
  [[nodiscard]] static std::string parse(std::string_view text, Json& out);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace aspmt::serve
