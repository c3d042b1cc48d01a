#ifndef MAD_SERVER_JSON_H_
#define MAD_SERVER_JSON_H_

// A minimal JSON value with a recursive-descent parser and a deterministic
// emitter — the whole wire vocabulary of the madd protocol. Hand-rolled like
// the lint JSON/SARIF renderers: the project takes no JSON dependency, and
// tests decode server output with the *independent* tests/json_lite.h reader
// to keep this emitter honest.
//
// Unlike json_lite, numbers remember whether their lexeme was integral: the
// protocol maps JSON integers to datalog Value::Int and everything else
// numeric to Value::Real, so the distinction must survive a round trip.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mad {
namespace server {

struct Json {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  int64_t integer = 0;
  double number = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;  // sorted keys => deterministic output

  static Json Null() { return Json{}; }
  static Json Bool(bool b) {
    Json j;
    j.kind = Kind::kBool;
    j.boolean = b;
    return j;
  }
  static Json Int(int64_t i) {
    Json j;
    j.kind = Kind::kInt;
    j.integer = i;
    j.number = static_cast<double>(i);
    return j;
  }
  static Json Double(double d) {
    Json j;
    j.kind = Kind::kDouble;
    j.number = d;
    return j;
  }
  static Json Str(std::string s) {
    Json j;
    j.kind = Kind::kString;
    j.str = std::move(s);
    return j;
  }
  static Json Array() {
    Json j;
    j.kind = Kind::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.kind = Kind::kObject;
    return j;
  }

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_int() const { return kind == Kind::kInt; }
  bool is_number() const { return kind == Kind::kInt || kind == Kind::kDouble; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Numeric payload regardless of int/double representation.
  double AsDouble() const {
    return kind == Kind::kInt ? static_cast<double>(integer) : number;
  }
  /// Numeric payload as an integer. Request fields are untrusted, so a
  /// double outside int64's range saturates to the nearest bound (NaN reads
  /// as 0) instead of hitting the undefined cast.
  int64_t AsInt() const;

  bool Has(const std::string& key) const {
    return is_object() && obj.count(key) > 0;
  }
  /// Member access; a shared null value when absent (or not an object).
  const Json& At(const std::string& key) const;
  /// Convenience accessors with defaults, for optional request fields.
  int64_t IntOr(const std::string& key, int64_t fallback) const;
  std::string StrOr(const std::string& key, const std::string& fallback) const;

  Json& Set(const std::string& key, Json value) {
    kind = Kind::kObject;
    obj[key] = std::move(value);
    return *this;
  }
  Json& Push(Json value) {
    kind = Kind::kArray;
    arr.push_back(std::move(value));
    return *this;
  }

  /// Compact single-line serialization (objects keyed in sorted order, so
  /// output is deterministic — tests golden-match frames).
  std::string Dump() const;
};

/// Appends a JSON string literal (quotes + escapes) to `out`.
void AppendJsonString(std::string* out, std::string_view s);

/// Parses one JSON document; std::nullopt on any syntax error or trailing
/// garbage. Depth-limited so hostile payloads cannot blow the stack.
std::optional<Json> ParseJson(std::string_view text);

}  // namespace server
}  // namespace mad

#endif  // MAD_SERVER_JSON_H_
