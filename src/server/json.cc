#include "server/json.h"

#include <cctype>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace mad {
namespace server {

const Json& Json::At(const std::string& key) const {
  static const Json missing;
  if (!is_object()) return missing;
  auto it = obj.find(key);
  return it == obj.end() ? missing : it->second;
}

int64_t Json::AsInt() const {
  if (kind == Kind::kInt) return integer;
  // 2^63 is exact as a double; every double below it (and at or above
  // -2^63) converts without overflow.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(number)) return 0;
  if (number >= kTwo63) return std::numeric_limits<int64_t>::max();
  if (number < -kTwo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(number);
}

int64_t Json::IntOr(const std::string& key, int64_t fallback) const {
  const Json& v = At(key);
  return v.is_number() ? v.AsInt() : fallback;
}

std::string Json::StrOr(const std::string& key,
                        const std::string& fallback) const {
  const Json& v = At(key);
  return v.is_string() ? v.str : fallback;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrPrintf("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void DumpTo(const Json& j, std::string* out) {
  switch (j.kind) {
    case Json::Kind::kNull:
      *out += "null";
      return;
    case Json::Kind::kBool:
      *out += j.boolean ? "true" : "false";
      return;
    case Json::Kind::kInt:
      *out += StrPrintf("%lld", static_cast<long long>(j.integer));
      return;
    case Json::Kind::kDouble:
      if (std::isfinite(j.number)) {
        *out += StrPrintf("%.17g", j.number);
      } else {
        // JSON has no infinity; the cost domains do (±∞ bounds). Encode as
        // strings, matching Value::ToString's "inf"/"-inf" spelling.
        AppendJsonString(out, j.number > 0 ? "inf" : "-inf");
      }
      return;
    case Json::Kind::kString:
      AppendJsonString(out, j.str);
      return;
    case Json::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& e : j.arr) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(e, out);
      }
      out->push_back(']');
      return;
    }
    case Json::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : j.obj) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(out, k);
        out->push_back(':');
        DumpTo(v, out);
      }
      out->push_back('}');
      return;
    }
  }
}

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::optional<Json> Parse() {
    std::optional<Json> v = Value(0);
    Skip();
    if (!v.has_value() || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void Skip() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    Skip();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool EatWord(std::string_view w) {
    Skip();
    if (text_.compare(pos_, w.size(), w) == 0) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  std::optional<Json> Value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    Skip();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    if (c == '{') return ObjectValue(depth);
    if (c == '[') return ArrayValue(depth);
    if (c == '"') return StringValue();
    if (EatWord("true")) return Json::Bool(true);
    if (EatWord("false")) return Json::Bool(false);
    if (EatWord("null")) return Json::Null();
    return NumberValue();
  }

  std::optional<Json> ObjectValue(int depth) {
    if (!Eat('{')) return std::nullopt;
    Json j = Json::Object();
    Skip();
    if (Eat('}')) return j;
    while (true) {
      std::optional<Json> key = StringValue();
      if (!key.has_value() || !Eat(':')) return std::nullopt;
      std::optional<Json> val = Value(depth + 1);
      if (!val.has_value()) return std::nullopt;
      j.obj[key->str] = std::move(*val);
      if (Eat(',')) continue;
      if (Eat('}')) return j;
      return std::nullopt;
    }
  }

  std::optional<Json> ArrayValue(int depth) {
    if (!Eat('[')) return std::nullopt;
    Json j = Json::Array();
    Skip();
    if (Eat(']')) return j;
    while (true) {
      std::optional<Json> val = Value(depth + 1);
      if (!val.has_value()) return std::nullopt;
      j.arr.push_back(std::move(*val));
      if (Eat(',')) continue;
      if (Eat(']')) return j;
      return std::nullopt;
    }
  }

  std::optional<Json> StringValue() {
    Skip();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    Json j;
    j.kind = Json::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        j.str += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          j.str += esc;
          break;
        case 'n':
          j.str += '\n';
          break;
        case 'r':
          j.str += '\r';
          break;
        case 't':
          j.str += '\t';
          break;
        case 'b':
          j.str += '\b';
          break;
        case 'f':
          j.str += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + i];
            int digit;
            if (h >= '0' && h <= '9') {
              digit = h - '0';
            } else if (h >= 'a' && h <= 'f') {
              digit = h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              digit = h - 'A' + 10;
            } else {
              return std::nullopt;
            }
            code = code * 16 + digit;
          }
          pos_ += 4;
          // The emitter only \u-escapes control bytes; decode those and map
          // anything wider to '?' rather than growing a UTF-8 encoder.
          j.str += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return std::nullopt;
      }
    }
    if (pos_ >= text_.size()) return std::nullopt;
    ++pos_;
    return j;
  }

  std::optional<Json> NumberValue() {
    Skip();
    size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return std::nullopt;
    const std::string lexeme(text_.substr(start, pos_ - start));
    try {
      if (integral) {
        return Json::Int(std::stoll(lexeme));
      }
      return Json::Double(std::stod(lexeme));
    } catch (...) {
      return std::nullopt;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

std::optional<Json> ParseJson(std::string_view text) {
  return Reader(text).Parse();
}

}  // namespace server
}  // namespace mad
