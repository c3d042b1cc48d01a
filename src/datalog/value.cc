#include "datalog/value.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "util/string_util.h"

namespace mad {
namespace datalog {

// ---------------------------------------------------------------------------
// SymbolTable
// ---------------------------------------------------------------------------

struct SymbolTable::Impl {
  mutable std::mutex mu;
  // deque keeps string addresses stable as the table grows.
  std::deque<std::string> names;
  std::unordered_map<std::string_view, uint32_t> ids;
};

SymbolTable& SymbolTable::Global() {
  static SymbolTable table;
  return table;
}

SymbolTable::Impl& SymbolTable::impl() const {
  static Impl impl;
  return impl;
}

uint32_t SymbolTable::Intern(std::string_view name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  auto it = i.ids.find(name);
  if (it != i.ids.end()) return it->second;
  i.names.emplace_back(name);
  uint32_t id = static_cast<uint32_t>(i.names.size() - 1);
  i.ids.emplace(std::string_view(i.names.back()), id);
  return id;
}

std::string_view SymbolTable::NameOf(uint32_t id) const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  assert(id < i.names.size());
  return i.names[id];
}

size_t SymbolTable::size() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.names.size();
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

Value Value::Symbol(std::string_view name) {
  return SymbolId(SymbolTable::Global().Intern(name));
}

Value Value::Set(ValueSet elems) {
  std::sort(elems.begin(), elems.end());
  elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
  Value v;
  v.kind_ = Kind::kSet;
  v.int_ = 0;
  v.set_ = std::make_shared<const ValueSet>(std::move(elems));
  return v;
}

Value Value::SetShared(std::shared_ptr<const ValueSet> set) {
  Value v;
  v.kind_ = Kind::kSet;
  v.int_ = 0;
  v.set_ = std::move(set);
  return v;
}

std::string_view Value::symbol_name() const {
  return SymbolTable::Global().NameOf(symbol_id());
}

bool Value::SetEquals(const Value& other) const {
  return set_ == other.set_ || *set_ == *other.set_;
}

bool Value::operator<(const Value& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_;
  switch (kind_) {
    case Kind::kNone:
      return false;
    case Kind::kSymbol:
    case Kind::kInt:
    case Kind::kBool:
      return int_ < other.int_;
    case Kind::kDouble:
      return double_ < other.double_;
    case Kind::kSet:
      return std::lexicographical_compare(set_->begin(), set_->end(),
                                          other.set_->begin(),
                                          other.set_->end());
  }
  return false;
}

uint64_t Value::SetHash() const {
  size_t seed = 0xabcdef12u ^ set_->size();
  for (const Value& v : *set_) HashCombine(&seed, v.Hash());
  return seed;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNone:
      return "<none>";
    case Kind::kSymbol:
      return std::string(symbol_name());
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble:
      return FormatDouble(double_);
    case Kind::kBool:
      return int_ ? "true" : "false";
    case Kind::kSet: {
      std::string out = "{";
      for (size_t i = 0; i < set_->size(); ++i) {
        if (i > 0) out += ", ";
        out += (*set_)[i].ToString();
      }
      out += "}";
      return out;
    }
  }
  return "<?>";
}

int Value::NumericCompare(const Value& a, const Value& b) {
  assert((a.is_numeric() || a.is_bool()) && (b.is_numeric() || b.is_bool()));
  if (a.is_int() && b.is_int()) {
    if (a.int_value() < b.int_value()) return -1;
    if (a.int_value() > b.int_value()) return 1;
    return 0;
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

std::string TupleToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += t[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace datalog
}  // namespace mad
