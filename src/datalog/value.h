#ifndef MAD_DATALOG_VALUE_H_
#define MAD_DATALOG_VALUE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace mad {
namespace datalog {

class Value;

/// Immutable, sorted, duplicate-free set of values. Set-valued costs are what
/// Figure 1's `union` / `intersection` rows aggregate over.
using ValueSet = std::vector<Value>;

/// The runtime value of a ground term: an interned symbol, a 64-bit integer,
/// a double, a boolean, or a finite set of values.
///
/// Values are 32 bytes (a kind tag, an 8-byte payload and the shared_ptr
/// handle of an optional set payload), cheaply copyable, totally ordered (by kind, then payload) so they can serve as
/// hash/tree keys, and hash-consistent with operator==.
///
/// NOTE: Value's total order is a *representation* order used for indexing;
/// the semantic cost order (⊑ of the paper) always comes from a
/// lattice::CostDomain and may be the dual of the numeric order (Example 3.1).
class Value {
 public:
  enum class Kind : uint8_t {
    kNone = 0,   ///< default-constructed placeholder; never stored in a DB
    kSymbol = 1,
    kInt = 2,
    kDouble = 3,
    kBool = 4,
    kSet = 5,
  };

  Value() : kind_(Kind::kNone), int_(0) {}

  /// Interns `name` and returns the symbol value for it.
  static Value Symbol(std::string_view name);
  /// Builds a symbol value from an already-interned id.
  static Value SymbolId(uint32_t id) {
    Value v;
    v.kind_ = Kind::kSymbol;
    v.int_ = id;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.kind_ = Kind::kInt;
    v.int_ = i;
    return v;
  }
  static Value Real(double d) {
    Value v;
    v.kind_ = Kind::kDouble;
    v.double_ = d;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.kind_ = Kind::kBool;
    v.int_ = b ? 1 : 0;
    return v;
  }
  /// Sorts and dedupes `elems` into a set value.
  static Value Set(ValueSet elems);
  /// Wraps an already-normalized (sorted, unique) set without copying.
  static Value SetShared(std::shared_ptr<const ValueSet> set);

  Kind kind() const { return kind_; }
  bool is_none() const { return kind_ == Kind::kNone; }
  bool is_symbol() const { return kind_ == Kind::kSymbol; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_set() const { return kind_ == Kind::kSet; }

  uint32_t symbol_id() const { return static_cast<uint32_t>(int_); }
  /// Name of the interned symbol (valid for the process lifetime).
  std::string_view symbol_name() const;
  int64_t int_value() const { return int_; }
  double double_value() const { return double_; }
  bool bool_value() const { return int_ != 0; }
  const ValueSet& set_value() const { return *set_; }
  const std::shared_ptr<const ValueSet>& set_ptr() const { return set_; }

  /// Numeric payload as double; valid for kInt/kDouble/kBool.
  double AsDouble() const {
    return kind_ == Kind::kDouble ? double_ : static_cast<double>(int_);
  }

  bool operator==(const Value& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case Kind::kDouble:
        return double_ == other.double_;
      case Kind::kSet:
        return SetEquals(other);
      default:
        return kind_ == Kind::kNone || int_ == other.int_;
    }
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Representation order: kind first, payload second.
  bool operator<(const Value& other) const;

  size_t Hash() const {
    uint64_t h = HashMix64(static_cast<uint64_t>(kind_));
    switch (kind_) {
      case Kind::kNone:
        return static_cast<size_t>(h);
      case Kind::kDouble: {
        // Normalize -0.0 to +0.0 so x == y implies Hash(x) == Hash(y).
        double d = double_ == 0.0 ? 0.0 : double_;
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        return static_cast<size_t>(HashMix64(h ^ bits));
      }
      case Kind::kSet:
        return static_cast<size_t>(HashMix64(h ^ SetHash()));
      default:
        return static_cast<size_t>(
            HashMix64(h ^ static_cast<uint64_t>(int_)));
    }
  }

  /// Human-readable form: symbols print their name, sets print "{a, b}".
  std::string ToString() const;

  /// Numeric comparison across kInt/kDouble (and kBool as 0/1).
  /// Returns -1, 0, 1. Both values must be numeric or boolean.
  static int NumericCompare(const Value& a, const Value& b);

 private:
  bool SetEquals(const Value& other) const;
  uint64_t SetHash() const;

  Kind kind_;
  union {
    int64_t int_;
    double double_;
  };
  std::shared_ptr<const ValueSet> set_;
};

static_assert(sizeof(Value) == 32,
              "Value is a tag, an 8-byte payload and a shared_ptr handle");

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

/// Process-wide symbol interner. Symbol ids are dense and stable for the
/// process lifetime, which lets a symbol Value carry a 4-byte id instead of a
/// string and makes joins compare integers rather than strings (the standard Datalog-engine trick).
class SymbolTable {
 public:
  static SymbolTable& Global();

  /// Returns the id for `name`, interning it if new.
  uint32_t Intern(std::string_view name);
  /// Name for an id; the reference is valid for the process lifetime.
  std::string_view NameOf(uint32_t id) const;
  size_t size() const;

 private:
  SymbolTable() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace datalog
}  // namespace mad

namespace std {
template <>
struct hash<mad::datalog::Value> {
  size_t operator()(const mad::datalog::Value& v) const { return v.Hash(); }
};
}  // namespace std

namespace mad {
namespace datalog {

/// A tuple of ground values; the key of a fact (all non-cost arguments).
using Tuple = std::vector<Value>;

/// Hash of `n` contiguous values, combined in order. TupleHash and the
/// relation indexes share it, so a stored key and a probe tuple hash alike.
inline size_t HashValues(const Value* vals, size_t n) {
  size_t seed = 0x12345678u ^ n;
  for (size_t i = 0; i < n; ++i) HashCombine(&seed, vals[i].Hash());
  return seed;
}

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    return HashValues(t.data(), t.size());
  }
};

/// Renders "(a, b, 3)".
std::string TupleToString(const Tuple& t);

}  // namespace datalog
}  // namespace mad

#endif  // MAD_DATALOG_VALUE_H_
