#ifndef MAD_CORE_EXECUTOR_H_
#define MAD_CORE_EXECUTOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/compiled_rule.h"
#include "datalog/database.h"
#include "util/resource_guard.h"

namespace mad {
namespace core {

using datalog::Database;
using datalog::KeyRef;
using datalog::Relation;
using datalog::Tuple;

/// A variable assignment over a compiled rule's slots. Reset() reuses the
/// vectors' capacity, so a long-lived Binding (one per executor) stops
/// allocating after the first few rules. The bound flags are bytes, not
/// std::vector<bool> bits: IsBound/Set/Clear sit on the innermost join loop
/// and a byte store beats a read-modify-write bit twiddle there.
class Binding {
 public:
  void Reset(int num_slots) {
    values_.assign(num_slots, Value());
    bound_.assign(num_slots, 0);
  }
  bool IsBound(int slot) const { return bound_[slot] != 0; }
  const Value& Get(int slot) const { return values_[slot]; }
  void Set(int slot, Value v) {
    values_[slot] = std::move(v);
    bound_[slot] = 1;
  }
  void Clear(int slot) {
    bound_[slot] = 0;
    values_[slot] = Value();
  }

 private:
  std::vector<Value> values_;
  std::vector<uint8_t> bound_;
};

/// One head derivation produced by a rule evaluation.
struct Derivation {
  const PredicateInfo* pred = nullptr;
  Tuple key;
  Value cost;  ///< normalized; unset for cost-free predicates
  int rule_index = -1;
};

/// Evaluates compiled rules against a database, emitting derivations into a
/// caller-supplied buffer. The executor never mutates the database — callers
/// merge the buffered derivations afterwards, which keeps relation scans and
/// inserts strictly phased (T_P reads J, then J is advanced).
///
/// Default-value cost predicates are synthesized on the fly: a lookup of an
/// absent key yields the domain's Bottom(), so only the core is ever stored
/// (Section 2.3.3) while aggregates see the full default extension
/// (Example 4.4 depends on this).
class RuleExecutor {
 public:
  explicit RuleExecutor(const Database* db) : db_(db) {}

  /// Full evaluation of the rule (naive rounds, semi-naive round 0).
  void RunBase(const CompiledRule& rule, std::vector<Derivation>* out);

  /// Semi-naive: derive everything the changed row (delta_key, delta_cost)
  /// of `driver.delta_pred` can newly contribute through this occurrence.
  void RunDriver(const CompiledRule& rule, const DriverVariant& driver,
                 KeyRef delta_key, const Value& delta_cost,
                 std::vector<Derivation>* out);

  /// Number of subgoal evaluations performed (for EvalStats).
  int64_t subgoal_evals() const { return subgoal_evals_; }

  /// Attaches an *active* resource guard: the executor polls it once per
  /// ~4096 subgoal evaluations and, on a trip, abandons the remaining
  /// enumeration mid-rule. Derivations already buffered stay valid — under a
  /// monotone T_P any subset of one application's derivations is still
  /// ⊑-below the least model, so the caller merges the partial buffer and
  /// then observes the trip through its own guard checks.
  void set_guard(ResourceGuard* guard) { guard_ = guard; }

  /// True once an attached guard tripped during evaluation; subsequent
  /// RunBase/RunDriver calls return immediately.
  bool stopped() const { return stopped_; }

 private:
  void RunSchedule(const CompiledRule& rule, const Schedule& schedule,
                   size_t idx, Binding* binding,
                   std::vector<Derivation>* out);
  /// Evaluates an aggregate step whose grouping slots are all bound, then
  /// continues the schedule.
  void EvalBoundAggregate(const CompiledRule& rule, const Schedule& schedule,
                          size_t idx, const CompiledAggregate& agg,
                          Binding* binding, std::vector<Derivation>* out);
  void EmitHead(const CompiledRule& rule, const Binding& binding,
                std::vector<Derivation>* out);

  /// Enumerates rows of `atom` compatible with `binding`, invoking `cont()`
  /// with the newly bound slots set; restores the binding afterwards.
  template <typename Cont>
  void EnumAtom(const CompiledAtom& atom, Binding* binding, const Cont& cont);
  /// Enumerates solutions of a scheduled atom list starting at `idx`.
  template <typename Cont>
  void EnumAtomList(const std::vector<CompiledAtom>& atoms, size_t idx,
                    Binding* binding, const Cont& cont);

  bool NegationHolds(const CompiledAtom& atom, const Binding& binding);
  bool EvalAggregateInto(const CompiledAggregate& agg, Binding* binding,
                         std::optional<Value>* result);

  /// Binds the delta row against the seed occurrence; false on mismatch.
  bool MatchSeed(const CompiledAtom& seed, KeyRef delta_key,
                 const Value& delta_cost, Binding* binding);

  std::optional<Value> EvalExpr(const CompiledExpr& e, int node,
                                const Binding& binding);
  bool EvalCompare(datalog::CmpOp op, const Value& a, const Value& b);

  /// Resolves a SlotTerm to its current value; the slot must be bound.
  const Value& Resolve(const SlotTerm& t, const Binding& binding) const {
    return t.is_slot ? binding.Get(t.slot) : t.constant;
  }

  const Database* db_;
  const CompiledRule* current_rule_ = nullptr;
  /// Reused across RunBase/RunDriver calls so the per-rule Reset touches
  /// warm, already-sized vectors instead of allocating. The executor is
  /// single-threaded (the parallel evaluator gives each pool participant its
  /// own executor), so one scratch binding suffices.
  Binding scratch_;
  /// Per-depth buffers of EnumAtom (the bound key values, the dynamic scan
  /// pattern, the slots a row bound), reused across calls so a probe never
  /// allocates once warm. Heap-allocated so a deeper level growing the
  /// vector leaves the shallower levels' references valid.
  struct Probe {
    Tuple values;
    std::vector<int> positions;
    std::vector<int> trail;
  };
  std::vector<std::unique_ptr<Probe>> probes_;
  size_t depth_ = 0;
  Tuple lookup_key_;             ///< NegationHolds' key (not re-entrant)
  std::vector<Value> multiset_;  ///< EvalAggregateInto's multiset
  int64_t subgoal_evals_ = 0;
  ResourceGuard* guard_ = nullptr;
  bool stopped_ = false;
};

}  // namespace core
}  // namespace mad

#endif  // MAD_CORE_EXECUTOR_H_
