#ifndef MAD_CORE_COMPILED_RULE_H_
#define MAD_CORE_COMPILED_RULE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dependency_graph.h"
#include "analysis/plan/plan.h"
#include "datalog/ast.h"
#include "util/status.h"

namespace mad {
namespace core {

using datalog::PredicateInfo;
using datalog::Rule;
using datalog::Value;

/// How the scheduler picks among the safely-executable body subgoals. The
/// safety (readiness) conditions are identical in every mode — only the
/// preference among ready subgoals differs — so all three modes compute the
/// same least model for monotone programs (certified by the planned-vs-
/// textual differential gate); they differ only in work performed.
enum class JoinOrderMode {
  /// Legacy greedy tiers: builtins first, then fully-bound negation, then
  /// the positive atom with the most bound key positions, then ready
  /// aggregates.
  kHeuristic,
  /// The earliest safe subgoal in source order — the differential oracle.
  kTextual,
  /// Follow the static planner's per-rule QueryPlan order (analysis/plan).
  kPlanned,
};

/// Join-order directive for rule compilation. `plans` must outlive the
/// compiled rules when mode == kPlanned; a rule without a usable plan falls
/// back to textual preference.
struct CompileOrder {
  JoinOrderMode mode = JoinOrderMode::kHeuristic;
  const analysis::plan::PlanReport* plans = nullptr;
};

/// A term compiled to either a variable slot or an inline constant.
struct SlotTerm {
  bool is_slot = false;
  int slot = -1;
  Value constant;

  static SlotTerm Slot(int s) {
    SlotTerm t;
    t.is_slot = true;
    t.slot = s;
    return t;
  }
  static SlotTerm Const(Value v) {
    SlotTerm t;
    t.constant = std::move(v);
    return t;
  }
};

/// A body atom compiled for execution. `scan_positions` lists the key
/// positions statically known to be bound when this step runs — the scan
/// pattern handed to Relation::Scan; all positions are additionally verified
/// dynamically during row matching.
struct CompiledAtom {
  const PredicateInfo* pred = nullptr;
  std::vector<SlotTerm> key_args;
  std::optional<SlotTerm> cost_arg;
  std::vector<int> scan_positions;
};

/// A built-in arithmetic expression with its variables resolved to slots.
/// Nodes are stored in post-order (children before parents), so the root is
/// the last node and the whole expression copies as one vector.
struct CompiledExpr {
  struct Node {
    datalog::Expr::Kind kind = datalog::Expr::Kind::kConst;
    Value constant;  ///< kConst
    int slot = -1;   ///< kVar
    int lhs = -1;    ///< binary nodes: indexes of the operand nodes
    int rhs = -1;
  };
  std::vector<Node> nodes;

  int root() const { return static_cast<int>(nodes.size()) - 1; }
};

/// A built-in comparison, possibly acting as an assignment of one slot.
struct CompiledBuiltin {
  datalog::CmpOp op = datalog::CmpOp::kEq;
  CompiledExpr lhs;
  CompiledExpr rhs;
  /// If >= 0, this equality defines `assign_slot` from `value_expr`.
  int assign_slot = -1;
  CompiledExpr value_expr;
};

/// An aggregate subgoal compiled for execution: the inner conjunction is
/// itself a scheduled atom list over the same slot space; local slots (and
/// the multiset slot) are scoped to the aggregation and cleared afterwards.
struct CompiledAggregate {
  const lattice::AggregateFunction* fn = nullptr;
  bool restricted = false;
  SlotTerm result;
  int multiset_slot = -1;  ///< slot of E, or -1 for implicit-presence
  std::vector<CompiledAtom> inner;  ///< scheduled execution order
  std::vector<int> grouping_slots;
  /// Slots bound only inside the aggregation (locals, E, and any inner-only
  /// helper slots); cleared when the aggregation finishes.
  std::vector<int> scoped_slots;
};

/// One executable step of a schedule.
struct CompiledSubgoal {
  enum class Kind { kAtom, kNegatedAtom, kAggregate, kBuiltin };
  Kind kind = Kind::kAtom;
  CompiledAtom atom;
  CompiledAggregate aggregate;
  CompiledBuiltin builtin;
};

using Schedule = std::vector<CompiledSubgoal>;

/// A semi-naive evaluation entry point: re-derives everything a changed row
/// of `delta_pred` can contribute through one particular CDB occurrence.
struct DriverVariant {
  const PredicateInfo* delta_pred = nullptr;
  /// True iff delta_pred is mutually recursive with the rule head. CDB
  /// drivers power ordinary semi-naive rounds; LDB drivers only fire during
  /// incremental updates (Engine::Update), where extensional facts change.
  bool cdb = false;
  /// The occurrence the delta row is matched against. For an atom driver
  /// this is the body atom itself; for an aggregate driver it is one inner
  /// atom of the aggregate subgoal.
  CompiledAtom seed;
  bool via_aggregate = false;
  /// Aggregate drivers: after seeding, these scheduled atoms (the remaining
  /// inner conjunction) bind the rest of the grouping variables.
  std::vector<CompiledAtom> group_finder;
  /// Aggregate drivers: the grouping slots to retain; all other slots are
  /// cleared before running `rest` (the aggregate re-aggregates its full
  /// group — seeding local variables would truncate the multiset).
  std::vector<int> grouping_slots;
  /// The schedule to run after seeding. Atom drivers: the rule body minus
  /// the seed occurrence. Aggregate drivers: the full rule body.
  Schedule rest;
};

/// A rule compiled against one component's CDB classification.
struct CompiledRule {
  const Rule* source = nullptr;
  /// Index of the source rule within Program::rules() (provenance).
  int rule_index = -1;
  int num_slots = 0;
  /// Variable name of each slot (slot ids index this vector).
  std::vector<std::string> slot_names;

  const PredicateInfo* head_pred = nullptr;
  std::vector<SlotTerm> head_key;
  std::optional<SlotTerm> head_cost;

  /// Full evaluation order (used by naive rounds and semi-naive round 0).
  Schedule base;
  /// One driver per positive-atom or aggregate-inner occurrence — CDB
  /// occurrences (semi-naive delta rounds) and LDB occurrences (incremental
  /// updates) alike; see DriverVariant::cdb.
  std::vector<DriverVariant> drivers;

  /// True iff the body mentions a CDB predicate anywhere; rules without CDB
  /// occurrences are exhausted by round 0.
  bool has_cdb_occurrence() const {
    for (const DriverVariant& d : drivers) {
      if (d.cdb) return true;
    }
    return false;
  }
};

/// Compiles `rule` for evaluation inside the component identified by
/// `graph`'s classification. Fails (Internal) only if no safe subgoal order
/// exists — which range restriction rules out. `mode`/`plan` select the
/// subgoal preference order (see JoinOrderMode); `plan`, when given, is the
/// static QueryPlan for this rule and is only consulted under kPlanned.
StatusOr<CompiledRule> CompileRule(
    const Rule& rule, const analysis::DependencyGraph& graph,
    JoinOrderMode mode = JoinOrderMode::kHeuristic,
    const analysis::plan::QueryPlan* plan = nullptr);

/// Compiles every rule of `component` (in rule_indices order), stamping each
/// CompiledRule::rule_index. One compilation path for batch evaluation and
/// incremental maintenance alike.
StatusOr<std::vector<CompiledRule>> CompileComponent(
    const datalog::Program& program, const analysis::Component& component,
    const analysis::DependencyGraph& graph, const CompileOrder& order = {});

/// One (predicate, scan-position-set) pattern a schedule may hand to
/// Relation::Scan.
using ScanPattern = std::pair<const PredicateInfo*, std::vector<int>>;

/// Appends every scan pattern reachable from `rule`'s schedules — the base
/// schedule, each driver's rest schedule and group finder, and aggregate
/// inner lists. The parallel evaluator forces these secondary indexes before
/// each round's fan-out so concurrent scans are pure reads (patterns the
/// static schedule under-approximates are still built safely, just under the
/// exclusive lock). Duplicates are not removed.
void CollectScanPatterns(const CompiledRule& rule,
                         std::vector<ScanPattern>* out);

}  // namespace core
}  // namespace mad

#endif  // MAD_CORE_COMPILED_RULE_H_
