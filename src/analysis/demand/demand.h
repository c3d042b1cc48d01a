#ifndef MAD_ANALYSIS_DEMAND_DEMAND_H_
#define MAD_ANALYSIS_DEMAND_DEMAND_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/dependency_graph.h"
#include "datalog/ast.h"
#include "util/status.h"

namespace mad {
namespace analysis {
namespace demand {

/// A demand pattern: one predicate together with a bound/free adornment over
/// its KEY columns only. Lattice-column policy: the cost column never appears
/// in an adornment — cost values are what the query *asks for*, and demanding
/// them would slice an aggregate's input multiset, breaking the completeness
/// induction that makes magic sets sound for monotone aggregation. A query
/// that binds a cost column is answered by post-filtering the demanded slice
/// (MAD027, free-cost-column demand widening).
struct DemandPattern {
  const datalog::PredicateInfo* pred = nullptr;
  /// Length == pred->key_arity(); 'b' = bound, 'f' = free.
  std::string adornment;

  bool HasBound() const {
    return adornment.find('b') != std::string::npos;
  }
  int BoundCount() const {
    return static_cast<int>(std::count(adornment.begin(), adornment.end(),
                                       'b'));
  }
  bool operator<(const DemandPattern& o) const {
    if (pred != o.pred) return pred->id < o.pred->id;
    return adornment < o.adornment;
  }
  bool operator==(const DemandPattern& o) const {
    return pred == o.pred && adornment == o.adornment;
  }
  /// "sp^bf" — the notation used in diagnostics and --explain dumps.
  std::string ToString() const;
};

/// Provenance of one emitted magic rule, retained so the certifier can
/// independently re-derive what the rule's head must look like (and enforce
/// the aggregate grouping-variable policy) without trusting the rewriter.
struct MagicRuleSource {
  int rewritten_rule_index = -1;  ///< index into rewritten.rules()
  int original_rule_index = -1;   ///< rule whose body demanded the atom
  int subgoal_index = -1;         ///< body position of the demanding subgoal
  /// >= 0 when the demanded atom sits inside an aggregate subgoal (its index
  /// in AggregateSubgoal::atoms); -1 for a plain body atom.
  int aggregate_atom_index = -1;
  DemandPattern target;           ///< pattern the magic rule feeds
};

/// One guarded (or unguarded, for all-free patterns) copy of an original
/// rule in the rewritten program.
struct RuleCopySource {
  int rewritten_rule_index = -1;
  int original_rule_index = -1;
  DemandPattern head_pattern;  ///< demand pattern of the copy's head
  bool guarded = false;        ///< first body subgoal is the magic guard
};

/// The outcome of the demand transformation for one query pattern. When
/// `ok`, `rewritten` is an ordinary Program — the existing checker, absint
/// certifier, planner and engine consume it unchanged — whose least model,
/// restricted to the demanded slice, equals the original program's
/// (certified statically by CertifyRewrite and dynamically by the
/// demand differential gate).
struct DemandRewrite {
  bool ok = false;
  /// MAD025 payload: why the transformation conservatively bailed out
  /// (evaluate the full program instead). Empty iff `ok`.
  std::string bailout_reason;

  datalog::Program rewritten;
  /// The query's own demand pattern (over the original program's pred).
  DemandPattern query_pattern;
  /// Magic predicate to seed with the query's bound key values, or nullptr
  /// when the query pattern is all-free (pure cone restriction, no guards).
  /// Owned by `rewritten`.
  const datalog::PredicateInfo* seed_pred = nullptr;
  /// Key-column indices (ascending) of the 'b' positions in query_pattern —
  /// the columns whose query constants form the seed fact's tuple.
  std::vector<int> bound_key_positions;

  /// Every demanded (pred, adornment); preds point into the ORIGINAL program.
  std::set<DemandPattern> patterns;
  /// Original rule indices outside the query's cone (MAD026): no copy of
  /// them appears in the rewritten program.
  std::vector<int> unreachable_rules;
  /// Emission metadata consumed by the certifier.
  std::vector<MagicRuleSource> magic_sources;
  std::vector<RuleCopySource> copy_sources;

  /// Human-readable transformation trace (patterns, rules, bail-out).
  std::string ToString() const;
};

/// Derives the demand pattern of a query atom: key columns with constant
/// arguments are 'b', variables (including `_`) are 'f'. `cost_widened` is
/// set when the atom binds its cost column — the pattern stays free there
/// (see DemandPattern) and callers post-filter (MAD027).
DemandPattern PatternForQuery(const datalog::Atom& query,
                              bool* cost_widened);

/// The demand transformation: propagates `pattern` through `program`'s rules
/// along the static planner's sideways-information-passing order, emits the
/// magic-sets rewrite (magic predicates + guarded rule copies + magic
/// rules), and statically certifies it (CertifyRewrite + a full re-check of
/// the rewritten program). Value-independent: the same pattern serves every
/// bound constant, so results are cacheable per (pred, adornment).
///
/// Never fails outright — an untransformable query returns ok=false with a
/// structured bail-out reason, and the caller evaluates the full program.
DemandRewrite RewriteForPattern(const datalog::Program& program,
                                const DependencyGraph& graph,
                                const DemandPattern& pattern);

/// The key column, per predicate of `component`, on which its fixpoint
/// decomposes into independent hash partitions — or an empty map when it
/// does not. The component decomposes on columns {k_p} when, under the
/// demand propagation with only the head's column-k_p variable V bound,
/// every rule head binds a variable V at k_p and every atom of the
/// component in the body — positive, negated, or inside an aggregate, where
/// V must be a grouping variable — carries V at its own column k_q. That is
/// exactly when the magic predicate of the bound-k pattern is seeded only by
/// the query constant: no rule relates keys that differ at k, so the least
/// model is the disjoint union of the least models of the partitions. The
/// first predicate's columns are tried in order; the others' follow from
/// the rules.
std::map<const datalog::PredicateInfo*, int> DecompositionColumns(
    const datalog::Program& program, const Component& component);

/// Independent structural certification of a rewrite, called by
/// RewriteForPattern (a failure downgrades the rewrite to a bail-out) and
/// directly by tests. Verifies, without trusting the rewriter's bookkeeping:
///   1. predicate alignment — every original predicate is redeclared first,
///      same id/name/arity/cost signature, so relation ids line up and
///      snapshot relations can be shared into the demand evaluation;
///   2. magic predicate shape — cost-free, is_magic, arity == bound count;
///   3. copy faithfulness — every non-magic rewritten rule is an original
///      rule plus (at most) one leading magic guard over exactly the head's
///      bound key terms;
///   4. copy completeness — every demanded (p, alpha) guards a copy of every
///      original rule with head p (unguarded when alpha is all-free);
///   5. cone closure — every IDB predicate referenced by a kept copy
///      (positive, negated, or aggregate-inner) is demanded; negated ones
///      are demanded all-free (their cone is fully evaluated);
///   6. aggregate policy — magic rules that demand an aggregate-inner atom
///      bind only constants and grouping variables, keeping each demanded
///      group's multiset complete (the monotone-aggregation soundness
///      condition).
/// Together with the admissibility/monotonicity re-check of the rewritten
/// program and the dynamic differential gate, this is the evidence that the
/// demanded slice of the rewritten least model equals the original's.
Status CertifyRewrite(const datalog::Program& original,
                      const DemandRewrite& rewrite);

}  // namespace demand
}  // namespace analysis
}  // namespace mad

#endif  // MAD_ANALYSIS_DEMAND_DEMAND_H_
