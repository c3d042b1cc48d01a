#ifndef MAD_ANALYSIS_DEPENDENCY_GRAPH_H_
#define MAD_ANALYSIS_DEPENDENCY_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "datalog/ast.h"

namespace mad {
namespace analysis {

using datalog::PredicateInfo;
using datalog::Program;
using datalog::Rule;

/// How a body predicate feeds a head predicate.
enum class EdgeKind {
  kPositive,   ///< ordinary positive subgoal
  kNegative,   ///< negated subgoal
  kAggregate,  ///< occurrence inside an aggregate subgoal
};

/// One dependency edge body-pred -> head-pred.
struct DepEdge {
  const PredicateInfo* from = nullptr;  ///< body predicate
  const PredicateInfo* to = nullptr;    ///< head predicate
  EdgeKind kind = EdgeKind::kPositive;
  int rule_index = -1;
};

/// A strongly connected component of the predicate dependency graph — the
/// paper's "program component" (Definition 2.2). Components are produced in
/// bottom-up (LDB-before-CDB) topological order, so evaluating them in index
/// order realizes the iterated minimal-model construction of Section 6.3.
struct Component {
  int index = -1;
  /// Predicates in this component (the component's CDB).
  std::vector<const PredicateInfo*> predicates;
  /// Indices into Program::rules() of rules whose head is in the component.
  std::vector<int> rule_indices;
  /// True iff some edge has both endpoints inside the component.
  bool recursive = false;
  /// True iff an *aggregate* edge is internal — recursion through
  /// aggregation, the paper's subject matter.
  bool recursive_aggregation = false;
  /// True iff a *negative* edge is internal — recursion through negation,
  /// outside this paper's monotone semantics (Proposition 6.1 requires
  /// negation only on LDB predicates).
  bool recursive_negation = false;

  bool ContainsPredicate(const PredicateInfo* p) const;
};

/// The predicate dependency graph of a program, its SCC condensation, and
/// per-rule CDB/LDB classification helpers.
class DependencyGraph {
 public:
  /// Builds the graph and runs Tarjan's SCC algorithm.
  explicit DependencyGraph(const Program& program);

  const std::vector<DepEdge>& edges() const { return edges_; }
  /// Components in bottom-up topological order.
  const std::vector<Component>& components() const { return components_; }
  /// Component index of `pred` (predicates that never occur get their own
  /// singleton component).
  int ComponentOf(const PredicateInfo* pred) const;

  /// True iff `pred` is a CDB predicate of the component containing the head
  /// of `rule` — i.e. mutually recursive with the rule's head.
  bool IsCdbFor(const Rule& rule, const PredicateInfo* pred) const;

  /// Renders components and edges for diagnostics.
  std::string ToString() const;

 private:
  void AddEdge(const PredicateInfo* from, const PredicateInfo* to,
               EdgeKind kind, int rule_index);
  void ComputeSccs();

  const Program* program_;
  std::vector<DepEdge> edges_;
  std::vector<Component> components_;
  std::map<const PredicateInfo*, int> component_of_;
  std::set<const PredicateInfo*> nodes_;
};

}  // namespace analysis
}  // namespace mad

#endif  // MAD_ANALYSIS_DEPENDENCY_GRAPH_H_
