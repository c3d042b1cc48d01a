#include "analysis/dependency_graph.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "util/string_util.h"

namespace mad {
namespace analysis {

using datalog::Subgoal;

bool Component::ContainsPredicate(const PredicateInfo* p) const {
  return std::find(predicates.begin(), predicates.end(), p) !=
         predicates.end();
}

DependencyGraph::DependencyGraph(const Program& program) : program_(&program) {
  const auto& rules = program.rules();
  for (int ri = 0; ri < static_cast<int>(rules.size()); ++ri) {
    const Rule& rule = rules[ri];
    const PredicateInfo* head = rule.head.pred;
    nodes_.insert(head);
    for (const Subgoal& sg : rule.body) {
      switch (sg.kind) {
        case Subgoal::Kind::kAtom:
          AddEdge(sg.atom.pred, head, EdgeKind::kPositive, ri);
          break;
        case Subgoal::Kind::kNegatedAtom:
          AddEdge(sg.atom.pred, head, EdgeKind::kNegative, ri);
          break;
        case Subgoal::Kind::kAggregate:
          for (const datalog::Atom& a : sg.aggregate.atoms) {
            AddEdge(a.pred, head, EdgeKind::kAggregate, ri);
          }
          break;
        case Subgoal::Kind::kBuiltin:
          break;
      }
    }
  }
  // Facts and declared-but-unused predicates still get nodes so ComponentOf
  // is total over the program.
  for (const auto& p : program.predicates()) nodes_.insert(p.get());
  ComputeSccs();
}

void DependencyGraph::AddEdge(const PredicateInfo* from,
                              const PredicateInfo* to, EdgeKind kind,
                              int rule_index) {
  nodes_.insert(from);
  nodes_.insert(to);
  edges_.push_back({from, to, kind, rule_index});
}

void DependencyGraph::ComputeSccs() {
  // Tarjan's algorithm (iterative-friendly sizes here, recursion is fine).
  std::map<const PredicateInfo*, std::vector<const PredicateInfo*>> succ;
  for (const DepEdge& e : edges_) succ[e.from].push_back(e.to);

  std::map<const PredicateInfo*, int> index, lowlink;
  std::vector<const PredicateInfo*> stack;
  std::set<const PredicateInfo*> on_stack;
  int next_index = 0;
  std::vector<std::vector<const PredicateInfo*>> sccs;

  std::function<void(const PredicateInfo*)> strongconnect =
      [&](const PredicateInfo* v) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack.insert(v);
        auto it = succ.find(v);
        if (it != succ.end()) {
          for (const PredicateInfo* w : it->second) {
            if (!index.count(w)) {
              strongconnect(w);
              lowlink[v] = std::min(lowlink[v], lowlink[w]);
            } else if (on_stack.count(w)) {
              lowlink[v] = std::min(lowlink[v], index[w]);
            }
          }
        }
        if (lowlink[v] == index[v]) {
          std::vector<const PredicateInfo*> scc;
          while (true) {
            const PredicateInfo* w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            scc.push_back(w);
            if (w == v) break;
          }
          sccs.push_back(std::move(scc));
        }
      };

  for (const PredicateInfo* v : nodes_) {
    if (!index.count(v)) strongconnect(v);
  }

  // With edges directed body -> head, Tarjan completes head components
  // before the components they read from, i.e. emission is top-down.
  // Reverse to obtain the bottom-up (LDB-before-CDB) order of Section 6.3.
  std::reverse(sccs.begin(), sccs.end());
  components_.resize(sccs.size());
  for (size_t ci = 0; ci < sccs.size(); ++ci) {
    Component& c = components_[ci];
    c.index = static_cast<int>(ci);
    c.predicates = std::move(sccs[ci]);
    std::sort(c.predicates.begin(), c.predicates.end(),
              [](const PredicateInfo* a, const PredicateInfo* b) {
                return a->id < b->id;
              });
    for (const PredicateInfo* p : c.predicates) component_of_[p] = c.index;
  }

  const auto& rules = program_->rules();
  for (int ri = 0; ri < static_cast<int>(rules.size()); ++ri) {
    components_[component_of_[rules[ri].head.pred]].rule_indices.push_back(ri);
  }
  for (const DepEdge& e : edges_) {
    int cf = component_of_[e.from];
    int ct = component_of_[e.to];
    if (cf != ct) continue;
    Component& c = components_[cf];
    c.recursive = true;
    if (e.kind == EdgeKind::kAggregate) c.recursive_aggregation = true;
    if (e.kind == EdgeKind::kNegative) c.recursive_negation = true;
  }
}

int DependencyGraph::ComponentOf(const PredicateInfo* pred) const {
  auto it = component_of_.find(pred);
  assert(it != component_of_.end());
  return it->second;
}

bool DependencyGraph::IsCdbFor(const Rule& rule,
                               const PredicateInfo* pred) const {
  auto it = component_of_.find(pred);
  if (it == component_of_.end()) return false;
  return it->second == ComponentOf(rule.head.pred);
}

std::string DependencyGraph::ToString() const {
  std::string out;
  for (const Component& c : components_) {
    out += StrPrintf("component %d:", c.index);
    for (const PredicateInfo* p : c.predicates) out += " " + p->name;
    if (c.recursive) out += " [recursive]";
    if (c.recursive_aggregation) out += " [recursive-aggregation]";
    if (c.recursive_negation) out += " [recursive-negation]";
    out += "\n";
  }
  return out;
}

}  // namespace analysis
}  // namespace mad
