#include "baselines/fully_defined.h"

#include <algorithm>
#include <cassert>

#include "lattice/cost_domain.h"
#include "util/string_util.h"

namespace mad {
namespace baselines {

using datalog::AggregateSubgoal;
using datalog::Atom;
using datalog::CmpOp;
using datalog::Expr;
using datalog::PredicateInfo;
using datalog::Program;
using datalog::Relation;
using datalog::Rule;
using datalog::Subgoal;
using datalog::Term;
using datalog::Tuple;
using datalog::Value;

namespace {

using Binding = std::map<std::string, Value>;

/// Evaluates an arithmetic expression under `binding`; nullopt when a
/// variable is unbound or the arithmetic is undefined.
std::optional<Value> EvalExpr(const Expr& e, const Binding& binding) {
  switch (e.kind) {
    case Expr::Kind::kConst:
      return e.constant;
    case Expr::Kind::kVar: {
      auto it = binding.find(e.var);
      if (it == binding.end()) return std::nullopt;
      return it->second;
    }
    default: {
      auto l = EvalExpr(*e.lhs, binding);
      auto r = EvalExpr(*e.rhs, binding);
      if (!l || !r) return std::nullopt;
      if (!(l->is_numeric() || l->is_bool()) ||
          !(r->is_numeric() || r->is_bool())) {
        return std::nullopt;
      }
      double a = l->AsDouble();
      double b = r->AsDouble();
      switch (e.kind) {
        case Expr::Kind::kAdd:
          return Value::Real(a + b);
        case Expr::Kind::kSub:
          return Value::Real(a - b);
        case Expr::Kind::kMul:
          return Value::Real(a * b);
        case Expr::Kind::kDiv:
          if (b == 0) return std::nullopt;
          return Value::Real(a / b);
        case Expr::Kind::kMin2:
          return Value::Real(std::min(a, b));
        case Expr::Kind::kMax2:
          return Value::Real(std::max(a, b));
        default:
          return std::nullopt;
      }
    }
  }
}

bool EvalCompare(CmpOp op, const Value& a, const Value& b) {
  bool numeric = (a.is_numeric() || a.is_bool()) &&
                 (b.is_numeric() || b.is_bool());
  if (numeric) {
    int c = Value::NumericCompare(a, b);
    switch (op) {
      case CmpOp::kEq:
        return c == 0;
      case CmpOp::kNe:
        return c != 0;
      case CmpOp::kLt:
        return c < 0;
      case CmpOp::kLe:
        return c <= 0;
      case CmpOp::kGt:
        return c > 0;
      case CmpOp::kGe:
        return c >= 0;
    }
  }
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return !(a == b);
    default:
      return false;
  }
}

/// Binds `term` to `value` or checks consistency; returns the variable name
/// newly bound (to undo later), or nullopt on mismatch / no-op.
bool BindTerm(const Term& term, const Value& value, Binding* binding,
              std::vector<std::string>* trail) {
  if (term.is_const()) {
    // Cost constants may need domain normalization; key constants compare
    // directly. Callers handle cost positions separately, so plain equality
    // suffices here.
    return term.constant == value;
  }
  auto it = binding->find(term.var);
  if (it != binding->end()) return it->second == value;
  binding->emplace(term.var, value);
  trail->push_back(term.var);
  return true;
}

void Undo(Binding* binding, std::vector<std::string>* trail, size_t mark) {
  while (trail->size() > mark) {
    binding->erase(trail->back());
    trail->pop_back();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FullyDefinedEvaluator
// ---------------------------------------------------------------------------

FullyDefinedEvaluator::FullyDefinedEvaluator(
    const Program& program, const datalog::Database& least_model)
    : program_(&program), db_(&least_model) {}

bool FullyDefinedEvaluator::IsEdb(const PredicateInfo* pred) const {
  for (const Rule& rule : program_->rules()) {
    if (rule.head.pred == pred) return false;
  }
  return true;
}

bool FullyDefinedEvaluator::RowSettled(const PredicateInfo* pred,
                                       const Tuple& key) const {
  if (IsEdb(pred)) return true;
  const Relation* rel = db_->Find(pred);
  std::optional<uint32_t> row =
      rel != nullptr ? rel->FindRow(key) : std::nullopt;
  // Keys outside the least model can never become true in any approximation
  // (the least model is the limit): they are determined (false / bottom).
  if (!row.has_value()) return true;
  auto it = state_.find(pred->id);
  if (it == state_.end()) return false;
  return *row < it->second.settled.size() && it->second.settled[*row];
}

Status FullyDefinedEvaluator::Evaluate() {
  for (const Rule& rule : program_->rules()) {
    for (const Subgoal& sg : rule.body) {
      if (sg.kind == Subgoal::Kind::kNegatedAtom) {
        return Status::InvalidArgument(
            "the fully-defined evaluator handles negation-free programs");
      }
    }
  }
  // Initialize per-derived-predicate settled bits.
  for (const auto& [id, rel] : db_->relations()) {
    if (IsEdb(rel->pred())) continue;
    state_[id].settled.assign(rel->size(), false);
  }
  // Seed: program facts whose value survived to the least model are true
  // immediately (growth through rules would have raised them).
  for (const datalog::Fact& f : program_->facts()) {
    if (IsEdb(f.pred)) continue;
    const Relation* rel = db_->Find(f.pred);
    std::optional<uint32_t> row =
        rel != nullptr ? rel->FindRow(f.key) : std::nullopt;
    if (!row.has_value()) continue;
    bool final_value =
        !f.pred->has_cost ||
        f.pred->domain->Equal(f.pred->domain->Normalize(*f.cost),
                              rel->cost_at(*row));
    if (final_value) state_[f.pred->id].settled[*row] = true;
  }

  while (Pass()) {
  }
  return Status::OK();
}

bool FullyDefinedEvaluator::Pass() {
  changed_ = false;
  for (const Rule& rule : program_->rules()) {
    SettleFromRule(rule);
  }
  return changed_;
}

void FullyDefinedEvaluator::SettleFromRule(const Rule& rule) {
  const PredicateInfo* head = rule.head.pred;
  const Relation* rel = db_->Find(head);
  if (rel == nullptr) return;
  PredState& st = state_[head->id];
  for (uint32_t row = 0; row < rel->size(); ++row) {
    if (st.settled[row]) continue;
    // Bind the head arguments (keys and, for cost predicates, the final
    // least-model value) and look for a fully settled body instance.
    Binding binding;
    bool ok = true;
    const datalog::KeyRef key = rel->key_at(row);
    for (int i = 0; i < head->key_arity() && ok; ++i) {
      const Term& t = rule.head.args[i];
      if (t.is_const()) {
        ok = t.constant == key[i];
      } else {
        binding[t.var] = key[i];
      }
    }
    if (ok && head->has_cost) {
      const Term& t = rule.head.args.back();
      if (t.is_const()) {
        ok = head->domain->Equal(head->domain->Normalize(t.constant),
                                 rel->cost_at(row));
      } else {
        binding[t.var] = rel->cost_at(row);
      }
    }
    if (!ok) continue;
    settle_target_ = {head->id, row};
    EnumerateSettled(rule, 0, &binding);
  }
}

void FullyDefinedEvaluator::EnumerateSettled(const Rule& rule,
                                             size_t subgoal_index,
                                             Binding* binding) {
  PredState& st = state_[settle_target_.first];
  if (st.settled[settle_target_.second]) return;  // already done
  if (subgoal_index == rule.body.size()) {
    st.settled[settle_target_.second] = true;
    changed_ = true;
    return;
  }
  const Subgoal& sg = rule.body[subgoal_index];
  switch (sg.kind) {
    case Subgoal::Kind::kNegatedAtom:
      return;  // rejected earlier
    case Subgoal::Kind::kAtom: {
      MatchAtom(sg.atom, binding, [&](bool settled) {
        if (settled) EnumerateSettled(rule, subgoal_index + 1, binding);
      });
      return;
    }
    case Subgoal::Kind::kBuiltin: {
      // With the head pre-bound, equalities act as checks or assignments.
      auto l = EvalExpr(*sg.builtin.lhs, *binding);
      auto r = EvalExpr(*sg.builtin.rhs, *binding);
      if (sg.builtin.op == CmpOp::kEq && (!l.has_value()) != (!r.has_value())) {
        // One side unbound bare variable: assignment.
        const Expr& unbound = l.has_value() ? *sg.builtin.rhs : *sg.builtin.lhs;
        const Value& val = l.has_value() ? *l : *r;
        if (unbound.kind != Expr::Kind::kVar) return;
        binding->emplace(unbound.var, val);
        EnumerateSettled(rule, subgoal_index + 1, binding);
        binding->erase(unbound.var);
        return;
      }
      if (!l || !r) return;
      if (EvalCompare(sg.builtin.op, *l, *r)) {
        EnumerateSettled(rule, subgoal_index + 1, binding);
      }
      return;
    }
    case Subgoal::Kind::kAggregate: {
      const AggregateSubgoal& agg = sg.aggregate;
      std::vector<Value> multiset;
      if (!AggregateGroupSettled(agg, binding, &multiset)) return;
      if (agg.restricted && multiset.empty()) return;
      auto applied = agg.function->Apply(multiset);
      if (!applied.ok()) return;
      const lattice::CostDomain* out = agg.function->output_domain();
      Value value = out->Normalize(*applied);
      if (agg.result.is_const()) {
        if (!out->Contains(agg.result.constant) ||
            !out->Equal(out->Normalize(agg.result.constant), value)) {
          return;
        }
        EnumerateSettled(rule, subgoal_index + 1, binding);
        return;
      }
      auto it = binding->find(agg.result.var);
      if (it != binding->end()) {
        if (!out->Contains(it->second) ||
            !out->Equal(out->Normalize(it->second), value)) {
          return;
        }
        EnumerateSettled(rule, subgoal_index + 1, binding);
        return;
      }
      binding->emplace(agg.result.var, value);
      EnumerateSettled(rule, subgoal_index + 1, binding);
      binding->erase(agg.result.var);
      return;
    }
  }
}

bool FullyDefinedEvaluator::AggregateGroupSettled(
    const AggregateSubgoal& agg, Binding* binding,
    std::vector<Value>* multiset) {
  // Order inner atoms with default-value predicates last so their keys are
  // bound when we synthesize implicit bottom rows.
  std::vector<Atom> ordered = agg.atoms;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Atom& a, const Atom& b) {
                     return !a.pred->has_default && b.pred->has_default;
                   });
  bool all_settled = true;
  if (!EnumerateInner(ordered, 0, binding, &all_settled, multiset,
                      agg.multiset_var)) {
    return false;
  }
  return all_settled;
}

bool FullyDefinedEvaluator::EnumerateInner(const std::vector<Atom>& atoms,
                                           size_t index, Binding* binding,
                                           bool* all_settled,
                                           std::vector<Value>* multiset,
                                           const std::string& multiset_var) {
  if (index == atoms.size()) {
    if (multiset_var.empty()) {
      multiset->push_back(Value::Bool(true));
    } else {
      auto it = binding->find(multiset_var);
      if (it == binding->end()) return false;  // malformed subgoal
      multiset->push_back(it->second);
    }
    return true;
  }
  bool ok = true;
  MatchAtom(atoms[index], binding, [&](bool settled) {
    // Every *potential* contributor counts toward settledness, settled or
    // not — an unsettled one means the multiset may still change.
    *all_settled = *all_settled && settled;
    if (!EnumerateInner(atoms, index + 1, binding, all_settled, multiset,
                        multiset_var)) {
      ok = false;
    }
  });
  return ok;
}

template <typename Fn>
void FullyDefinedEvaluator::MatchAtom(const Atom& atom, Binding* binding,
                                      Fn&& fn) {
  const PredicateInfo* pred = atom.pred;
  const Relation* rel = db_->Find(pred);

  auto match_row = [&](const Tuple& key, const Value& cost, bool settled) {
    std::vector<std::string> trail;
    bool ok = true;
    for (int i = 0; i < pred->key_arity() && ok; ++i) {
      ok = BindTerm(atom.args[i], key[i], binding, &trail);
    }
    if (ok && pred->has_cost) {
      const Term& t = atom.args.back();
      if (t.is_const()) {
        ok = pred->domain->Contains(t.constant) &&
             pred->domain->Equal(pred->domain->Normalize(t.constant), cost);
      } else {
        auto it = binding->find(t.var);
        if (it != binding->end()) {
          ok = pred->domain->Contains(it->second) &&
               pred->domain->Equal(pred->domain->Normalize(it->second), cost);
        } else {
          binding->emplace(t.var, cost);
          trail.push_back(t.var);
        }
      }
    }
    if (ok) fn(settled);
    Undo(binding, &trail, 0);
  };

  // Default-value predicates with fully bound keys synthesize the implicit
  // bottom row when the core has no entry; implicit rows are settled iff
  // absent from the least model (nothing will ever derive them).
  if (pred->has_default) {
    Tuple key;
    bool keys_bound = true;
    for (int i = 0; i < pred->key_arity(); ++i) {
      const Term& t = atom.args[i];
      if (t.is_const()) {
        key.push_back(t.constant);
      } else {
        auto it = binding->find(t.var);
        if (it == binding->end()) {
          keys_bound = false;
          break;
        }
        key.push_back(it->second);
      }
    }
    if (keys_bound) {
      std::optional<uint32_t> row =
          rel != nullptr ? rel->FindRow(key) : std::nullopt;
      if (row.has_value()) {
        match_row(key, rel->cost_at(*row), RowSettled(pred, key));
      } else {
        match_row(key, pred->domain->Bottom(), true);
      }
      return;
    }
  }

  if (rel == nullptr) return;
  for (uint32_t row = 0; row < rel->size(); ++row) {
    const Tuple key = rel->key_at(row);
    match_row(key, rel->cost_at(row), RowSettled(pred, key));
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

Definedness FullyDefinedEvaluator::StatusOf(const PredicateInfo* pred,
                                            const Tuple& key) const {
  const Relation* rel = db_->Find(pred);
  std::optional<uint32_t> row =
      rel != nullptr ? rel->FindRow(key) : std::nullopt;
  if (!row.has_value()) return Definedness::kFalse;
  if (RowSettled(pred, key)) return Definedness::kTrue;
  return Definedness::kUndefined;
}

int FullyDefinedEvaluator::CountSettled() const {
  int n = 0;
  for (const auto& [_, st] : state_) {
    for (bool b : st.settled) n += b ? 1 : 0;
  }
  return n;
}

int FullyDefinedEvaluator::CountUndefined() const {
  int n = 0;
  for (const auto& [_, st] : state_) {
    for (bool b : st.settled) n += b ? 0 : 1;
  }
  return n;
}

double FullyDefinedEvaluator::DefinedFraction() const {
  int settled = CountSettled();
  int total = settled + CountUndefined();
  return total == 0 ? 1.0 : static_cast<double>(settled) / total;
}

}  // namespace baselines
}  // namespace mad
