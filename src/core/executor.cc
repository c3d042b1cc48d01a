#include "core/executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "lattice/cost_domain.h"

namespace mad {
namespace core {

using datalog::CmpOp;
using datalog::Expr;
using lattice::CostDomain;

// ---------------------------------------------------------------------------
// Atom enumeration
// ---------------------------------------------------------------------------

template <typename Cont>
void RuleExecutor::EnumAtom(const CompiledAtom& atom, Binding* binding,
                            const Cont& cont) {
  const Relation* rel = db_->Find(atom.pred);
  if (rel == nullptr && !atom.pred->has_default) return;
  if (depth_ == probes_.size()) probes_.push_back(std::make_unique<Probe>());
  Probe& probe = *probes_[depth_++];

  // The ground key positions, in order: the scan pattern. It is almost
  // always the compiled one; it differs when a slot the compiler could not
  // assume bound is bound at run time (an "=r" aggregate's grouping slots,
  // once its groups are enumerated).
  const int arity = static_cast<int>(atom.key_args.size());
  const std::vector<int>& compiled = atom.scan_positions;
  probe.values.clear();
  bool is_compiled = true;
  for (int i = 0; i < arity; ++i) {
    const SlotTerm& t = atom.key_args[i];
    if (t.is_slot && !binding->IsBound(t.slot)) continue;
    size_t k = probe.values.size();
    is_compiled = is_compiled && k < compiled.size() && compiled[k] == i;
    probe.values.push_back(Resolve(t, *binding));
  }
  is_compiled = is_compiled && probe.values.size() == compiled.size();

  if (atom.pred->has_default) {
    // Keys are fully bound (the scheduler guarantees it); the value is the
    // stored core value or the lattice bottom.
    assert(static_cast<int>(probe.values.size()) == arity);
    const Value* stored = rel != nullptr ? rel->Find(probe.values) : nullptr;
    Value cost = stored != nullptr ? *stored : atom.pred->domain->Bottom();
    if (!atom.cost_arg.has_value()) {
      cont();
    } else if (atom.cost_arg->is_slot &&
               !binding->IsBound(atom.cost_arg->slot)) {
      binding->Set(atom.cost_arg->slot, std::move(cost));
      cont();
      binding->Clear(atom.cost_arg->slot);
    } else {
      const Value& expected = Resolve(*atom.cost_arg, *binding);
      if (atom.pred->domain->Contains(expected) &&
          atom.pred->domain->Equal(atom.pred->domain->Normalize(expected),
                                   cost)) {
        cont();
      }
    }
    --depth_;
    return;
  }

  const std::vector<int>* positions = &compiled;
  if (!is_compiled) {
    probe.positions.clear();
    for (int i = 0; i < arity; ++i) {
      const SlotTerm& t = atom.key_args[i];
      if (!t.is_slot || binding->IsBound(t.slot)) probe.positions.push_back(i);
    }
    positions = &probe.positions;
  }

  rel->ForEachMatchingRow(*positions, probe.values.data(), [&](size_t row) {
    // Match and bind; track which slots this row bound so we can undo.
    KeyRef key = rel->key_at(row);
    probe.trail.clear();
    bool ok = true;
    for (int i = 0; i < arity && ok; ++i) {
      const SlotTerm& t = atom.key_args[i];
      if (!t.is_slot) {
        ok = t.constant == key[i];
      } else if (binding->IsBound(t.slot)) {
        ok = binding->Get(t.slot) == key[i];
      } else {
        binding->Set(t.slot, key[i]);
        probe.trail.push_back(t.slot);
      }
    }
    if (ok && atom.cost_arg.has_value()) {
      const SlotTerm& ct = *atom.cost_arg;
      const Value& cost = rel->cost_at(row);
      if (ct.is_slot && !binding->IsBound(ct.slot)) {
        binding->Set(ct.slot, cost);
        probe.trail.push_back(ct.slot);
      } else {
        const Value& expected = Resolve(ct, *binding);
        ok = atom.pred->domain->Contains(expected) &&
             atom.pred->domain->Equal(atom.pred->domain->Normalize(expected),
                                      cost);
      }
    }
    if (ok) cont();
    for (int s : probe.trail) binding->Clear(s);
  });
  --depth_;
}

template <typename Cont>
void RuleExecutor::EnumAtomList(const std::vector<CompiledAtom>& atoms,
                                size_t idx, Binding* binding,
                                const Cont& cont) {
  if (stopped_) return;
  if (idx == atoms.size()) {
    cont();
    return;
  }
  EnumAtom(atoms[idx], binding,
           [&]() { EnumAtomList(atoms, idx + 1, binding, cont); });
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

void RuleExecutor::RunBase(const CompiledRule& rule,
                           std::vector<Derivation>* out) {
  if (stopped_) return;
  current_rule_ = &rule;
  Binding& binding = scratch_;
  binding.Reset(rule.num_slots);
  RunSchedule(rule, rule.base, 0, &binding, out);
}

void RuleExecutor::RunDriver(const CompiledRule& rule,
                             const DriverVariant& driver,
                             KeyRef delta_key, const Value& delta_cost,
                             std::vector<Derivation>* out) {
  if (stopped_) return;
  current_rule_ = &rule;
  Binding& binding = scratch_;
  binding.Reset(rule.num_slots);
  if (!MatchSeed(driver.seed, delta_key, delta_cost, &binding)) return;

  if (!driver.via_aggregate) {
    RunSchedule(rule, driver.rest, 0, &binding, out);
    return;
  }

  // Aggregate driver: locate the affected groups, then re-evaluate the rule
  // per group with *only* the grouping slots bound (the aggregate must see
  // its full multiset, so the seed's local bindings are dropped).
  std::vector<Tuple> groups;
  auto collect_group = [&]() {
    Tuple g;
    g.reserve(driver.grouping_slots.size());
    for (int s : driver.grouping_slots) {
      assert(binding.IsBound(s));
      g.push_back(binding.Get(s));
    }
    groups.push_back(std::move(g));
  };
  if (driver.group_finder.empty()) {
    collect_group();
  } else {
    EnumAtomList(driver.group_finder, 0, &binding, collect_group);
  }
  // Dedupe groups (a delta row can reach the same group many ways).
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());

  for (const Tuple& g : groups) {
    binding.Reset(rule.num_slots);
    for (size_t i = 0; i < driver.grouping_slots.size(); ++i) {
      binding.Set(driver.grouping_slots[i], g[i]);
    }
    RunSchedule(rule, driver.rest, 0, &binding, out);
  }
}

// ---------------------------------------------------------------------------
// Schedule interpretation
// ---------------------------------------------------------------------------

void RuleExecutor::RunSchedule(const CompiledRule& rule,
                               const Schedule& schedule, size_t idx,
                               Binding* binding,
                               std::vector<Derivation>* out) {
  if (stopped_) return;
  if (idx == schedule.size()) {
    EmitHead(rule, *binding, out);
    return;
  }
  const CompiledSubgoal& step = schedule[idx];
  ++subgoal_evals_;
  // Amortized deadline/cancellation poll: a single rule evaluation can be a
  // huge join, so round boundaries alone would make deadlines unresponsive.
  if (guard_ != nullptr && (subgoal_evals_ & 4095) == 0 &&
      guard_->Poll() != LimitKind::kNone) {
    stopped_ = true;
    return;
  }
  switch (step.kind) {
    case CompiledSubgoal::Kind::kAtom:
      EnumAtom(step.atom, binding,
               [&]() { RunSchedule(rule, schedule, idx + 1, binding, out); });
      return;
    case CompiledSubgoal::Kind::kNegatedAtom:
      if (NegationHolds(step.atom, *binding)) {
        RunSchedule(rule, schedule, idx + 1, binding, out);
      }
      return;
    case CompiledSubgoal::Kind::kBuiltin: {
      const CompiledBuiltin& b = step.builtin;
      if (b.assign_slot >= 0 && !binding->IsBound(b.assign_slot)) {
        std::optional<Value> v =
            EvalExpr(b.value_expr, b.value_expr.root(), *binding);
        if (!v.has_value()) return;
        binding->Set(b.assign_slot, std::move(*v));
        RunSchedule(rule, schedule, idx + 1, binding, out);
        binding->Clear(b.assign_slot);
        return;
      }
      std::optional<Value> l = EvalExpr(b.lhs, b.lhs.root(), *binding);
      std::optional<Value> r = EvalExpr(b.rhs, b.rhs.root(), *binding);
      if (!l.has_value() || !r.has_value()) return;
      if (EvalCompare(b.op, *l, *r)) {
        RunSchedule(rule, schedule, idx + 1, binding, out);
      }
      return;
    }
    case CompiledSubgoal::Kind::kAggregate: {
      const CompiledAggregate& agg = step.aggregate;

      // "=r" subgoals may reach this step with unbound grouping variables;
      // enumerate the non-empty groups from the inner conjunction, then
      // evaluate once per group.
      std::vector<int> unbound_groups;
      for (int g : agg.grouping_slots) {
        if (!binding->IsBound(g)) unbound_groups.push_back(g);
      }
      if (!unbound_groups.empty()) {
        std::vector<Tuple> groups;
        EnumAtomList(agg.inner, 0, binding, [&]() {
          Tuple g;
          g.reserve(agg.grouping_slots.size());
          for (int s : agg.grouping_slots) g.push_back(binding->Get(s));
          groups.push_back(std::move(g));
        });
        std::sort(groups.begin(), groups.end());
        groups.erase(std::unique(groups.begin(), groups.end()),
                     groups.end());
        for (const Tuple& g : groups) {
          for (size_t i = 0; i < agg.grouping_slots.size(); ++i) {
            binding->Set(agg.grouping_slots[i], g[i]);
          }
          EvalBoundAggregate(rule, schedule, idx, agg, binding, out);
        }
        for (int s : unbound_groups) binding->Clear(s);
        return;
      }
      EvalBoundAggregate(rule, schedule, idx, agg, binding, out);
      return;
    }
  }
}

void RuleExecutor::EvalBoundAggregate(const CompiledRule& rule,
                                      const Schedule& schedule, size_t idx,
                                      const CompiledAggregate& agg,
                                      Binding* binding,
                                      std::vector<Derivation>* out) {
  std::optional<Value> result;
  if (!EvalAggregateInto(agg, binding, &result)) return;
  const CostDomain* domain = agg.fn->output_domain();
  Value normalized = domain->Normalize(*result);
  if (agg.result.is_slot && !binding->IsBound(agg.result.slot)) {
    binding->Set(agg.result.slot, std::move(normalized));
    RunSchedule(rule, schedule, idx + 1, binding, out);
    binding->Clear(agg.result.slot);
    return;
  }
  const Value& expected = Resolve(agg.result, *binding);
  if (domain->Contains(expected) &&
      domain->Equal(domain->Normalize(expected), normalized)) {
    RunSchedule(rule, schedule, idx + 1, binding, out);
  }
}

void RuleExecutor::EmitHead(const CompiledRule& rule, const Binding& binding,
                            std::vector<Derivation>* out) {
  Derivation d;
  d.rule_index = rule.rule_index;
  d.pred = rule.head_pred;
  d.key.reserve(rule.head_key.size());
  for (const SlotTerm& t : rule.head_key) {
    d.key.push_back(Resolve(t, binding));
  }
  if (rule.head_cost.has_value()) {
    const Value& raw = Resolve(*rule.head_cost, binding);
    // Out-of-domain head costs (e.g. a negative value flowing into a
    // non-negative lattice) mean the ground instance has no satisfying cost;
    // drop the derivation rather than corrupting the lattice.
    if (!rule.head_pred->domain->Contains(raw)) return;
    d.cost = rule.head_pred->domain->Normalize(raw);
  }
  out->push_back(std::move(d));
}

bool RuleExecutor::NegationHolds(const CompiledAtom& atom,
                                 const Binding& binding) {
  Tuple& key = lookup_key_;
  key.clear();
  for (const SlotTerm& t : atom.key_args) {
    assert(!t.is_slot || binding.IsBound(t.slot));
    key.push_back(Resolve(t, binding));
  }
  const Relation* rel = db_->Find(atom.pred);
  const Value* stored = rel != nullptr ? rel->Find(key) : nullptr;

  if (!atom.pred->has_cost) {
    return stored == nullptr && (rel == nullptr || !rel->Contains(key));
  }
  // ¬p(k, c): default predicates always carry a value (stored or bottom);
  // others are absent when the key is absent.
  std::optional<Value> actual;
  if (stored != nullptr) {
    actual = *stored;
  } else if (atom.pred->has_default) {
    actual = atom.pred->domain->Bottom();
  }
  if (!actual.has_value()) return true;  // no atom with this key at all
  const Value& expected = Resolve(*atom.cost_arg, binding);
  if (!atom.pred->domain->Contains(expected)) return true;
  return !atom.pred->domain->Equal(atom.pred->domain->Normalize(expected),
                                   *actual);
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

bool RuleExecutor::EvalAggregateInto(const CompiledAggregate& agg,
                                     Binding* binding,
                                     std::optional<Value>* result) {
  std::vector<Value>& multiset = multiset_;
  multiset.clear();
  EnumAtomList(agg.inner, 0, binding, [&]() {
    if (agg.multiset_slot >= 0) {
      multiset.push_back(binding->Get(agg.multiset_slot));
    } else {
      // Implicit-presence aggregation (e.g. `N = count : q(X)`).
      multiset.push_back(Value::Bool(true));
    }
  });
  for (int s : agg.scoped_slots) binding->Clear(s);

  if (agg.restricted && multiset.empty()) return false;
  StatusOr<Value> applied = agg.fn->Apply(multiset);
  if (!applied.ok()) return false;  // e.g. avg over an empty "=" group
  *result = std::move(applied).value();
  return true;
}

// ---------------------------------------------------------------------------
// Seeds, expressions, comparisons
// ---------------------------------------------------------------------------

bool RuleExecutor::MatchSeed(const CompiledAtom& seed, KeyRef delta_key,
                             const Value& delta_cost, Binding* binding) {
  for (int i = 0; i < static_cast<int>(seed.key_args.size()); ++i) {
    const SlotTerm& t = seed.key_args[i];
    if (!t.is_slot) {
      if (!(t.constant == delta_key[i])) return false;
    } else if (binding->IsBound(t.slot)) {
      if (!(binding->Get(t.slot) == delta_key[i])) return false;
    } else {
      binding->Set(t.slot, delta_key[i]);
    }
  }
  if (seed.cost_arg.has_value()) {
    const SlotTerm& ct = *seed.cost_arg;
    if (ct.is_slot && !binding->IsBound(ct.slot)) {
      binding->Set(ct.slot, delta_cost);
    } else {
      const Value& expected = Resolve(ct, *binding);
      if (!seed.pred->domain->Contains(expected) ||
          !seed.pred->domain->Equal(seed.pred->domain->Normalize(expected),
                                    delta_cost)) {
        return false;
      }
    }
  }
  return true;
}

std::optional<Value> RuleExecutor::EvalExpr(const CompiledExpr& e, int node,
                                            const Binding& binding) {
  const CompiledExpr::Node& n = e.nodes[node];
  switch (n.kind) {
    case Expr::Kind::kConst:
      return n.constant;
    case Expr::Kind::kVar:
      if (!binding.IsBound(n.slot)) return std::nullopt;
      return binding.Get(n.slot);
    default: {
      std::optional<Value> l = EvalExpr(e, n.lhs, binding);
      std::optional<Value> r = EvalExpr(e, n.rhs, binding);
      if (!l.has_value() || !r.has_value()) return std::nullopt;
      bool lnum = l->is_numeric() || l->is_bool();
      bool rnum = r->is_numeric() || r->is_bool();
      if (!lnum || !rnum) return std::nullopt;
      bool as_int = l->is_int() && r->is_int();
      switch (n.kind) {
        case Expr::Kind::kAdd:
          return as_int ? Value::Int(l->int_value() + r->int_value())
                        : Value::Real(l->AsDouble() + r->AsDouble());
        case Expr::Kind::kSub:
          return as_int ? Value::Int(l->int_value() - r->int_value())
                        : Value::Real(l->AsDouble() - r->AsDouble());
        case Expr::Kind::kMul:
          return as_int ? Value::Int(l->int_value() * r->int_value())
                        : Value::Real(l->AsDouble() * r->AsDouble());
        case Expr::Kind::kDiv: {
          double denom = r->AsDouble();
          if (denom == 0.0) return std::nullopt;
          return Value::Real(l->AsDouble() / denom);
        }
        case Expr::Kind::kMin2:
          return Value::NumericCompare(*l, *r) <= 0 ? *l : *r;
        case Expr::Kind::kMax2:
          return Value::NumericCompare(*l, *r) >= 0 ? *l : *r;
        default:
          return std::nullopt;
      }
    }
  }
}


bool RuleExecutor::EvalCompare(CmpOp op, const Value& a, const Value& b) {
  bool anum = a.is_numeric() || a.is_bool();
  bool bnum = b.is_numeric() || b.is_bool();
  if (anum && bnum) {
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
    return false;
  }
  // Symbols and sets support only (in)equality.
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return !(a == b);
    default:
      return false;
  }
}

}  // namespace core
}  // namespace mad
