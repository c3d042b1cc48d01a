#include "core/compiled_rule.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/string_util.h"

namespace mad {
namespace core {

using datalog::AggregateSubgoal;
using datalog::Atom;
using datalog::CmpOp;
using datalog::Expr;
using datalog::Subgoal;
using datalog::Term;

namespace {

/// Assigns dense slot ids to variable names on first use.
class SlotMap {
 public:
  int SlotOf(const std::string& var) {
    auto it = slots_.find(var);
    if (it != slots_.end()) return it->second;
    int s = static_cast<int>(names_.size());
    slots_.emplace(var, s);
    names_.push_back(var);
    return s;
  }
  SlotTerm Compile(const Term& t) {
    return t.is_var() ? SlotTerm::Slot(SlotOf(t.var))
                      : SlotTerm::Const(t.constant);
  }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::map<std::string, int> slots_;
  std::vector<std::string> names_;
};

CompiledAtom CompileAtom(const Atom& a, SlotMap* slots) {
  CompiledAtom out;
  out.pred = a.pred;
  int keys = a.pred->key_arity();
  for (int i = 0; i < keys; ++i) out.key_args.push_back(slots->Compile(a.args[i]));
  if (a.pred->has_cost) out.cost_arg = slots->Compile(a.args.back());
  return out;
}

/// Fills scan_positions: key positions bound at execution time.
void ComputeScanPositions(CompiledAtom* atom, const std::set<int>& bound) {
  atom->scan_positions.clear();
  for (int i = 0; i < static_cast<int>(atom->key_args.size()); ++i) {
    const SlotTerm& t = atom->key_args[i];
    if (!t.is_slot || bound.count(t.slot)) atom->scan_positions.push_back(i);
  }
}

/// Slots an atom binds (all of its slot arguments).
void AtomSlots(const CompiledAtom& atom, std::set<int>* out) {
  for (const SlotTerm& t : atom.key_args) {
    if (t.is_slot) out->insert(t.slot);
  }
  if (atom.cost_arg.has_value() && atom.cost_arg->is_slot) {
    out->insert(atom.cost_arg->slot);
  }
}

bool AtomKeysBound(const CompiledAtom& atom, const std::set<int>& bound) {
  for (const SlotTerm& t : atom.key_args) {
    if (t.is_slot && !bound.count(t.slot)) return false;
  }
  return true;
}

bool AtomFullyBound(const CompiledAtom& atom, const std::set<int>& bound) {
  if (!AtomKeysBound(atom, bound)) return false;
  if (atom.cost_arg.has_value() && atom.cost_arg->is_slot &&
      !bound.count(atom.cost_arg->slot)) {
    return false;
  }
  return true;
}

/// Appends `e`'s nodes to `out` in post-order; returns the index of its root.
int CompileExprNodes(const Expr& e, SlotMap* slots, CompiledExpr* out) {
  CompiledExpr::Node node;
  node.kind = e.kind;
  switch (e.kind) {
    case Expr::Kind::kConst:
      node.constant = e.constant;
      break;
    case Expr::Kind::kVar:
      node.slot = slots->SlotOf(e.var);
      break;
    default:
      node.lhs = CompileExprNodes(*e.lhs, slots, out);
      node.rhs = CompileExprNodes(*e.rhs, slots, out);
      break;
  }
  out->nodes.push_back(std::move(node));
  return out->root();
}

CompiledExpr CompileExpr(const Expr& e, SlotMap* slots) {
  CompiledExpr out;
  CompileExprNodes(e, slots, &out);
  return out;
}

/// A compiled built-in: a test when `assign_slot` < 0, otherwise the
/// assignment of `assign_slot` from `value_side`.
CompiledBuiltin CompileBuiltin(const datalog::BuiltinSubgoal& b, SlotMap* slots,
                               int assign_slot = -1,
                               const Expr* value_side = nullptr) {
  CompiledBuiltin out;
  out.op = b.op;
  out.lhs = CompileExpr(*b.lhs, slots);
  out.rhs = CompileExpr(*b.rhs, slots);
  out.assign_slot = assign_slot;
  if (value_side != nullptr) out.value_expr = CompileExpr(*value_side, slots);
  return out;
}

bool ExprBound(const Expr& e, SlotMap* slots, const std::set<int>& bound) {
  std::vector<std::string> vars;
  e.CollectVars(&vars);
  for (const std::string& v : vars) {
    if (!bound.count(slots->SlotOf(v))) return false;
  }
  return true;
}

/// Schedules the inner atom conjunction of an aggregate. `bound` is extended
/// with the slots the atoms bind.
Status ScheduleInnerAtoms(const std::vector<Atom>& atoms, SlotMap* slots,
                          std::set<int>* bound,
                          std::vector<CompiledAtom>* out) {
  std::vector<CompiledAtom> pending;
  pending.reserve(atoms.size());
  for (const Atom& a : atoms) pending.push_back(CompileAtom(a, slots));
  std::vector<bool> done(pending.size(), false);
  for (size_t scheduled = 0; scheduled < pending.size(); ++scheduled) {
    // Pick the ready atom with the most bound key positions (selectivity
    // heuristic); default-value atoms require fully bound keys.
    int best = -1;
    int best_bound = -1;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (done[i]) continue;
      if (pending[i].pred->has_default && !AtomKeysBound(pending[i], *bound)) {
        continue;
      }
      int nbound = 0;
      for (const SlotTerm& t : pending[i].key_args) {
        if (!t.is_slot || bound->count(t.slot)) ++nbound;
      }
      if (nbound > best_bound) {
        best = static_cast<int>(i);
        best_bound = nbound;
      }
    }
    if (best < 0) {
      return Status::Internal(
          "no safe order for aggregate inner conjunction (default-value "
          "keys unbound); is the rule range-restricted?");
    }
    ComputeScanPositions(&pending[best], *bound);
    AtomSlots(pending[best], bound);
    out->push_back(pending[best]);
    done[best] = true;
  }
  return Status::OK();
}

/// Compiles one aggregate subgoal given the currently bound slots.
StatusOr<CompiledAggregate> CompileAggregate(const AggregateSubgoal& agg,
                                             SlotMap* slots,
                                             std::set<int>* bound) {
  CompiledAggregate out;
  out.fn = agg.function;
  out.restricted = agg.restricted;
  out.result = slots->Compile(agg.result);
  if (!agg.multiset_var.empty()) {
    out.multiset_slot = slots->SlotOf(agg.multiset_var);
  }
  for (const std::string& g : agg.grouping_vars) {
    out.grouping_slots.push_back(slots->SlotOf(g));
  }
  std::set<int> inner_bound = *bound;
  MAD_RETURN_IF_ERROR(
      ScheduleInnerAtoms(agg.atoms, slots, &inner_bound, &out.inner));
  // Everything newly bound inside is scoped to the aggregation — except
  // grouping slots, which a "=r" subgoal may legitimately bind for the
  // rest of the rule.
  for (int s : inner_bound) {
    if (bound->count(s)) continue;
    if (std::find(out.grouping_slots.begin(), out.grouping_slots.end(), s) !=
        out.grouping_slots.end()) {
      continue;
    }
    out.scoped_slots.push_back(s);
  }
  for (int g : out.grouping_slots) bound->insert(g);
  if (out.result.is_slot) bound->insert(out.result.slot);
  return out;
}

/// The aggregate step's readiness condition. The "=" form needs every
/// grouping variable bound beforehand (else the group space is unbounded);
/// the "=r" form can enumerate its own non-empty groups from the inner
/// conjunction (Definition 2.5 limits =r grouping variables from inside).
bool AggregateReady(const AggregateSubgoal& agg, SlotMap* slots,
                    const std::set<int>& bound) {
  if (agg.restricted) return true;
  for (const std::string& g : agg.grouping_vars) {
    if (!bound.count(slots->SlotOf(g))) return false;
  }
  return true;
}

/// Side-effect-free readiness probe: the conditions under which CompileStep
/// can execute the subgoal with the slots bound so far. (SlotMap
/// lazily allocates slot ids for probed variables; that is idempotent and
/// harmless — every rule variable receives a slot eventually.)
bool SubgoalReady(const Subgoal& sg, SlotMap* slots,
                  const std::set<int>& bound) {
  switch (sg.kind) {
    case Subgoal::Kind::kBuiltin: {
      const auto& b = sg.builtin;
      if (ExprBound(*b.lhs, slots, bound) && ExprBound(*b.rhs, slots, bound)) {
        return true;
      }
      if (b.op != CmpOp::kEq) return false;
      auto assignable = [&](const Expr& var_side, const Expr& expr_side) {
        return var_side.kind == Expr::Kind::kVar &&
               !bound.count(slots->SlotOf(var_side.var)) &&
               ExprBound(expr_side, slots, bound);
      };
      return assignable(*b.lhs, *b.rhs) || assignable(*b.rhs, *b.lhs);
    }
    case Subgoal::Kind::kNegatedAtom:
      return AtomFullyBound(CompileAtom(sg.atom, slots), bound);
    case Subgoal::Kind::kAtom:
      return !sg.atom.pred->has_default ||
             AtomKeysBound(CompileAtom(sg.atom, slots), bound);
    case Subgoal::Kind::kAggregate:
      return AggregateReady(sg.aggregate, slots, bound);
  }
  return false;
}

/// Compiles the already-readiness-checked subgoal `sg` into a schedule step,
/// applying its binding effects to `bound`.
StatusOr<CompiledSubgoal> CompileStep(const Subgoal& sg, SlotMap* slots,
                                      std::set<int>* bound) {
  CompiledSubgoal step;
  switch (sg.kind) {
    case Subgoal::Kind::kBuiltin: {
      const auto& b = sg.builtin;
      step.kind = CompiledSubgoal::Kind::kBuiltin;
      if (ExprBound(*b.lhs, slots, *bound) &&
          ExprBound(*b.rhs, slots, *bound)) {
        step.builtin = CompileBuiltin(b, slots);
        return step;
      }
      // Assignment form; try lhs as the defined variable first.
      auto try_assign = [&](const Expr& var_side,
                            const Expr& expr_side) -> bool {
        if (var_side.kind != Expr::Kind::kVar) return false;
        int s = slots->SlotOf(var_side.var);
        if (bound->count(s)) return false;
        if (!ExprBound(expr_side, slots, *bound)) return false;
        step.builtin = CompileBuiltin(b, slots, s, &expr_side);
        bound->insert(s);
        return true;
      };
      if (try_assign(*b.lhs, *b.rhs) || try_assign(*b.rhs, *b.lhs)) {
        return step;
      }
      return Status::Internal("builtin scheduled while unready");
    }
    case Subgoal::Kind::kNegatedAtom: {
      CompiledAtom atom = CompileAtom(sg.atom, slots);
      ComputeScanPositions(&atom, *bound);
      step.kind = CompiledSubgoal::Kind::kNegatedAtom;
      step.atom = std::move(atom);
      return step;
    }
    case Subgoal::Kind::kAtom: {
      CompiledAtom atom = CompileAtom(sg.atom, slots);
      ComputeScanPositions(&atom, *bound);
      AtomSlots(atom, bound);
      step.kind = CompiledSubgoal::Kind::kAtom;
      step.atom = std::move(atom);
      return step;
    }
    case Subgoal::Kind::kAggregate: {
      MAD_ASSIGN_OR_RETURN(CompiledAggregate agg,
                           CompileAggregate(sg.aggregate, slots, bound));
      step.kind = CompiledSubgoal::Kind::kAggregate;
      step.aggregate = std::move(agg);
      return step;
    }
  }
  return Status::Internal("unknown subgoal kind");
}

/// Safe-order scheduling of a rule body. `skip` may name one subgoal index
/// to omit (the seed of an atom driver). `pref` ranks the body subgoals:
/// lower rank first among the *ready* ones. Readiness always wins over
/// preference, so any rank vector yields a safe schedule.
StatusOr<Schedule> ScheduleBody(const Rule& rule, SlotMap* slots,
                                std::set<int> bound,
                                const std::vector<int>& pref, int skip = -1) {
  const std::vector<Subgoal>& body = rule.body;
  std::vector<bool> done(body.size(), false);
  if (skip >= 0) done[skip] = true;
  size_t remaining = body.size() - (skip >= 0 ? 1 : 0);

  Schedule schedule;
  while (remaining > 0) {
    int pick = -1;
    for (size_t i = 0; i < body.size(); ++i) {
      if (done[i]) continue;
      if (pick >= 0 && pref[i] >= pref[pick]) continue;
      if (SubgoalReady(body[i], slots, bound)) pick = static_cast<int>(i);
    }
    if (pick < 0) {
      return Status::Internal(StrPrintf(
          "no safe evaluation order for rule '%s'; is it range-restricted?",
          rule.ToString().c_str()));
    }
    MAD_ASSIGN_OR_RETURN(CompiledSubgoal step,
                         CompileStep(body[pick], slots, &bound));
    done[pick] = true;
    --remaining;
    schedule.push_back(std::move(step));
  }
  return schedule;
}

}  // namespace

StatusOr<CompiledRule> CompileRule(const Rule& rule,
                                   const analysis::DependencyGraph& graph,
                                   JoinOrderMode mode,
                                   const analysis::plan::QueryPlan* plan) {
  CompiledRule out;
  out.source = &rule;
  SlotMap slots;

  // Preference ranks per body subgoal (lower = earlier among ready ones):
  // source position, overlaid under kPlanned with the static plan's order
  // when it covers the body exactly.
  std::vector<int> pref(rule.body.size());
  for (size_t i = 0; i < pref.size(); ++i) pref[i] = static_cast<int>(i);
  if (mode == JoinOrderMode::kPlanned && plan != nullptr) {
    std::vector<int> order = plan->Order();
    std::vector<bool> seen(rule.body.size(), false);
    bool usable = order.size() == rule.body.size();
    for (int idx : order) {
      if (!usable) break;
      if (idx < 0 || idx >= static_cast<int>(rule.body.size()) || seen[idx]) {
        usable = false;
        break;
      }
      seen[idx] = true;
    }
    if (usable) {
      for (size_t pos = 0; pos < order.size(); ++pos) {
        pref[order[pos]] = static_cast<int>(pos);
      }
    }
  }

  // Compile the head first so head variables get low slot ids.
  out.head_pred = rule.head.pred;
  for (int i = 0; i < rule.head.pred->key_arity(); ++i) {
    out.head_key.push_back(slots.Compile(rule.head.args[i]));
  }
  if (rule.head.pred->has_cost) {
    out.head_cost = slots.Compile(rule.head.args.back());
  }

  MAD_ASSIGN_OR_RETURN(out.base, ScheduleBody(rule, &slots, {}, pref));

  // Drivers: one per positive/aggregate-inner occurrence. CDB occurrences
  // drive ordinary semi-naive rounds; LDB ones only fire when Engine::Update
  // inserts new extensional facts.
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Subgoal& sg = rule.body[i];
    if (sg.kind == Subgoal::Kind::kAtom) {
      DriverVariant d;
      d.delta_pred = sg.atom.pred;
      d.cdb = graph.IsCdbFor(rule, sg.atom.pred);
      d.seed = CompileAtom(sg.atom, &slots);
      std::set<int> bound;
      AtomSlots(d.seed, &bound);
      MAD_ASSIGN_OR_RETURN(
          d.rest,
          ScheduleBody(rule, &slots, bound, pref, static_cast<int>(i)));
      out.drivers.push_back(std::move(d));
    } else if (sg.kind == Subgoal::Kind::kAggregate) {
      const AggregateSubgoal& agg = sg.aggregate;
      for (size_t j = 0; j < agg.atoms.size(); ++j) {
        DriverVariant d;
        d.via_aggregate = true;
        d.delta_pred = agg.atoms[j].pred;
        d.cdb = graph.IsCdbFor(rule, agg.atoms[j].pred);
        d.seed = CompileAtom(agg.atoms[j], &slots);
        for (const std::string& g : agg.grouping_vars) {
          d.grouping_slots.push_back(slots.SlotOf(g));
        }
        std::set<int> bound;
        AtomSlots(d.seed, &bound);
        // If the seed already binds all grouping variables the finder is
        // empty; otherwise join the remaining inner atoms to locate groups.
        bool need_finder = false;
        for (int g : d.grouping_slots) need_finder |= !bound.count(g);
        if (need_finder) {
          std::vector<Atom> others;
          for (size_t k = 0; k < agg.atoms.size(); ++k) {
            if (k != j) others.push_back(agg.atoms[k]);
          }
          MAD_RETURN_IF_ERROR(
              ScheduleInnerAtoms(others, &slots, &bound, &d.group_finder));
        }
        std::set<int> group_bound(d.grouping_slots.begin(),
                                  d.grouping_slots.end());
        MAD_ASSIGN_OR_RETURN(
            d.rest, ScheduleBody(rule, &slots, group_bound, pref));
        out.drivers.push_back(std::move(d));
      }
    }
  }

  out.num_slots = static_cast<int>(slots.names().size());
  out.slot_names = slots.names();
  return out;
}

StatusOr<std::vector<CompiledRule>> CompileComponent(
    const datalog::Program& program, const analysis::Component& component,
    const analysis::DependencyGraph& graph, const CompileOrder& order) {
  std::vector<CompiledRule> rules;
  rules.reserve(component.rule_indices.size());
  for (int ri : component.rule_indices) {
    const analysis::plan::QueryPlan* plan =
        order.plans != nullptr ? order.plans->ForRule(ri) : nullptr;
    MAD_ASSIGN_OR_RETURN(
        CompiledRule cr,
        CompileRule(program.rules()[ri], graph, order.mode, plan));
    cr.rule_index = ri;
    rules.push_back(std::move(cr));
  }
  return rules;
}

}  // namespace core
}  // namespace mad
