#include "analysis/absint/engine.h"

#include <algorithm>

#include "analysis/absint/binding.h"
#include "analysis/absint/transfer.h"
#include "analysis/admissibility.h"
#include "lattice/cost_domain.h"
#include "util/string_util.h"

namespace mad {
namespace analysis {
namespace absint {

namespace {

using datalog::Atom;
using datalog::CmpOp;
using datalog::Expr;
using datalog::PredicateInfo;
using datalog::Program;
using datalog::Rule;
using datalog::Subgoal;
using datalog::Term;
using datalog::Value;
using lattice::CostDomain;
using lattice::NumericDomain;

const NumericDomain* NumericDomainOf(const PredicateInfo* pred) {
  if (pred == nullptr || !pred->has_cost) return nullptr;
  return dynamic_cast<const NumericDomain*>(pred->domain);
}

Interval DomainBounds(const NumericDomain* num) {
  return Interval::Range(num->lo(), num->hi());
}

/// Abstract state: per cost predicate, the hull of every value it can hold
/// at any stage of the concrete iteration. Absent = no value reaches it.
using AbstractState = std::map<const PredicateInfo*, Interval>;

Interval PredInterval(const AbstractState& state, const PredicateInfo* pred) {
  auto it = state.find(pred);
  return it == state.end() ? Interval::Empty() : it->second;
}

void JoinInto(AbstractState* state, const PredicateInfo* pred,
              const Interval& iv) {
  if (iv.IsEmpty()) return;
  auto it = state->find(pred);
  if (it == state->end()) {
    state->emplace(pred, iv);
  } else {
    it->second = Join(it->second, iv);
  }
}

// ---------------------------------------------------------------------------
// Abstract rule evaluation
// ---------------------------------------------------------------------------

/// Variable environment of one abstract rule application. Absent = the
/// variable is unconstrained (⊤); an empty interval means no concrete
/// binding can reach the variable, so the rule never fires.
using VarEnv = std::map<std::string, Interval>;

Interval EnvLookup(const VarEnv& env, const std::string& var) {
  auto it = env.find(var);
  return it == env.end() ? Interval::All() : it->second;
}

/// Meets `iv` into the environment (a variable constrained by two subgoals
/// takes values in the intersection of both abstractions).
bool Constrain(VarEnv* env, const std::string& var, const Interval& iv) {
  auto it = env->find(var);
  if (it == env->end()) {
    env->emplace(var, iv);
    return true;
  }
  Interval met = Meet(it->second, iv);
  if (met == it->second) return false;
  it->second = met;
  return true;
}

Interval EvalExpr(const Expr& e, const VarEnv& env) {
  switch (e.kind) {
    case Expr::Kind::kConst:
      if (e.constant.is_numeric() || e.constant.is_bool()) {
        return Interval::Point(e.constant.AsDouble());
      }
      return Interval::All();  // symbolic constant: no numeric abstraction
    case Expr::Kind::kVar:
      return EnvLookup(env, e.var);
    case Expr::Kind::kAdd:
      return Add(EvalExpr(*e.lhs, env), EvalExpr(*e.rhs, env));
    case Expr::Kind::kSub:
      return Sub(EvalExpr(*e.lhs, env), EvalExpr(*e.rhs, env));
    case Expr::Kind::kMul:
      return Mul(EvalExpr(*e.lhs, env), EvalExpr(*e.rhs, env));
    case Expr::Kind::kDiv:
      return Div(EvalExpr(*e.lhs, env), EvalExpr(*e.rhs, env));
    case Expr::Kind::kMin2:
      return Min2(EvalExpr(*e.lhs, env), EvalExpr(*e.rhs, env));
    case Expr::Kind::kMax2:
      return Max2(EvalExpr(*e.lhs, env), EvalExpr(*e.rhs, env));
  }
  return Interval::All();
}

struct RuleAbstraction {
  /// Head cost interval (empty when some subgoal is abstractly
  /// unsatisfiable, e.g. an atom over a predicate with no facts yet).
  Interval head;
  /// Three-valued verdict per *check* built-in (body index); defining
  /// equalities are consumed as interval assignments instead.
  std::map<int, Truth> check_truth;
  /// Checks whose verdict rests on an empty operand interval — vacuously
  /// true because no fact value reaches the comparison at all. Vacuous
  /// truth is not evidence: it would certify any program over an empty
  /// database.
  std::set<int> vacuous_checks;
  std::vector<std::string> steps;
};

RuleAbstraction AbstractRule(const Rule& rule, const BindingInfo& binding,
                             const AbstractState& state) {
  RuleAbstraction out;
  VarEnv env;

  // Constraint-propagation passes: atoms and aggregates constrain their
  // cost variables, defining equalities evaluate their right-hand sides.
  // Each pass only meets intervals, so a handful of passes reaches the
  // greatest consistent environment for chains of definitions.
  size_t passes = rule.body.size() + 1;
  for (size_t pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Subgoal& sg = rule.body[i];
      switch (sg.kind) {
        case Subgoal::Kind::kAtom: {
          const NumericDomain* num = NumericDomainOf(sg.atom.pred);
          const Term* cost = sg.atom.CostTerm();
          if (num != nullptr && cost != nullptr && cost->is_var()) {
            changed |= Constrain(&env, cost->var,
                                 PredInterval(state, sg.atom.pred));
          }
          break;
        }
        case Subgoal::Kind::kNegatedAtom:
          break;  // carries no numeric information
        case Subgoal::Kind::kAggregate: {
          // Inner atoms constrain their own (possibly local) variables in
          // the same environment; the element interval is whatever the
          // multiset variable ends up with.
          for (const Atom& a : sg.aggregate.atoms) {
            const NumericDomain* num = NumericDomainOf(a.pred);
            const Term* cost = a.CostTerm();
            if (num != nullptr && cost != nullptr && cost->is_var()) {
              changed |= Constrain(&env, cost->var,
                                   PredInterval(state, a.pred));
            }
          }
          Interval element =
              sg.aggregate.multiset_var.empty()
                  ? Interval::Point(1.0)  // implicit boolean element
                  : EnvLookup(env, sg.aggregate.multiset_var);
          AggregateTransfer t = TransferAggregate(sg.aggregate, element);
          if (sg.aggregate.result.is_var()) {
            changed |= Constrain(&env, sg.aggregate.result.var, t.out);
          }
          break;
        }
        case Subgoal::Kind::kBuiltin: {
          if (!binding.IsDefining(static_cast<int>(i))) break;
          const Expr& lhs = *sg.builtin.lhs;
          const Expr& rhs = *sg.builtin.rhs;
          // The defining side is the bare variable (binding.cc picked it).
          if (lhs.kind == Expr::Kind::kVar) {
            changed |= Constrain(&env, lhs.var, EvalExpr(rhs, env));
          } else if (rhs.kind == Expr::Kind::kVar) {
            changed |= Constrain(&env, rhs.var, EvalExpr(lhs, env));
          }
          break;
        }
      }
    }
    if (!changed) break;
  }

  // Checks are evaluated three-valued but never refine the environment:
  // using a guard to narrow the intervals that then certify the same guard
  // would be circular.
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Subgoal& sg = rule.body[i];
    if (sg.kind != Subgoal::Kind::kBuiltin) continue;
    if (binding.IsDefining(static_cast<int>(i))) continue;
    Interval lhs = EvalExpr(*sg.builtin.lhs, env);
    Interval rhs = EvalExpr(*sg.builtin.rhs, env);
    Truth t = Compare(sg.builtin.op, lhs, rhs);
    out.check_truth[static_cast<int>(i)] = t;
    if (lhs.IsEmpty() || rhs.IsEmpty()) {
      out.vacuous_checks.insert(static_cast<int>(i));
    }
    out.steps.push_back(StrPrintf(
        "check %s: lhs %s, rhs %s — %s", sg.builtin.ToString().c_str(),
        lhs.ToString().c_str(), rhs.ToString().c_str(), TruthName(t)));
  }

  // Head interval.
  if (NumericDomainOf(rule.head.pred) != nullptr) {
    const Term* cost = rule.head.CostTerm();
    if (cost != nullptr) {
      out.head = cost->is_var() ? EnvLookup(env, cost->var)
                 : (cost->constant.is_numeric() || cost->constant.is_bool())
                     ? Interval::Point(cost->constant.AsDouble())
                     : Interval::All();
      // An abstractly unsatisfiable body (some constrained variable has an
      // empty interval) means the rule cannot fire at any stage.
      for (const auto& [_, iv] : env) {
        if (iv.IsEmpty()) {
          out.head = Interval::Empty();
          break;
        }
      }
      out.steps.push_back(
          StrPrintf("head %s cost ∈ %s", rule.head.pred->name.c_str(),
                    out.head.ToString().c_str()));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Flippability (mirror of the Definition 4.4 polarity check)
// ---------------------------------------------------------------------------

Sign NegateSign(Sign s) {
  switch (s) {
    case Sign::kUp:
      return Sign::kDown;
    case Sign::kDown:
      return Sign::kUp;
    default:
      return s;
  }
}

Sign AddSigns(Sign a, Sign b) {
  if (a == Sign::kFixed) return b;
  if (b == Sign::kFixed) return a;
  if (a == b) return a;
  return Sign::kUnknown;
}

/// Seeds for PolarityAnalysis, mirroring admissibility.cc's CdbCostVars:
/// cost variables of CDB atoms and results of CDB aggregates, signed by
/// their lattice direction.
std::map<std::string, Sign> PolaritySeeds(const Rule& rule,
                                          const DependencyGraph& graph) {
  std::map<std::string, Sign> seeds;
  auto seed = [&](const std::string& var, const CostDomain* domain) {
    const auto* num = dynamic_cast<const NumericDomain*>(domain);
    if (num == nullptr) {
      seeds[var] = Sign::kUnknown;
    } else {
      seeds[var] = num->ascending() ? Sign::kUp : Sign::kDown;
    }
  };
  for (const Subgoal& sg : rule.body) {
    switch (sg.kind) {
      case Subgoal::Kind::kAtom:
      case Subgoal::Kind::kNegatedAtom: {
        if (!graph.IsCdbFor(rule, sg.atom.pred)) break;
        const Term* cost = sg.atom.CostTerm();
        if (cost != nullptr && cost->is_var()) {
          seed(cost->var, sg.atom.pred->domain);
        }
        break;
      }
      case Subgoal::Kind::kAggregate: {
        bool cdb = false;
        for (const Atom& a : sg.aggregate.atoms) {
          cdb = cdb || graph.IsCdbFor(rule, a.pred);
        }
        if (cdb && sg.aggregate.result.is_var() &&
            sg.aggregate.function != nullptr) {
          seed(sg.aggregate.result.var,
               sg.aggregate.function->output_domain());
        }
        break;
      }
      case Subgoal::Kind::kBuiltin:
        break;
    }
  }
  return seeds;
}

/// True when the comparison can flip from satisfied to unsatisfied as the
/// CDB interpretation grows — the failure mode Definition 4.4 forbids.
/// Mirrors PolarityAnalysis::CheckComparisons: the lhs−rhs difference must
/// not move against the comparison's direction.
bool ComparisonCanFlip(CmpOp op, Sign lhs, Sign rhs) {
  Sign diff = AddSigns(lhs, NegateSign(rhs));
  switch (op) {
    case CmpOp::kGt:
    case CmpOp::kGe:
      return diff != Sign::kUp && diff != Sign::kFixed;
    case CmpOp::kLt:
    case CmpOp::kLe:
      return diff != Sign::kDown && diff != Sign::kFixed;
    case CmpOp::kEq:
    case CmpOp::kNe:
      return diff != Sign::kFixed;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Selective cost flow (bounded chains on infinite lattices)
// ---------------------------------------------------------------------------

/// True when `e` only selects among existing cost values and constants:
/// variables, constants, and min/max combinations thereof. Arithmetic
/// (+,−,×,÷) can manufacture fresh values and breaks the property.
bool SelectiveExpr(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kConst:
    case Expr::Kind::kVar:
      return true;
    case Expr::Kind::kMin2:
    case Expr::Kind::kMax2:
      return SelectiveExpr(*e.lhs) && SelectiveExpr(*e.rhs);
    default:
      return false;
  }
}

/// True when every cost value this rule can put in its head is drawn from
/// values already present in body predicates, rule constants, or selective
/// aggregates over them — so the rule never extends the set of cost values
/// in play, and per-key chains are bounded by the number of distinct values
/// at component entry.
bool RuleHasSelectiveCostFlow(const Rule& rule, const BindingInfo& binding) {
  if (!rule.head.pred->has_cost) return true;  // keys only: nothing to grow
  const Term* cost = rule.head.CostTerm();
  if (cost == nullptr) return true;
  if (cost->is_const()) return true;  // one fixed value
  const std::string& hv = cost->var;

  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Subgoal& sg = rule.body[i];
    switch (sg.kind) {
      case Subgoal::Kind::kAtom: {
        const Term* c = sg.atom.CostTerm();
        if (c != nullptr && c->is_var() && c->var == hv) return true;
        break;
      }
      case Subgoal::Kind::kAggregate:
        if (sg.aggregate.result.is_var() && sg.aggregate.result.var == hv) {
          return sg.aggregate.function != nullptr &&
                 IsSelective(*sg.aggregate.function);
        }
        break;
      case Subgoal::Kind::kBuiltin: {
        if (!binding.IsDefining(static_cast<int>(i))) break;
        const Expr& lhs = *sg.builtin.lhs;
        const Expr& rhs = *sg.builtin.rhs;
        if (lhs.kind == Expr::Kind::kVar && lhs.var == hv) {
          return SelectiveExpr(rhs);
        }
        if (rhs.kind == Expr::Kind::kVar && rhs.var == hv) {
          return SelectiveExpr(lhs);
        }
        break;
      }
      case Subgoal::Kind::kNegatedAtom:
        break;
    }
  }
  // The head variable is bound some other way (e.g. a key position);
  // conservatively treat the flow as generative.
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// CertifyProgram
// ---------------------------------------------------------------------------

CertificateReport CertifyProgram(const Program& program,
                                 const DependencyGraph& graph,
                                 const datalog::Database* edb,
                                 const AbsintOptions& options) {
  CertificateReport report;

  // Initial abstract state: the hull of every known fact value. A
  // certificate is relative to these values; callers evaluating against an
  // external database pass it here so the intervals cover its rows too.
  AbstractState state;
  for (const datalog::Fact& f : program.facts()) {
    const NumericDomain* num = NumericDomainOf(f.pred);
    if (num == nullptr || !f.cost.has_value()) continue;
    if (f.cost->is_numeric() || f.cost->is_bool()) {
      JoinInto(&state, f.pred, Interval::Point(f.cost->AsDouble()));
    }
  }
  if (edb != nullptr) {
    for (const auto& [_, rel] : edb->relations()) {
      const NumericDomain* num = NumericDomainOf(rel->pred());
      if (num == nullptr) continue;
      const PredicateInfo* pred = rel->pred();
      // Costs only: reading them by row skips materializing every key.
      for (size_t row = 0; row < rel->size(); ++row) {
        const Value& cost = rel->cost_at(row);
        if (cost.is_numeric() || cost.is_bool()) {
          JoinInto(&state, pred, Interval::Point(cost.AsDouble()));
        }
      }
    }
  }
  // Stored values always lie inside their declared domain.
  for (auto& [pred, iv] : state) {
    const NumericDomain* num = NumericDomainOf(pred);
    if (num != nullptr) iv = Meet(iv, DomainBounds(num));
  }

  for (const Component& component : graph.components()) {
    ComponentCertificate cert;
    cert.component_index = component.index;

    std::vector<const Rule*> rules;
    std::vector<BindingInfo> bindings;
    for (int ri : component.rule_indices) {
      rules.push_back(&program.rules()[ri]);
      bindings.push_back(AnalyzeBindings(*rules.back()));
    }

    // --- Abstract fixpoint with widening (simultaneous rounds, mirroring
    // the naive T_P iteration the soundness argument is phrased over).
    std::set<std::string> widened;
    for (int round = 0; round < options.max_rounds; ++round) {
      AbstractState next = state;
      for (size_t r = 0; r < rules.size(); ++r) {
        RuleAbstraction ra = AbstractRule(*rules[r], bindings[r], state);
        const NumericDomain* num = NumericDomainOf(rules[r]->head.pred);
        if (num != nullptr) {
          JoinInto(&next, rules[r]->head.pred, Meet(ra.head,
                                                    DomainBounds(num)));
        }
      }
      bool changed = false;
      for (const PredicateInfo* pred : component.predicates) {
        Interval before = PredInterval(state, pred);
        Interval after = PredInterval(next, pred);
        if (round >= options.widen_after) {
          Interval wide = Widen(before, after);
          if (wide != after) {
            widened.insert(pred->name);
            const NumericDomain* num = NumericDomainOf(pred);
            if (num != nullptr) wide = Meet(wide, DomainBounds(num));
          }
          after = wide;
        }
        if (after != before) {
          changed = true;
          if (!after.IsEmpty()) state[pred] = after;
        }
      }
      if (!changed) break;
    }
    cert.widened = !widened.empty();
    cert.widened_predicates.assign(widened.begin(), widened.end());

    // --- Final pass: traces, check verdicts, certification.
    std::vector<RuleAbstraction> finals;
    for (size_t r = 0; r < rules.size(); ++r) {
      finals.push_back(AbstractRule(*rules[r], bindings[r], state));
      RuleTrace trace;
      trace.rule_index = component.rule_indices[r];
      trace.span = rules[r]->span;
      trace.steps = bindings[r].steps;
      trace.steps.insert(trace.steps.end(), finals.back().steps.begin(),
                         finals.back().steps.end());
      cert.traces.push_back(std::move(trace));
    }

    bool any_inadmissible = false;
    bool all_discharged = true;
    datalog::SourceSpan certifying_span;
    for (size_t r = 0; r < rules.size() && all_discharged; ++r) {
      const Rule& rule = *rules[r];
      RuleAdmissibility adm = CheckRuleAdmissible(rule, graph);
      if (adm.admissible()) continue;
      any_inadmissible = true;

      // Only Definition 4.4 *comparison* violations are dischargeable: the
      // interval fixpoint can prove a guard never flips, but it cannot
      // repair negation, a non-monotonic aggregate, or a head value moving
      // against its lattice.
      for (const AdmissibilityViolation& v : adm.violations) {
        if (v.aspect != AdmissibilityAspect::kBuiltin) {
          all_discharged = false;
          cert.reason = StrPrintf("rule #%d: [%s] %s",
                                  component.rule_indices[r],
                                  AdmissibilityAspectName(v.aspect),
                                  v.message.c_str());
          cert.span = v.span;
          break;
        }
      }
      if (!all_discharged) break;

      // Every comparison the polarity analysis cannot pin down must be
      // interval-stable. (Re-deriving the flippable set instead of parsing
      // the violation keeps the criterion independent of message text.)
      PolarityAnalysis polarity(rule, PolaritySeeds(rule, graph));
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Subgoal& sg = rule.body[i];
        if (sg.kind != Subgoal::Kind::kBuiltin) continue;
        if (bindings[r].IsDefining(static_cast<int>(i))) continue;
        Sign ls = polarity.ExprSign(*sg.builtin.lhs);
        Sign rs = polarity.ExprSign(*sg.builtin.rhs);
        if (!ComparisonCanFlip(sg.builtin.op, ls, rs)) continue;
        auto it = finals[r].check_truth.find(static_cast<int>(i));
        Truth t = it == finals[r].check_truth.end() ? Truth::kUnknown
                                                    : it->second;
        bool vacuous = finals[r].vacuous_checks.count(static_cast<int>(i)) > 0;
        if (t != Truth::kAlwaysTrue || vacuous) {
          all_discharged = false;
          cert.reason =
              vacuous
                  ? StrPrintf(
                        "rule #%d: comparison %s is only vacuously true — no "
                        "fact value reaches it",
                        component.rule_indices[r],
                        sg.builtin.ToString().c_str())
                  : StrPrintf(
                        "rule #%d: comparison %s is %s over the abstract "
                        "fixpoint",
                        component.rule_indices[r],
                        sg.builtin.ToString().c_str(), TruthName(t));
          cert.span = rule.span;
          break;
        }
        certifying_span = rule.span;
        cert.traces[r].steps.push_back(
            StrPrintf("discharged guard %s: always-true at every stage",
                      sg.builtin.ToString().c_str()));
      }
    }

    if (!any_inadmissible) {
      cert.kind = CertificateKind::kSyntacticallyAdmissible;
    } else if (all_discharged) {
      cert.kind = CertificateKind::kSemanticallyMonotonic;
      cert.span = certifying_span;
      cert.reason =
          "every Definition 4.4 comparison violation is interval-stable at "
          "all iteration stages";
    } else {
      cert.kind = CertificateKind::kUncertified;
    }

    // --- Chain analysis: bounded ascent despite an infinite lattice.
    bool all_numeric = true;
    bool all_integral = true;
    bool intervals_finite = true;
    long long height = 0;
    for (const PredicateInfo* pred : component.predicates) {
      if (!pred->has_cost) continue;
      const NumericDomain* num = NumericDomainOf(pred);
      if (num == nullptr) {
        all_numeric = false;
        all_integral = false;
        break;
      }
      if (!num->integral()) all_integral = false;
      Interval iv = PredInterval(state, pred);
      cert.predicate_intervals[pred->name] = iv;
      long long points = iv.IntegerPoints();
      if (points < 0) {
        intervals_finite = false;
      } else {
        height = std::max(height, points);
      }
    }
    bool selective = all_numeric;
    for (size_t r = 0; r < rules.size() && selective; ++r) {
      selective = RuleHasSelectiveCostFlow(*rules[r], bindings[r]);
    }
    if (all_numeric && all_integral && intervals_finite) {
      // The widened fixpoint pins every cost predicate to finitely many
      // integral points: chains are statically bounded.
      cert.chains_bounded = true;
      cert.static_chain_height = std::max(height, 1LL);
    } else if (selective) {
      // Selective flows never mint new cost values; the chain height is
      // the number of distinct values at component entry (runtime bound).
      cert.chains_bounded = true;
      cert.static_chain_height = -1;
    }

    report.components.push_back(std::move(cert));
  }
  return report;
}

}  // namespace absint
}  // namespace analysis
}  // namespace mad
