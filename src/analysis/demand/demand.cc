#include "analysis/demand/demand.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "analysis/checker.h"
#include "analysis/plan/plan.h"
#include "util/string_util.h"

namespace mad {
namespace analysis {
namespace demand {

using datalog::Atom;
using datalog::Expr;
using datalog::Fact;
using datalog::PredicateInfo;
using datalog::Program;
using datalog::Rule;
using datalog::Subgoal;
using datalog::Term;

namespace {

/// Demand-pattern explosion guard: a program whose rules keep minting new
/// adornments (e.g. through argument permutations in recursion) is rewritten
/// only up to this many (pred, adornment) pairs, then bailed out (MAD025).
constexpr size_t kMaxPatterns = 128;

std::string MagicName(const DemandPattern& p) {
  return "m_" + p.pred->name + "_" + p.adornment;
}

/// Key adornment of `a` under the demand-bound variable set: constants and
/// bound variables are 'b'. Cost columns are never adorned (lattice policy).
std::string KeyAdornment(const Atom& a, const std::set<std::string>& bound) {
  std::string ad;
  int keys = a.pred->key_arity();
  ad.reserve(keys);
  for (int i = 0; i < keys; ++i) {
    const Term& t = a.args[i];
    ad += (t.is_const() || bound.count(t.var) > 0) ? 'b' : 'f';
  }
  return ad;
}

/// The rewrite builds a fresh Program, so every atom cloned from the
/// original must have its PredicateInfo pointer remapped by name.
class Remapper {
 public:
  explicit Remapper(const Program* target) : target_(target) {}

  void Remap(Atom* a) const { a->pred = target_->FindPredicate(a->pred->name); }

  void Remap(Subgoal* sg) const {
    switch (sg->kind) {
      case Subgoal::Kind::kAtom:
      case Subgoal::Kind::kNegatedAtom:
        Remap(&sg->atom);
        break;
      case Subgoal::Kind::kAggregate:
        for (Atom& a : sg->aggregate.atoms) Remap(&a);
        break;
      case Subgoal::Kind::kBuiltin:
        break;
    }
  }

  Rule Remap(const Rule& rule) const {
    Rule out = rule.Clone();
    Remap(&out.head);
    for (Subgoal& sg : out.body) Remap(&sg);
    return out;
  }

 private:
  const Program* target_;
};

/// Per-position meet of two adornments over the same predicate: a column is
/// bound only if both adornments bind it. Widening (fewer bound columns)
/// demands a superset of the tighter slice, so it is always sound.
std::string MeetAdornment(const std::string& a, const std::string& b) {
  std::string out = a;
  for (size_t i = 0; i < out.size() && i < b.size(); ++i) {
    if (b[i] != 'b') out[i] = 'f';
  }
  return out;
}

/// Bookkeeping for one in-flight rewrite. The rewrite keeps at most ONE
/// demand pattern per predicate: if propagation would mint a second
/// adornment for a predicate, the two are widened to their meet and the
/// whole rewrite restarts with that predicate pinned (see `forced`). One
/// pattern per predicate means one guarded copy per rule, which keeps the
/// conflict-freedom re-check (Definition 2.10) of the rewritten program
/// isomorphic to the original's — two copies of the same cost rule with
/// different guards would otherwise unify their heads with nothing to rule
/// the conflict out.
class Rewriter {
 public:
  Rewriter(const Program& program, const DependencyGraph& graph,
           const DemandPattern& query,
           std::map<const PredicateInfo*, std::string>* forced)
      : program_(program),
        graph_(graph),
        cards_(plan::CardinalityEstimates::FromProgram(program)),
        idb_(program.HeadPredicates()),
        forced_(forced) {
    result_.query_pattern = query;
  }

  bool needs_restart() const { return needs_restart_; }

  DemandRewrite Run() {
    if (!DeclareOriginalPredicates()) return std::move(result_);
    result_.query_pattern = Demand(result_.query_pattern);
    while (!queue_.empty() && result_.bailout_reason.empty() &&
           !needs_restart_) {
      DemandPattern p = queue_.front();
      queue_.pop_front();
      ProcessPattern(p);
    }
    if (needs_restart_) return std::move(result_);
    if (!result_.bailout_reason.empty()) return std::move(result_);
    EmitProgram();
    if (result_.query_pattern.HasBound()) {
      result_.seed_pred =
          result_.rewritten.FindPredicate(MagicName(result_.query_pattern));
    }
    for (int i = 0; i < result_.query_pattern.pred->key_arity(); ++i) {
      if (result_.query_pattern.adornment[i] == 'b') {
        result_.bound_key_positions.push_back(i);
      }
    }
    for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
      if (copied_rules_.count(static_cast<int>(ri)) == 0) {
        result_.unreachable_rules.push_back(static_cast<int>(ri));
      }
    }
    Certify();
    if (result_.bailout_reason.empty()) result_.ok = true;
    return std::move(result_);
  }

 private:
  void Bail(std::string reason) {
    if (result_.bailout_reason.empty()) {
      result_.bailout_reason = std::move(reason);
    }
  }

  bool IsIdb(const PredicateInfo* pred) const { return idb_.count(pred) > 0; }

  /// Redeclares every original predicate, in declaration order, so ids (and
  /// therefore Database relation keys) line up between the two programs.
  bool DeclareOriginalPredicates() {
    for (const auto& p : program_.predicates()) {
      PredicateInfo info;
      info.name = p->name;
      info.arity = p->arity;
      info.has_cost = p->has_cost;
      info.domain = p->domain;
      info.has_default = p->has_default;
      if (p->is_magic) {
        Bail(StrPrintf("predicate '%s' is already a magic predicate "
                       "(program was rewritten before)",
                       p->name.c_str()));
        return false;
      }
      auto declared = result_.rewritten.DeclarePredicate(std::move(info));
      if (!declared.ok()) {
        Bail("redeclaration failed: " + declared.status().ToString());
        return false;
      }
    }
    return true;
  }

  /// Registers demand for `p` (after applying any forced widening) and
  /// returns the pattern actually used. When a different adornment for the
  /// same predicate is already live, records the meet in `forced_` and flags
  /// a restart instead.
  DemandPattern Demand(DemandPattern p) {
    if (static_cast<int>(p.adornment.size()) != p.pred->key_arity()) {
      Bail(StrPrintf("adornment '%s' does not match key arity %d of '%s'",
                     p.adornment.c_str(), p.pred->key_arity(),
                     p.pred->name.c_str()));
      return p;
    }
    auto forced_it = forced_->find(p.pred);
    if (forced_it != forced_->end()) {
      p.adornment = MeetAdornment(p.adornment, forced_it->second);
    }
    auto chosen_it = chosen_.find(p.pred);
    if (chosen_it != chosen_.end()) {
      if (chosen_it->second == p.adornment) return p;
      // Second adornment for this predicate: widen to the meet and restart
      // with the predicate pinned. Each restart strictly clears bound bits,
      // so the outer loop terminates.
      (*forced_)[p.pred] = MeetAdornment(chosen_it->second, p.adornment);
      needs_restart_ = true;
      return p;
    }
    if (result_.patterns.size() >= kMaxPatterns) {
      Bail(StrPrintf("demand-pattern explosion: more than %zu distinct "
                     "(predicate, adornment) pairs",
                     kMaxPatterns));
      return p;
    }
    chosen_[p.pred] = p.adornment;
    result_.patterns.insert(p);
    if (p.HasBound()) {
      PredicateInfo magic;
      magic.name = MagicName(p);
      if (program_.FindPredicate(magic.name) != nullptr) {
        Bail(StrPrintf("magic predicate name '%s' collides with a declared "
                       "predicate",
                       magic.name.c_str()));
        return p;
      }
      magic.arity = p.BoundCount();
      magic.is_magic = true;
      auto declared = result_.rewritten.DeclarePredicate(std::move(magic));
      if (!declared.ok()) {
        Bail("magic declaration failed: " + declared.status().ToString());
        return p;
      }
    }
    queue_.push_back(p);
    return p;
  }

  /// The guard atom of a rule copy under head pattern `p`: the magic
  /// predicate applied to the head's key terms at the bound positions.
  Atom GuardFor(const Rule& rule, const DemandPattern& p) const {
    Atom guard;
    guard.pred = result_.rewritten.FindPredicate(MagicName(p));
    for (int i = 0; i < p.pred->key_arity(); ++i) {
      if (p.adornment[i] == 'b') guard.args.push_back(rule.head.args[i]);
    }
    return guard;
  }

  /// Emits the magic rule feeding `target` from the demanding atom `a`,
  /// guarded by the demanding rule's own magic guard plus the includable
  /// prefix. An empty body is legal only when every bound term is constant
  /// (the rule degenerates to a fact).
  void EmitMagicRule(const DemandPattern& target, const Atom& a,
                     const std::set<std::string>& bound,
                     const Atom* guard, const std::vector<int>& prefix,
                     const Rule& source_rule, MagicRuleSource src) {
    Rule magic;
    magic.head.pred = nullptr;  // resolved at emission (rewritten program)
    magic.head.args.clear();
    for (int i = 0; i < target.pred->key_arity(); ++i) {
      if (target.adornment[i] == 'b') magic.head.args.push_back(a.args[i]);
    }
    magic.source_line = source_rule.source_line;
    if (guard != nullptr) magic.body.push_back(Subgoal::Positive(*guard));
    for (int sg_index : prefix) {
      magic.body.push_back(source_rule.body[sg_index].Clone());
    }
    (void)bound;
    src.target = target;
    pending_magic_.push_back({std::move(magic), MagicName(target), src});
  }

  /// Processes one demanded (pred, adornment): emits a guarded copy of every
  /// rule with that head predicate and propagates demand into the bodies
  /// along the planner's SIPS order.
  void ProcessPattern(const DemandPattern& p) {
    for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
      const Rule& rule = program_.rules()[ri];
      if (rule.head.pred != p.pred) continue;
      ProcessRule(rule, static_cast<int>(ri), p);
      if (!result_.bailout_reason.empty() || needs_restart_) return;
    }
  }

  void ProcessRule(const Rule& rule, int rule_index, const DemandPattern& p) {
    // Head key variables at bound positions seed the SIPS.
    std::set<std::string> head_bound;
    for (int i = 0; i < p.pred->key_arity(); ++i) {
      if (p.adornment[i] == 'b' && rule.head.args[i].is_var()) {
        head_bound.insert(rule.head.args[i].var);
      }
    }
    plan::QueryPlan body_plan = plan::PlanRuleWithBound(
        rule, rule_index, graph_, cards_, head_bound);
    if (!body_plan.complete) {
      Bail(StrPrintf("rule %d (line %d) has no safe evaluation order under "
                     "adornment %s^%s",
                     rule_index, rule.source_line, p.pred->name.c_str(),
                     p.adornment.c_str()));
      return;
    }

    Atom guard;
    const Atom* guard_ptr = nullptr;
    if (p.HasBound()) {
      guard = GuardFor(rule, p);
      guard_ptr = &guard;
    }

    // Walk the planned order, maintaining the *demand-bound* variable set D
    // (a subset of the plan's bound set: only bindings from includable
    // steps count, so every demand adornment is justified by the magic rule
    // body that accompanies it — skipping a step widens demand, never
    // narrows it, which is the sound direction).
    std::set<std::string> dbound = head_bound;
    std::vector<int> prefix;  // includable subgoal indices, planned order
    for (const plan::PlanStep& step : body_plan.steps) {
      const Subgoal& sg = rule.body[step.subgoal_index];
      switch (sg.kind) {
        case Subgoal::Kind::kAtom: {
          const Atom& a = sg.atom;
          if (IsIdb(a.pred)) {
            DemandPattern sub = Demand({a.pred, KeyAdornment(a, dbound)});
            if (!result_.bailout_reason.empty() || needs_restart_) return;
            if (sub.HasBound()) {
              MagicRuleSource src;
              src.original_rule_index = rule_index;
              src.subgoal_index = step.subgoal_index;
              EmitMagicRule(sub, a, dbound, guard_ptr, prefix, rule, src);
            }
          }
          prefix.push_back(step.subgoal_index);
          for (const Term& t : a.args) {
            if (t.is_var()) dbound.insert(t.var);
          }
          break;
        }
        case Subgoal::Kind::kNegatedAtom: {
          // A negated IDB predicate's cone is evaluated in full: slicing the
          // complement of a partial relation is unsound, so demand all-free
          // and leave the step out of magic-rule prefixes.
          if (IsIdb(sg.atom.pred)) {
            Demand({sg.atom.pred,
                    std::string(sg.atom.pred->key_arity(), 'f')});
            if (!result_.bailout_reason.empty() || needs_restart_) return;
          }
          break;
        }
        case Subgoal::Kind::kBuiltin: {
          std::vector<std::string> vars = sg.builtin.Vars();
          bool all_bound = true;
          for (const std::string& v : vars) {
            all_bound = all_bound && dbound.count(v) > 0;
          }
          if (all_bound) {
            // Fully-bound filter: including it keeps magic sets tight.
            prefix.push_back(step.subgoal_index);
            break;
          }
          // Assignment V = expr with expr bound under D binds V.
          if (sg.builtin.op == datalog::CmpOp::kEq) {
            auto try_assign = [&](const Expr& var_side,
                                  const Expr& expr_side) -> bool {
              if (var_side.kind != Expr::Kind::kVar) return false;
              if (dbound.count(var_side.var) > 0) return false;
              std::vector<std::string> evars;
              expr_side.CollectVars(&evars);
              for (const std::string& v : evars) {
                if (dbound.count(v) == 0) return false;
              }
              dbound.insert(var_side.var);
              prefix.push_back(step.subgoal_index);
              return true;
            };
            if (try_assign(*sg.builtin.lhs, *sg.builtin.rhs) ||
                try_assign(*sg.builtin.rhs, *sg.builtin.lhs)) {
              break;
            }
          }
          // Not computable from demand-bound vars: skip (over-demand).
          break;
        }
        case Subgoal::Kind::kAggregate: {
          // Inner atoms are demanded through bound grouping variables only
          // (constants aside, an inner atom's key variable bound under D is
          // by definition a grouping variable — it occurs outside the
          // aggregate). The aggregate step itself never joins a magic-rule
          // prefix: magic predicates stay cost-free and the rewrite can
          // never introduce recursion through aggregation that the original
          // program did not have.
          for (size_t ai = 0; ai < sg.aggregate.atoms.size(); ++ai) {
            const Atom& a = sg.aggregate.atoms[ai];
            if (!IsIdb(a.pred)) continue;
            DemandPattern sub = Demand({a.pred, KeyAdornment(a, dbound)});
            if (!result_.bailout_reason.empty() || needs_restart_) return;
            if (sub.HasBound()) {
              MagicRuleSource src;
              src.original_rule_index = rule_index;
              src.subgoal_index = step.subgoal_index;
              src.aggregate_atom_index = static_cast<int>(ai);
              EmitMagicRule(sub, a, dbound, guard_ptr, prefix, rule, src);
            }
          }
          break;
        }
      }
    }

    pending_copies_.push_back({rule_index, p, guard_ptr != nullptr});
    copied_rules_.insert(rule_index);
  }

  /// Emits facts and rules into the rewritten program in deterministic
  /// order: original inline facts, then rule copies (original order, then
  /// adornment), then magic rules (discovery order).
  void EmitProgram() {
    Remapper remap(&result_.rewritten);
    // Integrity constraints are application-level promises about the same
    // predicates; the conflict-freedom re-check of the rewritten program
    // depends on them exactly as the original check did.
    for (const datalog::IntegrityConstraint& c : program_.constraints()) {
      datalog::IntegrityConstraint copy;
      copy.body.reserve(c.body.size());
      for (const Subgoal& sg : c.body) {
        Subgoal s = sg.Clone();
        remap.Remap(&s);
        copy.body.push_back(std::move(s));
      }
      result_.rewritten.AddConstraint(std::move(copy));
    }
    for (const Fact& f : program_.facts()) {
      Fact copy = f;
      copy.pred = result_.rewritten.FindPredicate(f.pred->name);
      result_.rewritten.AddFact(std::move(copy));
    }

    std::stable_sort(pending_copies_.begin(), pending_copies_.end(),
                     [](const PendingCopy& a, const PendingCopy& b) {
                       if (a.rule_index != b.rule_index) {
                         return a.rule_index < b.rule_index;
                       }
                       return a.pattern.adornment < b.pattern.adornment;
                     });
    for (const PendingCopy& pc : pending_copies_) {
      const Rule& original = program_.rules()[pc.rule_index];
      Rule copy = remap.Remap(original);
      if (pc.guarded) {
        Atom guard = GuardFor(original, pc.pattern);
        copy.body.insert(copy.body.begin(), Subgoal::Positive(guard));
      }
      RuleCopySource src;
      src.rewritten_rule_index =
          static_cast<int>(result_.rewritten.rules().size());
      src.original_rule_index = pc.rule_index;
      src.head_pattern = pc.pattern;
      src.guarded = pc.guarded;
      result_.copy_sources.push_back(src);
      result_.rewritten.AddRule(std::move(copy));
    }

    for (PendingMagic& pm : pending_magic_) {
      Rule magic = std::move(pm.rule);
      magic.head.pred = result_.rewritten.FindPredicate(pm.magic_name);
      Remapper r(&result_.rewritten);
      for (Subgoal& sg : magic.body) r.Remap(&sg);
      pm.source.rewritten_rule_index =
          static_cast<int>(result_.rewritten.rules().size());
      result_.magic_sources.push_back(pm.source);
      result_.rewritten.AddRule(std::move(magic));
    }
  }

  /// Static certification: the structural CertifyRewrite checks plus a full
  /// admissibility/monotonicity/absint re-check of the rewritten program.
  /// Any failure downgrades the whole rewrite to a bail-out — the caller
  /// falls back to full evaluation, never to an uncertified slice.
  void Certify() {
    Status structural = CertifyRewrite(program_, result_);
    if (!structural.ok()) {
      Bail("certification failed: " + std::string(structural.message()));
      return;
    }
    DependencyGraph rewritten_graph(result_.rewritten);
    ProgramCheckResult check =
        CheckProgram(result_.rewritten, rewritten_graph, "<demand-rewrite>");
    if (!check.overall().ok()) {
      Bail("rewritten program fails static checks: " +
           std::string(check.overall().message()));
    }
  }

  struct PendingCopy {
    int rule_index;
    DemandPattern pattern;
    bool guarded;
  };
  struct PendingMagic {
    Rule rule;
    std::string magic_name;
    MagicRuleSource source;
  };

  const Program& program_;
  const DependencyGraph& graph_;
  plan::CardinalityEstimates cards_;
  std::set<const PredicateInfo*> idb_;
  /// Cross-restart widening pins (owned by RewriteForPattern's driver loop).
  std::map<const PredicateInfo*, std::string>* forced_;
  /// The single adornment chosen for each predicate in this attempt.
  std::map<const PredicateInfo*, std::string> chosen_;
  bool needs_restart_ = false;
  DemandRewrite result_;
  std::deque<DemandPattern> queue_;
  std::vector<PendingCopy> pending_copies_;
  std::vector<PendingMagic> pending_magic_;
  std::set<int> copied_rules_;
};

}  // namespace

std::string DemandPattern::ToString() const {
  return (pred != nullptr ? pred->name : "?") + "^" + adornment;
}

std::string DemandRewrite::ToString() const {
  std::string out;
  if (!ok) {
    out += "demand rewrite: BAILOUT (" + bailout_reason + ")\n";
    return out;
  }
  out += "demand rewrite for " + query_pattern.ToString() + "\n";
  out += "  demanded patterns:";
  for (const DemandPattern& p : patterns) out += " " + p.ToString();
  out += "\n";
  if (!unreachable_rules.empty()) {
    out += "  unreachable rules:";
    for (int r : unreachable_rules) out += StrPrintf(" %d", r);
    out += "\n";
  }
  out += StrPrintf("  rewritten: %zu rules (%zu copies, %zu magic)\n",
                   rewritten.rules().size(), copy_sources.size(),
                   magic_sources.size());
  return out;
}

DemandPattern PatternForQuery(const datalog::Atom& query,
                              bool* cost_widened) {
  DemandPattern p;
  p.pred = query.pred;
  int keys = query.pred->key_arity();
  for (int i = 0; i < keys; ++i) {
    p.adornment += query.args[i].is_const() ? 'b' : 'f';
  }
  if (cost_widened != nullptr) {
    const Term* cost = query.CostTerm();
    *cost_widened = cost != nullptr && cost->is_const();
  }
  return p;
}

namespace {

/// Extends `columns` (seeded with one predicate) over `component` along the
/// rules; false as soon as some rule relates keys that differ there.
bool PropagateColumns(const Program& program, const Component& component,
                      std::map<const PredicateInfo*, int>* columns) {
  std::deque<const PredicateInfo*> queue;
  for (const auto& [pred, _] : *columns) queue.push_back(pred);
  while (!queue.empty()) {
    const PredicateInfo* p = queue.front();
    queue.pop_front();
    for (int ri : component.rule_indices) {
      const Rule& rule = program.rules()[ri];
      if (rule.head.pred != p) continue;
      const Term& head = rule.head.args[columns->at(p)];
      if (!head.is_var()) return false;
      const std::set<std::string> bound = {head.var};
      // True when `a` is outside the component or carries the head's
      // variable at its (possibly newly assigned) column.
      auto carries = [&](const Atom& a) {
        if (!component.ContainsPredicate(a.pred)) return true;
        const std::string ad = KeyAdornment(a, bound);
        auto it = columns->find(a.pred);
        if (it != columns->end()) {
          return ad[it->second] == 'b' && a.args[it->second].is_var();
        }
        for (int i = 0; i < a.pred->key_arity(); ++i) {
          if (ad[i] == 'b' && a.args[i].is_var()) {
            (*columns)[a.pred] = i;
            queue.push_back(a.pred);
            return true;
          }
        }
        return false;
      };
      for (const Subgoal& sg : rule.body) {
        switch (sg.kind) {
          case Subgoal::Kind::kAtom:
          case Subgoal::Kind::kNegatedAtom:
            if (!carries(sg.atom)) return false;
            break;
          case Subgoal::Kind::kAggregate: {
            const datalog::AggregateSubgoal& agg = sg.aggregate;
            bool inner = false;
            for (const Atom& a : agg.atoms) {
              if (!carries(a)) return false;
              inner = inner || component.ContainsPredicate(a.pred);
            }
            const bool grouping =
                std::find(agg.grouping_vars.begin(), agg.grouping_vars.end(),
                          head.var) != agg.grouping_vars.end();
            if (inner && (!grouping || agg.multiset_var == head.var)) {
              return false;
            }
            break;
          }
          case Subgoal::Kind::kBuiltin:
            break;
        }
      }
    }
  }
  return columns->size() == component.predicates.size();
}

}  // namespace

std::map<const PredicateInfo*, int> DecompositionColumns(
    const Program& program, const Component& component) {
  if (component.predicates.empty()) return {};
  const PredicateInfo* first = component.predicates.front();
  for (int k = 0; k < first->key_arity(); ++k) {
    std::map<const PredicateInfo*, int> columns = {{first, k}};
    if (PropagateColumns(program, component, &columns)) return columns;
  }
  return {};
}

DemandRewrite RewriteForPattern(const datalog::Program& program,
                                const DependencyGraph& graph,
                                const DemandPattern& pattern) {
  // Restart loop for one-pattern-per-predicate widening: each restart pins
  // at least one predicate to a strictly wider (fewer bound bits) adornment,
  // so the number of rounds is bounded by the total key-column count. The
  // cap is a safety net, not a budget.
  std::map<const datalog::PredicateInfo*, std::string> forced;
  DemandRewrite last;
  for (int round = 0; round < 64; ++round) {
    Rewriter rewriter(program, graph, pattern, &forced);
    last = rewriter.Run();
    if (!rewriter.needs_restart()) return last;
  }
  last.ok = false;
  if (last.bailout_reason.empty()) {
    last.bailout_reason =
        "demand widening failed to converge (restart cap exceeded)";
  }
  return last;
}

}  // namespace demand
}  // namespace analysis
}  // namespace mad
