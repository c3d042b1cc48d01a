#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "lattice/cost_domain.h"
#include "util/string_util.h"

namespace mad {
namespace core {

using datalog::Relation;
using datalog::Tuple;
using datalog::TupleHash;
using lattice::NumericDomain;

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kSemiNaive:
      return "semi-naive";
    case Strategy::kGreedy:
      return "greedy";
  }
  return "?";
}

const char* CompletenessName(Completeness c) {
  switch (c) {
    case Completeness::kLeastModel:
      return "least-model";
    case Completeness::kUnderApproximation:
      return "under-approximation";
  }
  return "?";
}

void EvalStats::Accumulate(const EvalStats& other) {
  iterations += other.iterations;
  rule_evaluations += other.rule_evaluations;
  derivations += other.derivations;
  merges_new += other.merges_new;
  merges_increased += other.merges_increased;
  subgoal_evals += other.subgoal_evals;
  index_reuses += other.index_reuses;
  greedy_violations += other.greedy_violations;
  reached_fixpoint = reached_fixpoint && other.reached_fixpoint;
  if (limit_tripped == LimitKind::kNone) limit_tripped = other.limit_tripped;
  wall_seconds += other.wall_seconds;
}

std::string EvalStats::ToString() const {
  std::string out = StrPrintf(
      "iterations=%lld rule_evals=%lld derivations=%lld new=%lld "
      "increased=%lld subgoals=%lld index_reuses=%lld "
      "greedy_violations=%lld fixpoint=%s wall=%.4fs",
      static_cast<long long>(iterations),
      static_cast<long long>(rule_evaluations),
      static_cast<long long>(derivations),
      static_cast<long long>(merges_new),
      static_cast<long long>(merges_increased),
      static_cast<long long>(subgoal_evals),
      static_cast<long long>(index_reuses),
      static_cast<long long>(greedy_violations),
      reached_fixpoint ? "yes" : "NO", wall_seconds);
  if (limit_tripped != LimitKind::kNone) {
    out += StrPrintf(" limit=%s", LimitKindName(limit_tripped));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

void CollectExprConstants(const datalog::Expr& e, std::set<Value>* out) {
  switch (e.kind) {
    case datalog::Expr::Kind::kConst:
      out->insert(e.constant);
      return;
    case datalog::Expr::Kind::kVar:
      return;
    default:
      CollectExprConstants(*e.lhs, out);
      CollectExprConstants(*e.rhs, out);
  }
}

void CollectRuleConstants(const datalog::Rule& rule, std::set<Value>* out) {
  auto from_atom = [&](const datalog::Atom& a) {
    for (const datalog::Term& t : a.args) {
      if (t.is_const()) out->insert(t.constant);
    }
  };
  from_atom(rule.head);
  for (const datalog::Subgoal& sg : rule.body) {
    switch (sg.kind) {
      case datalog::Subgoal::Kind::kAtom:
      case datalog::Subgoal::Kind::kNegatedAtom:
        from_atom(sg.atom);
        break;
      case datalog::Subgoal::Kind::kAggregate:
        for (const datalog::Atom& a : sg.aggregate.atoms) from_atom(a);
        if (sg.aggregate.result.is_const()) {
          out->insert(sg.aggregate.result.constant);
        }
        break;
      case datalog::Subgoal::Kind::kBuiltin:
        CollectExprConstants(*sg.builtin.lhs, out);
        CollectExprConstants(*sg.builtin.rhs, out);
        break;
    }
  }
}

/// A provable upper bound on the fixpoint rounds of a bounded-chains
/// component, from the database at component entry. Every non-final round
/// performs at least one merge (a new key or a ⊑-increase), so
///   rounds  ≤  (#derivable keys) × (per-key chain height) + 2.
/// Keys are drawn from the active domain (every value in the database plus
/// the component's rule constants): at most A^arity per predicate. The
/// chain height is the certificate's static height, or — for selective cost
/// flows, which never mint new values — the number of distinct values in
/// play plus the lattice endpoints. Overflow saturates to INT64_MAX, which
/// the caller min()s with the configured guard.
int64_t BoundedChainRoundCap(const Program& program,
                             const analysis::Component& component,
                             const analysis::ComponentTermination& term,
                             const Database& db) {
  std::set<Value> values;  // active domain: keys, costs, rule constants
  for (const auto& [_, rel] : db.relations()) {
    for (size_t row = 0; row < rel->size(); ++row) {
      for (const Value& v : rel->key_at(row)) values.insert(v);
      if (rel->pred()->has_cost) values.insert(rel->cost_at(row));
    }
  }
  for (int ri : component.rule_indices) {
    CollectRuleConstants(program.rules()[ri], &values);
  }
  long double active = static_cast<long double>(values.size()) + 1.0L;

  long double height;
  if (term.chain_height >= 0) {
    height = static_cast<long double>(term.chain_height);
  } else {
    // Selective flow: per-key values ⊆ values in play ∪ {⊥, ⊤}.
    height = static_cast<long double>(values.size()) + 2.0L;
  }

  long double keys = 0.0L;
  for (const PredicateInfo* pred : component.predicates) {
    long double k = 1.0L;
    for (int i = 0; i < pred->key_arity(); ++i) k *= active;
    keys += k;
  }
  long double cap = keys * height + 2.0L;
  if (!std::isfinite(static_cast<double>(cap)) || cap > 9.0e18L) {
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>(cap);
}

}  // namespace

Engine::Engine(const Program& program, EvalOptions options)
    : program_(&program), options_(options), graph_(program) {}

StatusOr<EvalResult> Engine::Run(Database edb) const {
  EvalResult result;
  // The database is assembled BEFORE the static checks: semantic
  // certificates (and the bounded-chain round caps derived from them) are
  // only valid for the fact values the abstract interpreter has seen.
  result.db = std::move(edb);
  for (const datalog::Fact& f : program_->facts()) {
    MAD_RETURN_IF_ERROR(result.db.AddFact(f));
  }
  result.check = analysis::CheckProgram(*program_, graph_, "", &result.db);
  if (options_.validate) {
    // overall() fails exactly when check.diagnostics carries error-severity
    // findings. Warning- and note-level findings (termination, prefix
    // soundness, hygiene) stay recorded in result.check and evaluation
    // proceeds.
    MAD_RETURN_IF_ERROR(result.check.overall());
  }

  Provenance* prov = options_.track_provenance ? &result.provenance : nullptr;
  if (prov != nullptr) {
    // Everything present before evaluation is an EDB fact.
    for (const auto& [_, rel] : result.db.relations()) {
      for (size_t row = 0; row < rel->size(); ++row) {
        prov->Record(rel->pred(), static_cast<uint32_t>(row),
                     Provenance::kEdbFact);
      }
    }
  }

  result.component_stats.resize(graph_.components().size());
  ResourceGuard guard(options_.limits);

  // Static join-order planning: one PlanReport per run, costed from the
  // live EDB relation sizes, consumed read-only by every CompileComponent
  // below (including concurrent same-depth pipelining).
  CompileOrder order;
  order.mode = options_.join_order;
  std::unique_ptr<analysis::plan::PlanReport> plans;
  if (options_.join_order == JoinOrderMode::kPlanned) {
    plans = std::make_unique<analysis::plan::PlanReport>(
        analysis::plan::PlanProgram(
            *program_, graph_,
            analysis::plan::CardinalityEstimates::FromDatabase(*program_,
                                                               result.db)));
    order.plans = plans.get();
  }

  // Parallel evaluation applies to semi-naive fixpoints without provenance
  // (Provenance is single-writer). A pool of 1 would be pure overhead, so
  // anything else stays on the untouched serial path.
  std::unique_ptr<ThreadPool> pool;
  if (options_.num_threads > 1 && options_.strategy == Strategy::kSemiNaive &&
      !options_.track_provenance) {
    pool = std::make_unique<ThreadPool>(options_.num_threads);
    // Pre-create every head relation so evaluation never mutates the
    // relation map: concurrent merge shards and pipelined components then
    // only ever FindMutable existing nodes.
    for (const datalog::Rule& r : program_->rules()) {
      result.db.GetOrCreate(r.head.pred);
    }
  }
  int64_t index_reuses_before = 0;
  for (const auto& [_, rel] : result.db.relations()) {
    index_reuses_before += rel->index_reuses();
  }

  // Round-cap helper: components with a bounded-chains certificate get a
  // concrete cap derived from the database at component entry — hitting it
  // would falsify the certificate, whereas the blanket max_iterations guard
  // is merely a heuristic stop. Scans the whole database, so it must run
  // serially (before any same-depth fan-out).
  auto round_cap = [&](const analysis::Component& component) -> int64_t {
    int64_t max_iters = options_.max_iterations;
    for (const analysis::ComponentTermination& t :
         result.check.termination.components) {
      if (t.component_index != component.index ||
          t.verdict != analysis::TerminationVerdict::kBoundedChains) {
        continue;
      }
      max_iters = std::min(
          max_iters, BoundedChainRoundCap(*program_, component, t, result.db));
      break;
    }
    return max_iters;
  };

  auto run_one = [&](const analysis::Component& component,
                     int64_t max_iters) -> Status {
    EvalStats& cstats = result.component_stats[component.index];
    auto c0 = std::chrono::steady_clock::now();
    Status st = RunComponent(component, order, &result.db, &cstats, prov,
                             &guard, max_iters, pool.get());
    cstats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
            .count();
    return st;
  };

  // Folds one finished component's stats into the aggregate and translates a
  // tripped resource limit: certifiable (prefix-sound, non-greedy) trips
  // degrade the run to an under-approximation, everything else fails hard.
  // Returns true when the outer loop should stop.
  Status hard_error;
  auto settle = [&](const analysis::Component& component,
                    const Status& st) -> bool {
    EvalStats& cstats = result.component_stats[component.index];
    // Accumulate without double-counting wall time (it is re-measured).
    double saved = result.stats.wall_seconds;
    result.stats.Accumulate(cstats);
    result.stats.wall_seconds = saved;
    if (st.ok()) return false;
    if (st.code() != StatusCode::kResourceExhausted) {
      hard_error = st;
      return true;
    }
    // A resource limit tripped inside this component. The partial database
    // is certifiable exactly when the interrupted iteration is a prefix of
    // a monotone fixpoint computation: the component must be prefix-sound
    // and the strategy must actually iterate T_P from ⊥ (greedy settles
    // keys speculatively, so its intermediate states carry no guarantee).
    const analysis::ComponentVerdict& verdict =
        result.check.components[component.index];
    if (options_.strategy == Strategy::kGreedy || !verdict.prefix_sound) {
      hard_error = st;
      return true;
    }
    cstats.limit_tripped = guard.tripped();
    result.completeness = Completeness::kUnderApproximation;
    result.limit_tripped = guard.tripped();
    if (result.tripped_component < 0) {
      result.tripped_component = component.index;
    }
    result.stats.limit_tripped = guard.tripped();
    result.stats.reached_fixpoint = false;
    return true;
  };

  auto t0 = std::chrono::steady_clock::now();
  const std::vector<analysis::Component>& components = graph_.components();
  size_t ci = 0;
  bool stopped = false;
  while (ci < components.size() && !stopped) {
    // Maximal run of consecutive equal-depth components. Equal condensation
    // depth admits no path between the components in either direction, so
    // their fixpoints read disjoint inputs and write disjoint relations —
    // they may pipeline concurrently through the pool.
    size_t cj = ci + 1;
    while (cj < components.size() &&
           components[cj].depth == components[ci].depth) {
      ++cj;
    }
    std::vector<const analysis::Component*> group;
    for (size_t k = ci; k < cj; ++k) {
      if (!components[k].rule_indices.empty()) group.push_back(&components[k]);
    }
    ci = cj;
    if (group.empty()) continue;

    if (pool != nullptr && group.size() > 1) {
      std::vector<int64_t> caps(group.size());
      for (size_t g = 0; g < group.size(); ++g) caps[g] = round_cap(*group[g]);
      std::vector<Status> statuses(group.size());
      pool->ParallelFor(static_cast<int64_t>(group.size()),
                        [&](int, int64_t g) {
                          statuses[g] = run_one(*group[g], caps[g]);
                        });
      // Settle in component-index order so tripped_component is the
      // smallest interrupted index, matching the serial contract that
      // lower-indexed components hold their full least model.
      for (size_t g = 0; g < group.size(); ++g) {
        if (settle(*group[g], statuses[g])) stopped = true;
      }
    } else {
      for (const analysis::Component* component : group) {
        if (settle(*component, run_one(*component, round_cap(*component)))) {
          stopped = true;
          break;
        }
      }
    }
  }
  if (!hard_error.ok()) return hard_error;
  int64_t index_reuses_after = 0;
  for (const auto& [_, rel] : result.db.relations()) {
    index_reuses_after += rel->index_reuses();
  }
  result.stats.index_reuses = index_reuses_after - index_reuses_before;
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

Status Engine::RunComponent(const analysis::Component& component,
                            const CompileOrder& order, Database* db,
                            EvalStats* stats, Provenance* prov,
                            ResourceGuard* guard, int64_t max_iterations,
                            ThreadPool* pool) const {
  MAD_ASSIGN_OR_RETURN(std::vector<CompiledRule> rules,
                       CompileComponent(*program_, component, graph_, order));
  switch (options_.strategy) {
    case Strategy::kNaive:
      return RunNaive(rules, db, stats, prov, guard, max_iterations);
    case Strategy::kSemiNaive:
      return RunSemiNaive(rules, db, stats, prov, guard, max_iterations, pool);
    case Strategy::kGreedy:
      return RunGreedy(component, rules, db, stats, prov, guard);
  }
  return Status::Internal("unknown strategy");
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

void Engine::MergeOneDerivation(const Derivation& d, Database* db,
                                EvalStats* stats,
                                std::map<int, std::vector<uint32_t>>* delta,
                                Provenance* prov) const {
  Relation* rel = db->FindMutable(d.pred);
  if (rel == nullptr) rel = db->GetOrCreate(d.pred);
  if (options_.epsilon > 0 && d.pred->has_cost) {
    const Value* cur = rel->Find(d.key);
    if (cur != nullptr) {
      Value joined = d.pred->domain->Join(*cur, d.cost);
      if ((joined.is_numeric() || joined.is_bool()) &&
          (cur->is_numeric() || cur->is_bool()) &&
          std::fabs(joined.AsDouble() - cur->AsDouble()) < options_.epsilon) {
        return;  // converged within tolerance
      }
    }
  }
  uint32_t row = 0;
  Relation::MergeResult mr = rel->Merge(d.key, d.cost, &row);
  switch (mr) {
    case Relation::MergeResult::kNew:
      ++stats->merges_new;
      if (delta != nullptr) (*delta)[d.pred->id].push_back(row);
      if (prov != nullptr) prov->Record(d.pred, row, d.rule_index);
      break;
    case Relation::MergeResult::kIncreased:
      ++stats->merges_increased;
      if (delta != nullptr) (*delta)[d.pred->id].push_back(row);
      if (prov != nullptr) prov->Record(d.pred, row, d.rule_index);
      break;
    case Relation::MergeResult::kUnchanged:
      break;
  }
}

Status Engine::MergeDerivations(
    const std::vector<Derivation>& derivations, Database* db,
    EvalStats* stats, std::map<int, std::vector<uint32_t>>* delta,
    Provenance* prov, ResourceGuard* guard) const {
  for (const Derivation& d : derivations) {
    MergeOneDerivation(d, db, stats, delta, prov);
  }
  // Charge after merging: the batch is already safely in the database (any
  // subset of derivations stays ⊑-below the least model under monotone T_P),
  // so a trip loses no work.
  if (guard->active()) {
    LimitKind k = guard->ChargeTuples(static_cast<int64_t>(derivations.size()));
    if (k == LimitKind::kNone && guard->memory_limited()) {
      k = guard->ChargeMemory(db->ApproxBytes());
    }
    if (k != LimitKind::kNone) {
      return Status::ResourceExhausted(guard->Describe());
    }
  }
  return Status::OK();
}

namespace {

void DedupeDelta(std::map<int, std::vector<uint32_t>>* delta) {
  for (auto& [_, rows] : *delta) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
}

size_t DeltaSize(const std::map<int, std::vector<uint32_t>>& delta) {
  size_t n = 0;
  for (const auto& [_, rows] : delta) n += rows.size();
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// Naive: J <- T_P(J, I) until fixpoint
// ---------------------------------------------------------------------------

Status Engine::RunNaive(const std::vector<CompiledRule>& rules, Database* db,
                        EvalStats* stats, Provenance* prov,
                        ResourceGuard* guard, int64_t max_iterations) const {
  RuleExecutor exec(db);
  if (guard->active()) exec.set_guard(guard);
  std::vector<Derivation> buffer;
  // Unwinds on a tripped limit, keeping the stats coherent for the partial
  // run (Engine::Run decides whether the result is certifiable).
  auto stop = [&](Status st) {
    stats->subgoal_evals = exec.subgoal_evals();
    stats->reached_fixpoint = false;
    return st;
  };
  while (true) {
    if (stats->iterations >= max_iterations) {
      stats->reached_fixpoint = false;
      return Status::OK();
    }
    if (guard->ChargeRound(stats->iterations + 1) != LimitKind::kNone) {
      return stop(Status::ResourceExhausted(guard->Describe()));
    }
    ++stats->iterations;
    buffer.clear();
    for (const CompiledRule& rule : rules) {
      ++stats->rule_evaluations;
      exec.RunBase(rule, &buffer);
    }
    stats->derivations += static_cast<int64_t>(buffer.size());

    if (options_.check_cost_consistency) {
      // A single application of T_P may not derive two different costs for
      // one key (Definition 3.7).
      std::map<int, std::unordered_map<Tuple, Value, TupleHash>> seen;
      for (const Derivation& d : buffer) {
        if (!d.pred->has_cost) continue;
        auto [it, inserted] = seen[d.pred->id].emplace(d.key, d.cost);
        if (!inserted && !d.pred->domain->Equal(it->second, d.cost)) {
          return Status::CostConsistencyViolation(StrPrintf(
              "T_P derived both %s and %s for %s%s in one application",
              it->second.ToString().c_str(), d.cost.ToString().c_str(),
              d.pred->name.c_str(), datalog::TupleToString(d.key).c_str()));
        }
      }
    }

    std::map<int, std::vector<uint32_t>> delta;
    Status st = MergeDerivations(buffer, db, stats, &delta, prov, guard);
    if (st.code() == StatusCode::kResourceExhausted) return stop(st);
    MAD_RETURN_IF_ERROR(st);
    if (DeltaSize(delta) == 0) break;
  }
  stats->subgoal_evals = exec.subgoal_evals();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Semi-naive: delta-driven rounds
// ---------------------------------------------------------------------------

Status Engine::RunSemiNaive(const std::vector<CompiledRule>& rules,
                            Database* db, EvalStats* stats, Provenance* prov,
                            ResourceGuard* guard, int64_t max_iterations,
                            ThreadPool* pool) const {
  if (pool != nullptr && pool->num_participants() > 1 && prov == nullptr) {
    return RunSemiNaiveParallel(rules, db, stats, guard, max_iterations, pool);
  }
  RuleExecutor exec(db);
  if (guard->active()) exec.set_guard(guard);
  std::vector<Derivation> buffer;
  std::map<int, std::vector<uint32_t>> delta;
  auto stop = [&](Status st) {
    stats->subgoal_evals = exec.subgoal_evals();
    stats->reached_fixpoint = false;
    return st;
  };

  // Round 0: full evaluation against the (empty-CDB) initial interpretation;
  // the default extensions J_∅ are synthesized by the executor.
  if (guard->ChargeRound(1) != LimitKind::kNone) {
    return stop(Status::ResourceExhausted(guard->Describe()));
  }
  ++stats->iterations;
  for (const CompiledRule& rule : rules) {
    ++stats->rule_evaluations;
    buffer.clear();
    exec.RunBase(rule, &buffer);
    stats->derivations += static_cast<int64_t>(buffer.size());
    Status st = MergeDerivations(buffer, db, stats, &delta, prov, guard);
    if (st.code() == StatusCode::kResourceExhausted) return stop(st);
    MAD_RETURN_IF_ERROR(st);
  }

  while (DeltaSize(delta) > 0) {
    if (stats->iterations >= max_iterations) {
      stats->reached_fixpoint = false;
      return Status::OK();
    }
    if (guard->ChargeRound(stats->iterations + 1) != LimitKind::kNone) {
      return stop(Status::ResourceExhausted(guard->Describe()));
    }
    ++stats->iterations;
    DedupeDelta(&delta);
    std::map<int, std::vector<uint32_t>> next_delta;
    for (const CompiledRule& rule : rules) {
      for (const DriverVariant& driver : rule.drivers) {
        auto it = delta.find(driver.delta_pred->id);
        if (it == delta.end()) continue;
        const Relation* rel = db->Find(driver.delta_pred);
        for (uint32_t row : it->second) {
          ++stats->rule_evaluations;
          buffer.clear();
          // Current cost (possibly fresher than at delta-recording time —
          // monotonicity makes that harmless).
          exec.RunDriver(rule, driver, rel->key_at(row), rel->cost_at(row),
                         &buffer);
          stats->derivations += static_cast<int64_t>(buffer.size());
          Status st =
              MergeDerivations(buffer, db, stats, &next_delta, prov, guard);
          if (st.code() == StatusCode::kResourceExhausted) return stop(st);
          MAD_RETURN_IF_ERROR(st);
        }
      }
    }
    delta = std::move(next_delta);
  }
  stats->subgoal_evals = exec.subgoal_evals();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Parallel semi-naive: phased fan-out / sharded merge
// ---------------------------------------------------------------------------
//
// Soundness rests on two facts. (1) Relation::Merge is the lattice join, and
// joins commute and associate, so the set of derivations produced by a round
// can be folded into the database in any order — including split across
// shard owners — without changing the resulting interpretation (Tarski's
// theorem makes the least fixpoint unique regardless of the T_P application
// schedule). (2) Rounds are strictly phased: every executor of a fan-out
// phase reads the database frozen at the end of the previous merge phase.
// The serial evaluator lets later rules see earlier rules' merges within a
// round; phasing drops that intra-round visibility, but any derivation
// thereby missed is recovered through the delta drivers of a later round —
// the fixpoint, and hence Database::ToString(), is identical.
//
// Within a merge phase, derivations are sharded by head-predicate id, so
// each relation is touched by exactly one shard owner: merging needs no
// per-relation locks, and delta membership (row ∈ delta iff the join
// strictly raised the stored value) is independent of merge order.

Status Engine::RunSemiNaiveParallel(const std::vector<CompiledRule>& rules,
                                    Database* db, EvalStats* stats,
                                    ResourceGuard* guard,
                                    int64_t max_iterations,
                                    ThreadPool* pool) const {
  const int participants = pool->num_participants();
  const int shards = participants;  // shard key: pred->id % shards

  struct WorkerCtx {
    std::unique_ptr<RuleExecutor> exec;
    std::vector<Derivation> buffer;  ///< fan-out scratch, scattered per item
    std::vector<std::vector<Derivation>> by_shard;
    int64_t rule_evaluations = 0;
    int64_t derivations = 0;
  };
  std::vector<WorkerCtx> ctxs(participants);
  for (WorkerCtx& c : ctxs) {
    c.exec = std::make_unique<RuleExecutor>(db);
    if (guard->active()) c.exec->set_guard(guard);
    c.by_shard.resize(shards);
  }

  // Scan patterns this component's schedules can issue; forced before every
  // fan-out so concurrent scans find complete indexes under the shared lock.
  std::vector<ScanPattern> patterns;
  for (const CompiledRule& rule : rules) CollectScanPatterns(rule, &patterns);
  std::sort(patterns.begin(), patterns.end());
  patterns.erase(std::unique(patterns.begin(), patterns.end()),
                 patterns.end());
  auto force_indexes = [&]() {
    for (const ScanPattern& p : patterns) {
      const Relation* rel = db->Find(p.first);
      if (rel != nullptr) rel->ForceIndex(p.second);
    }
  };

  auto scatter = [&](WorkerCtx& c) {
    for (Derivation& d : c.buffer) {
      c.by_shard[d.pred->id % shards].push_back(std::move(d));
    }
    c.derivations += static_cast<int64_t>(c.buffer.size());
    c.buffer.clear();
  };

  // Merge phase: shard s folds every worker's bin s into the database.
  // Workers are visited in participant order for cache-friendly streaming;
  // the order is irrelevant to the outcome (joins commute).
  auto merge_phase =
      [&](std::map<int, std::vector<uint32_t>>* out_delta) -> Status {
    struct ShardOut {
      EvalStats stats;
      std::map<int, std::vector<uint32_t>> delta;
    };
    std::vector<ShardOut> outs(shards);
    pool->ParallelFor(shards, [&](int, int64_t s) {
      ShardOut& out = outs[s];
      for (WorkerCtx& c : ctxs) {
        for (const Derivation& d : c.by_shard[s]) {
          MergeOneDerivation(d, db, &out.stats, &out.delta, nullptr);
        }
      }
    });
    int64_t batch = 0;
    for (WorkerCtx& c : ctxs) {
      for (std::vector<Derivation>& bin : c.by_shard) {
        batch += static_cast<int64_t>(bin.size());
        bin.clear();
      }
    }
    for (ShardOut& out : outs) {
      stats->merges_new += out.stats.merges_new;
      stats->merges_increased += out.stats.merges_increased;
      // Shards partition predicate ids, so these delta maps are disjoint.
      for (auto& [pred_id, rows] : out.delta) {
        (*out_delta)[pred_id] = std::move(rows);
      }
    }
    // Charge after merging, like the serial path: the batch is already
    // safely in the database, so a trip loses no work.
    if (guard->active()) {
      LimitKind k = guard->ChargeTuples(batch);
      if (k == LimitKind::kNone && guard->memory_limited()) {
        k = guard->ChargeMemory(db->ApproxBytes());
      }
      if (k != LimitKind::kNone) {
        return Status::ResourceExhausted(guard->Describe());
      }
    }
    return Status::OK();
  };

  auto drain_ctx_stats = [&]() {
    for (WorkerCtx& c : ctxs) {
      stats->rule_evaluations += c.rule_evaluations;
      stats->derivations += c.derivations;
      stats->subgoal_evals += c.exec->subgoal_evals();
    }
  };
  auto stop = [&](Status st) {
    drain_ctx_stats();
    stats->reached_fixpoint = false;
    return st;
  };

  // Round 0: full evaluation of every rule against the (empty-CDB) initial
  // interpretation, one rule per work item.
  std::map<int, std::vector<uint32_t>> delta;
  if (guard->ChargeRound(1) != LimitKind::kNone) {
    return stop(Status::ResourceExhausted(guard->Describe()));
  }
  ++stats->iterations;
  force_indexes();
  pool->ParallelFor(static_cast<int64_t>(rules.size()),
                    [&](int p, int64_t i) {
                      WorkerCtx& c = ctxs[p];
                      ++c.rule_evaluations;
                      c.exec->RunBase(rules[i], &c.buffer);
                      scatter(c);
                    });
  {
    Status st = merge_phase(&delta);
    if (st.code() == StatusCode::kResourceExhausted) return stop(st);
    MAD_RETURN_IF_ERROR(st);
  }

  // Delta rounds: the driver work of a round — every (rule, driver,
  // delta-row) triple — is one flat item list fanned out across the pool.
  struct DriverItem {
    const CompiledRule* rule;
    const DriverVariant* driver;
    const Relation* rel;
    uint32_t row;
  };
  std::vector<DriverItem> items;
  while (DeltaSize(delta) > 0) {
    if (stats->iterations >= max_iterations) {
      drain_ctx_stats();
      stats->reached_fixpoint = false;
      return Status::OK();
    }
    if (guard->ChargeRound(stats->iterations + 1) != LimitKind::kNone) {
      return stop(Status::ResourceExhausted(guard->Describe()));
    }
    ++stats->iterations;
    DedupeDelta(&delta);
    items.clear();
    for (const CompiledRule& rule : rules) {
      for (const DriverVariant& driver : rule.drivers) {
        auto it = delta.find(driver.delta_pred->id);
        if (it == delta.end()) continue;
        const Relation* rel = db->Find(driver.delta_pred);
        for (uint32_t row : it->second) {
          items.push_back({&rule, &driver, rel, row});
        }
      }
    }
    force_indexes();
    pool->ParallelFor(static_cast<int64_t>(items.size()),
                      [&](int p, int64_t i) {
                        WorkerCtx& c = ctxs[p];
                        const DriverItem& item = items[i];
                        ++c.rule_evaluations;
                        // Current cost (possibly fresher than at
                        // delta-recording time — monotonicity makes that
                        // harmless).
                        c.exec->RunDriver(*item.rule, *item.driver,
                                          item.rel->key_at(item.row),
                                          item.rel->cost_at(item.row),
                                          &c.buffer);
                        scatter(c);
                      });
    std::map<int, std::vector<uint32_t>> next_delta;
    Status st = merge_phase(&next_delta);
    if (st.code() == StatusCode::kResourceExhausted) return stop(st);
    MAD_RETURN_IF_ERROR(st);
    delta = std::move(next_delta);
  }
  drain_ctx_stats();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Greedy (generalized Dijkstra, Section 5.4 / Ganguly-Greco-Zaniolo style)
// ---------------------------------------------------------------------------

Status Engine::RunGreedy(const analysis::Component& component,
                         const std::vector<CompiledRule>& rules, Database* db,
                         EvalStats* stats, Provenance* prov,
                         ResourceGuard* guard) const {
  // Applicability: every CDB predicate carries a cost from one *totally
  // ordered numeric* lattice family (all ascending or all descending).
  std::optional<bool> ascending;
  for (const PredicateInfo* p : component.predicates) {
    if (!p->has_cost) {
      return Status::InvalidArgument(StrPrintf(
          "greedy evaluation needs cost predicates; '%s' has no cost "
          "argument",
          p->name.c_str()));
    }
    const auto* num = dynamic_cast<const NumericDomain*>(p->domain);
    if (num == nullptr) {
      return Status::InvalidArgument(StrPrintf(
          "greedy evaluation needs numeric cost domains; '%s' uses %s",
          p->name.c_str(), std::string(p->domain->name()).c_str()));
    }
    if (ascending.has_value() && *ascending != num->ascending()) {
      return Status::InvalidArgument(
          "greedy evaluation needs one lattice direction per component");
    }
    ascending = num->ascending();
  }

  RuleExecutor exec(db);
  if (guard->active()) exec.set_guard(guard);
  std::vector<Derivation> buffer;

  // Entries ordered final-value-first: numeric ascending for min-style
  // (descending ⊑) domains, numeric descending for max-style domains.
  struct Entry {
    double sort_key;
    int pred_id;
    uint32_t row;
    double pushed_value;
    bool operator>(const Entry& o) const { return sort_key > o.sort_key; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::map<int, std::vector<bool>> settled;
  std::map<int, const PredicateInfo*> pred_by_id;
  for (const PredicateInfo* p : component.predicates) pred_by_id[p->id] = p;

  auto push_row = [&](const PredicateInfo* pred, uint32_t row) {
    const Relation* rel = db->Find(pred);
    double v = rel->cost_at(row).AsDouble();
    queue.push({*ascending ? -v : v, pred->id, row, v});
  };

  auto merge_greedy = [&]() -> Status {
    for (const Derivation& d : buffer) {
      Relation* rel = db->GetOrCreate(d.pred);
      uint32_t row = 0;
      // Peek: would this merge change a settled key?
      const Value* cur = rel->Find(d.key);
      if (cur != nullptr) {
        auto sit = settled.find(d.pred->id);
        std::optional<uint32_t> existing_row = rel->FindRow(d.key);
        if (sit != settled.end() && existing_row.has_value() &&
            *existing_row < sit->second.size() &&
            sit->second[*existing_row]) {
          if (!d.pred->domain->Equal(d.pred->domain->Join(*cur, d.cost),
                                     *cur)) {
            ++stats->greedy_violations;  // late improvement: greedy is lossy
          }
          continue;
        }
      }
      Relation::MergeResult mr = rel->Merge(d.key, d.cost, &row);
      if (mr == Relation::MergeResult::kNew) {
        ++stats->merges_new;
        if (prov != nullptr) prov->Record(d.pred, row, d.rule_index);
        push_row(d.pred, row);
      } else if (mr == Relation::MergeResult::kIncreased) {
        ++stats->merges_increased;
        if (prov != nullptr) prov->Record(d.pred, row, d.rule_index);
        push_row(d.pred, row);
      }
    }
    // Greedy intermediate states are never certifiable (settled keys may
    // already sit above the least model), so this trip becomes a hard
    // ResourceExhausted at the Run level — but it must still stop the run.
    if (guard->active()) {
      LimitKind k =
          guard->ChargeTuples(static_cast<int64_t>(buffer.size()));
      if (k == LimitKind::kNone && guard->memory_limited()) {
        k = guard->ChargeMemory(db->ApproxBytes());
      }
      if (k != LimitKind::kNone) {
        stats->reached_fixpoint = false;
        return Status::ResourceExhausted(guard->Describe());
      }
    }
    return Status::OK();
  };

  // Seed: full evaluation once.
  for (const CompiledRule& rule : rules) {
    ++stats->rule_evaluations;
    buffer.clear();
    exec.RunBase(rule, &buffer);
    stats->derivations += static_cast<int64_t>(buffer.size());
    MAD_RETURN_IF_ERROR(merge_greedy());
  }

  while (!queue.empty()) {
    Entry e = queue.top();
    queue.pop();
    const PredicateInfo* pred = pred_by_id[e.pred_id];
    const Relation* rel = db->Find(pred);
    double current = rel->cost_at(e.row).AsDouble();
    if (current != e.pushed_value) continue;  // stale entry
    std::vector<bool>& s = settled[e.pred_id];
    if (e.row >= s.size()) s.resize(rel->size(), false);
    if (s[e.row]) continue;
    s[e.row] = true;
    ++stats->iterations;
    // A pop is this strategy's round; poll occasionally so deadline and
    // cancellation bite even when few derivations are produced.
    if (guard->active() && (stats->iterations & 1023) == 0 &&
        guard->Poll() != LimitKind::kNone) {
      stats->reached_fixpoint = false;
      return Status::ResourceExhausted(guard->Describe());
    }

    for (const CompiledRule& rule : rules) {
      for (const DriverVariant& driver : rule.drivers) {
        if (driver.delta_pred != pred) continue;
        ++stats->rule_evaluations;
        buffer.clear();
        exec.RunDriver(rule, driver, rel->key_at(e.row), rel->cost_at(e.row),
                       &buffer);
        stats->derivations += static_cast<int64_t>(buffer.size());
        MAD_RETURN_IF_ERROR(merge_greedy());
      }
    }
  }
  stats->subgoal_evals = exec.subgoal_evals();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Incremental maintenance (monotone inserts)
// ---------------------------------------------------------------------------

StatusOr<EvalStats> Engine::Update(EvalResult* result,
                                   const std::vector<datalog::Fact>& facts,
                                   const ResourceLimits& limits) const {
  // Insert-only maintenance is exact only under the update-safety
  // discipline: no negation, fully monotonic aggregates, and no value
  // *increase* on a predicate some rule consumes antitonically (new keys
  // for such predicates are still fine — they only add ground instances).
  analysis::UpdateSafety safety = analysis::AnalyzeUpdateSafety(*program_);
  MAD_RETURN_IF_ERROR(safety.basic);

  EvalStats stats;
  ResourceGuard guard(limits);
  Provenance* prov =
      options_.track_provenance ? &result->provenance : nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  // Every return of `stats` goes through here, so each carries its wall time
  // (and the cumulative result->stats sums it, as for batch runs).
  auto finish = [&]() -> EvalStats {
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    result->stats.Accumulate(stats);
    return stats;
  };

  auto guard_increase = [&](const PredicateInfo* pred,
                            Relation::MergeResult mr) -> Status {
    if (mr == Relation::MergeResult::kIncreased &&
        safety.IncreaseUnsafe(pred)) {
      return Status::InvalidArgument(StrPrintf(
          "incremental update raised the value of an existing '%s' key, but "
          "a rule uses that value antitonically; recompute from scratch",
          pred->name.c_str()));
    }
    return Status::OK();
  };

  // Merge the new facts, recording the changed rows per predicate.
  std::map<int, std::vector<uint32_t>> global_delta;
  for (const datalog::Fact& f : facts) {
    Relation* rel = result->db.GetOrCreate(f.pred);
    Value cost;
    if (f.pred->has_cost) {
      if (!f.cost.has_value() || !f.pred->domain->Contains(*f.cost)) {
        return Status::InvalidArgument(StrPrintf(
            "bad incremental fact for '%s'", f.pred->name.c_str()));
      }
      cost = f.pred->domain->Normalize(*f.cost);
    }
    uint32_t row = 0;
    Relation::MergeResult mr = rel->Merge(f.key, cost, &row);
    MAD_RETURN_IF_ERROR(guard_increase(f.pred, mr));
    if (mr != Relation::MergeResult::kUnchanged) {
      global_delta[f.pred->id].push_back(row);
      if (prov != nullptr) prov->Record(f.pred, row, Provenance::kEdbFact);
      ++stats.merges_new;
    }
  }

  RuleExecutor exec(&result->db);
  if (guard.active()) exec.set_guard(&guard);
  std::vector<Derivation> buffer;

  // Update safety already guarantees full input-monotonicity, so a tripped
  // limit always degrades gracefully: the database is ⊑-below the
  // post-insert least model and the result is marked accordingly.
  auto degrade = [&](int component_index) -> EvalStats {
    stats.reached_fixpoint = false;
    stats.limit_tripped = guard.tripped();
    stats.subgoal_evals = exec.subgoal_evals();
    result->completeness = Completeness::kUnderApproximation;
    result->limit_tripped = guard.tripped();
    result->tripped_component = component_index;
    return finish();
  };

  // Plan join orders against the post-insert database (incremental deltas
  // see the same relation shapes batch evaluation would).
  CompileOrder order;
  order.mode = options_.join_order;
  std::unique_ptr<analysis::plan::PlanReport> plans;
  if (options_.join_order == JoinOrderMode::kPlanned) {
    plans = std::make_unique<analysis::plan::PlanReport>(
        analysis::plan::PlanProgram(
            *program_, graph_,
            analysis::plan::CardinalityEstimates::FromDatabase(*program_,
                                                               result->db)));
    order.plans = plans.get();
  }

  for (const analysis::Component& component : graph_.components()) {
    if (component.rule_indices.empty()) continue;
    MAD_ASSIGN_OR_RETURN(std::vector<CompiledRule> rules,
                         CompileComponent(*program_, component, graph_, order));
    // Seed with everything changed so far (EDB inserts + lower components),
    // then run delta rounds; changes feed both the next round and the
    // global delta consumed by higher components.
    std::map<int, std::vector<uint32_t>> delta = global_delta;
    int64_t component_rounds = 0;
    while (DeltaSize(delta) > 0) {
      if (stats.iterations >= options_.max_iterations) {
        stats.reached_fixpoint = false;
        return finish();
      }
      if (guard.ChargeRound(++component_rounds) != LimitKind::kNone) {
        return degrade(component.index);
      }
      ++stats.iterations;
      DedupeDelta(&delta);
      std::map<int, std::vector<uint32_t>> next_delta;
      for (const CompiledRule& rule : rules) {
        for (const DriverVariant& driver : rule.drivers) {
          auto it = delta.find(driver.delta_pred->id);
          if (it == delta.end()) continue;
          const Relation* rel = result->db.Find(driver.delta_pred);
          for (uint32_t row : it->second) {
            ++stats.rule_evaluations;
            buffer.clear();
            exec.RunDriver(rule, driver, rel->key_at(row),
                           rel->cost_at(row), &buffer);
            stats.derivations += static_cast<int64_t>(buffer.size());
            // Merge with the increase guard (derived increases on unsafe
            // predicates are just as unsound as inserted ones).
            for (const Derivation& d : buffer) {
              Relation* target = result->db.GetOrCreate(d.pred);
              uint32_t drow = 0;
              Relation::MergeResult mr = target->Merge(d.key, d.cost, &drow);
              MAD_RETURN_IF_ERROR(guard_increase(d.pred, mr));
              if (mr == Relation::MergeResult::kUnchanged) continue;
              if (mr == Relation::MergeResult::kNew) {
                ++stats.merges_new;
              } else {
                ++stats.merges_increased;
              }
              next_delta[d.pred->id].push_back(drow);
              if (prov != nullptr) prov->Record(d.pred, drow, d.rule_index);
            }
            if (guard.active()) {
              LimitKind k =
                  guard.ChargeTuples(static_cast<int64_t>(buffer.size()));
              if (k == LimitKind::kNone && guard.memory_limited()) {
                k = guard.ChargeMemory(result->db.ApproxBytes());
              }
              if (k != LimitKind::kNone) return degrade(component.index);
            }
          }
        }
      }
      for (const auto& [pred_id, rows] : next_delta) {
        auto& acc = global_delta[pred_id];
        acc.insert(acc.end(), rows.begin(), rows.end());
      }
      delta = std::move(next_delta);
    }
  }
  stats.subgoal_evals = exec.subgoal_evals();
  return finish();
}

// ---------------------------------------------------------------------------
// Point queries (demand analysis)
// ---------------------------------------------------------------------------

std::string QueryResult::ToString() const {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const datalog::Fact& f : rows) lines.push_back(f.ToString());
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

std::shared_ptr<const analysis::demand::DemandRewrite> Engine::CachedRewrite(
    const analysis::demand::DemandPattern& pattern,
    std::string* bailout_reason) const {
  const std::string key = pattern.pred->name + "^" + pattern.adornment;
  {
    std::lock_guard<std::mutex> lock(demand_mu_);
    auto it = demand_cache_.find(key);
    if (it != demand_cache_.end()) {
      if (it->second->ok) return it->second;
      *bailout_reason = it->second->bailout_reason;
      return nullptr;
    }
  }
  // Rewrite outside the lock — the analysis walks the whole cone and two
  // threads racing to the same pattern just produce identical entries.
  auto rw = std::make_shared<const analysis::demand::DemandRewrite>(
      analysis::demand::RewriteForPattern(*program_, graph_, pattern));
  {
    std::lock_guard<std::mutex> lock(demand_mu_);
    demand_cache_.emplace(key, rw);
  }
  if (!rw->ok) {
    *bailout_reason = rw->bailout_reason;
    return nullptr;
  }
  return rw;
}

StatusOr<QueryResult> Engine::Query(const datalog::Atom& query, Database edb,
                                    const QueryOptions& qopts) const {
  if (query.pred == nullptr) {
    return Status::InvalidArgument("query atom has no predicate");
  }
  if (program_->FindPredicate(query.pred->name) != query.pred) {
    return Status::InvalidArgument(StrPrintf(
        "query predicate '%s' does not belong to this engine's program",
        query.pred->name.c_str()));
  }
  if (static_cast<int>(query.args.size()) != query.pred->arity) {
    return Status::InvalidArgument(StrPrintf(
        "query %s: expected %d arguments", query.ToString().c_str(),
        query.pred->arity));
  }

  QueryResult out;
  out.pred = query.pred;
  analysis::demand::DemandPattern pattern =
      analysis::demand::PatternForQuery(query, &out.cost_widened);
  out.adornment = pattern.adornment;

  std::shared_ptr<const analysis::demand::DemandRewrite> rw;
  if (qopts.mode != QueryOptions::Mode::kFull) {
    rw = CachedRewrite(pattern, &out.bailout_reason);
    if (rw == nullptr && qopts.mode == QueryOptions::Mode::kDemand) {
      return Status::AnalysisError(StrPrintf(
          "demand mode requested but the rewrite for %s bailed out: %s",
          pattern.ToString().c_str(), out.bailout_reason.c_str()));
    }
  }

  EvalResult eval;
  const PredicateInfo* eval_pred = query.pred;
  if (rw != nullptr) {
    if (rw->seed_pred != nullptr) {
      datalog::Fact seed;
      seed.pred = rw->seed_pred;
      for (int pos : rw->bound_key_positions) {
        seed.key.push_back(query.args[pos].constant);
      }
      MAD_RETURN_IF_ERROR(edb.AddFact(seed));
    }
    // The rewrite already re-ran the full static checker on the rewritten
    // program (RewriteForPattern bails out otherwise) — skip re-validating
    // on every point query.
    EvalOptions demand_options = options_;
    demand_options.validate = false;
    if (qopts.limits != nullptr) demand_options.limits = *qopts.limits;
    Engine demand_engine(rw->rewritten, demand_options);
    MAD_ASSIGN_OR_RETURN(eval, demand_engine.Run(std::move(edb)));
    eval_pred = rw->rewritten.FindPredicate(query.pred->name);
    out.used_demand = true;
  } else if (qopts.limits != nullptr) {
    EvalOptions full_options = options_;
    full_options.limits = *qopts.limits;
    Engine full_engine(*program_, full_options);
    MAD_ASSIGN_OR_RETURN(eval, full_engine.Run(std::move(edb)));
  } else {
    MAD_ASSIGN_OR_RETURN(eval, Run(std::move(edb)));
  }
  out.stats = eval.stats;
  out.completeness = eval.completeness;

  // Read the answer off the (sliced or full) least model: rows matching the
  // query's bound key constants, post-filtered by a bound cost column.
  const datalog::Relation* rel = eval.db.Find(eval_pred);
  if (rel != nullptr) {
    std::vector<int> bound_pos;
    datalog::Tuple bound_vals;
    for (int i = 0; i < query.pred->key_arity(); ++i) {
      if (query.args[i].is_const()) {
        bound_pos.push_back(i);
        bound_vals.push_back(query.args[i].constant);
      }
    }
    const datalog::Term* cost_term = query.CostTerm();
    const bool filter_cost =
        cost_term != nullptr && cost_term->is_const();
    rel->Scan(bound_pos, bound_vals,
              [&](const datalog::Tuple& tkey, const datalog::Value& cost) {
                if (filter_cost && !(cost == cost_term->constant)) return;
                datalog::Fact f;
                f.pred = query.pred;
                f.key = tkey;
                if (query.pred->has_cost) f.cost = cost;
                out.rows.push_back(std::move(f));
              });
    std::sort(out.rows.begin(), out.rows.end(),
              [](const datalog::Fact& a, const datalog::Fact& b) {
                return a.key < b.key;
              });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

StatusOr<ParsedRun> ParseAndRun(std::string_view program_text,
                                EvalOptions options) {
  MAD_ASSIGN_OR_RETURN(Program parsed, datalog::ParseProgram(program_text));
  ParsedRun run;
  run.program = std::make_unique<Program>(std::move(parsed));
  Engine engine(*run.program, options);
  MAD_ASSIGN_OR_RETURN(run.result, engine.Run(Database()));
  return run;
}

std::optional<datalog::Value> LookupCost(const Program& program,
                                         const Database& db,
                                         std::string_view pred_name,
                                         const datalog::Tuple& key) {
  const PredicateInfo* pred = program.FindPredicate(pred_name);
  if (pred == nullptr) return std::nullopt;
  const Relation* rel = db.Find(pred);
  const Value* stored = rel != nullptr ? rel->Find(key) : nullptr;
  if (stored != nullptr) {
    return pred->has_cost ? *stored : Value::Bool(true);
  }
  if (pred->has_default) return pred->domain->Bottom();
  return std::nullopt;
}

}  // namespace core
}  // namespace mad
