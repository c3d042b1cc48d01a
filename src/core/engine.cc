#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <set>
#include <unordered_map>

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
  partitions = std::max(partitions, other.partitions);
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
  if (partitions > 1) out += StrPrintf(" partitions=%d", partitions);
  if (limit_tripped != LimitKind::kNone) {
    out += StrPrintf(" limit=%s", LimitKindName(limit_tripped));
  }
  return out;
}

int EffectiveThreads(int num_threads) {
  return std::clamp(num_threads, 1, kMaxThreads);
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
    : program_(&program), options_(options), graph_(program) {
  options_.num_threads = EffectiveThreads(options_.num_threads);
  if (options_.num_threads == 1 || options_.strategy != Strategy::kSemiNaive ||
      options_.track_provenance) {
    return;
  }
  partition_columns_.resize(graph_.components().size());
  for (const analysis::Component& component : graph_.components()) {
    // A non-recursive component is all round 0, which every partition would
    // evaluate in full only to keep its own share: no gain.
    if (!component.recursive) continue;
    const std::map<const PredicateInfo*, int> columns =
        analysis::demand::DecompositionColumns(program, component);
    if (columns.empty()) continue;
    std::vector<int>& by_id = partition_columns_[component.index];
    by_id.assign(program.predicates().size(), -1);
    for (const auto& [pred, column] : columns) by_id[pred->id] = column;
  }
}

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
  // below.
  std::unique_ptr<analysis::plan::PlanReport> plans;
  const CompileOrder order = JoinOrderFor(result.db, &plans);

  // The pool runs the partitions of decomposed components; the constructor
  // found none when the options rule partitioning out.
  std::unique_ptr<ThreadPool> pool;
  if (std::any_of(partition_columns_.begin(), partition_columns_.end(),
                  [](const std::vector<int>& c) { return !c.empty(); })) {
    pool = std::make_unique<ThreadPool>(options_.num_threads);
  }
  int64_t index_reuses_before = 0;
  for (const auto& [_, rel] : result.db.relations()) {
    index_reuses_before += rel->index_reuses();
  }

  // Components with a bounded-chains certificate get a concrete round cap
  // derived from the database at component entry — hitting it would
  // falsify the certificate, whereas the blanket max_iterations guard is
  // merely a heuristic stop.
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

  auto t0 = std::chrono::steady_clock::now();
  for (const analysis::Component& component : graph_.components()) {
    if (component.rule_indices.empty()) continue;
    EvalStats& cstats = result.component_stats[component.index];
    const int64_t max_iters = round_cap(component);
    auto c0 = std::chrono::steady_clock::now();
    Status st = RunComponent(component, order, &result.db, &cstats, prov,
                             &guard, max_iters, pool.get());
    cstats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
            .count();
    // Accumulate without double-counting wall time (it is re-measured).
    const double saved = result.stats.wall_seconds;
    result.stats.Accumulate(cstats);
    result.stats.wall_seconds = saved;
    if (st.ok()) continue;
    // A resource limit tripped inside this component. The partial database
    // is certifiable exactly when the interrupted iteration is a prefix of
    // a monotone fixpoint computation: the component must be prefix-sound
    // and the strategy must actually iterate T_P from ⊥ (greedy settles
    // keys speculatively, so its intermediate states carry no guarantee).
    // Anything else fails hard.
    if (st.code() != StatusCode::kResourceExhausted ||
        options_.strategy == Strategy::kGreedy ||
        !result.check.components[component.index].prefix_sound) {
      return st;
    }
    cstats.limit_tripped = guard.tripped();
    result.completeness = Completeness::kUnderApproximation;
    result.limit_tripped = guard.tripped();
    result.tripped_component = component.index;
    result.stats.limit_tripped = guard.tripped();
    result.stats.reached_fixpoint = false;
    break;
  }
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

CompileOrder Engine::JoinOrderFor(
    const Database& db,
    std::unique_ptr<analysis::plan::PlanReport>* plans) const {
  CompileOrder order;
  order.mode = options_.join_order;
  if (order.mode == JoinOrderMode::kPlanned) {
    *plans = std::make_unique<analysis::plan::PlanReport>(
        analysis::plan::PlanProgram(
            *program_, graph_,
            analysis::plan::CardinalityEstimates::FromDatabase(*program_,
                                                               db)));
    order.plans = plans->get();
  }
  return order;
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
      if (pool != nullptr && !partition_columns_[component.index].empty()) {
        return RunPartitioned(component, rules,
                              partition_columns_[component.index], db, stats,
                              guard, max_iterations, pool);
      }
      return RunDeltaRounds(rules, db, stats, prov, guard, max_iterations,
                            /*seed=*/nullptr, /*part=*/nullptr);
    case Strategy::kGreedy:
      return RunGreedy(component, rules, db, stats, prov, guard);
  }
  return Status::Internal("unknown strategy");
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

namespace {

void DedupeDelta(DeltaMap* delta) {
  for (auto& [_, rows] : *delta) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
}

size_t DeltaSize(const DeltaMap& delta) {
  size_t n = 0;
  for (const auto& [_, rows] : delta) n += rows.size();
  return n;
}

/// Charges a merged batch of `tuples` derivations to `guard`, then the
/// evaluation's footprint `bytes()` when memory is limited. Called after the
/// batch is already safely in the database (any subset of derivations stays
/// ⊑-below the least model under monotone T_P), so a trip loses no work.
template <typename Bytes>
Status ChargeMerged(ResourceGuard* guard, int64_t tuples, const Bytes& bytes) {
  if (!guard->active()) return Status::OK();
  LimitKind k = guard->ChargeTuples(tuples);
  if (k == LimitKind::kNone && guard->memory_limited()) {
    k = guard->ChargeMemory(bytes());
  }
  if (k == LimitKind::kNone) return Status::OK();
  return Status::ResourceExhausted(guard->Describe());
}

/// Insert-only maintenance is unsound once a merge raises the value of a
/// predicate some rule consumes antitonically.
Status CheckIncrease(const analysis::UpdateSafety& safety,
                     const PredicateInfo* pred, Relation::MergeResult mr) {
  if (mr == Relation::MergeResult::kIncreased && safety.IncreaseUnsafe(pred)) {
    return Status::InvalidArgument(StrPrintf(
        "incremental update raised the value of an existing '%s' key, but "
        "a rule uses that value antitonically; recompute from scratch",
        pred->name.c_str()));
  }
  return Status::OK();
}

}  // namespace

/// One partition of a decomposed fixpoint (see RunPartitioned below).
struct Engine::Partition {
  /// The keys this partition owns; round 0 drops every other head.
  KeyPartition keys;
  /// The component's predicates: the relations private to the partition.
  const std::vector<const PredicateInfo*>* preds = nullptr;
  /// Shared by all partitions: their private bytes, summed, and the most
  /// rounds any of them has opened.
  std::atomic<int64_t>* private_bytes = nullptr;
  std::atomic<int64_t>* rounds = nullptr;
  /// This partition's last contribution to *private_bytes.
  int64_t reported_bytes = 0;

  /// The evaluation's footprint seen from this partition's database `db`:
  /// the shared relations once, plus every partition's private relations.
  int64_t Bytes(const Database& db) {
    int64_t mine = 0;
    for (const PredicateInfo* pred : *preds) {
      mine += db.Find(pred)->ApproxBytes();
    }
    const int64_t all =
        private_bytes->fetch_add(mine - reported_bytes,
                                 std::memory_order_relaxed) +
        mine - reported_bytes;
    reported_bytes = mine;
    return db.ApproxBytes() - mine + all;
  }

  /// True when `round` is the first of its number opened by any partition:
  /// the component's rounds are the most any partition runs, so only that
  /// opening is charged to the round budgets.
  bool ClaimRound(int64_t round) {
    int64_t seen = rounds->load(std::memory_order_relaxed);
    while (round > seen) {
      if (rounds->compare_exchange_weak(seen, round,
                                        std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
};

Status Engine::MergeDerivations(const std::vector<Derivation>& derivations,
                                Database* db, EvalStats* stats,
                                DeltaMap* delta, Provenance* prov,
                                ResourceGuard* guard,
                                const analysis::UpdateSafety* safety,
                                Partition* part) const {
  for (const Derivation& d : derivations) {
    Relation* rel = db->GetOrCreate(d.pred);
    if (options_.epsilon > 0 && d.pred->has_cost) {
      const Value* cur = rel->Find(d.key);
      if (cur != nullptr) {
        Value joined = d.pred->domain->Join(*cur, d.cost);
        if ((joined.is_numeric() || joined.is_bool()) &&
            (cur->is_numeric() || cur->is_bool()) &&
            std::fabs(joined.AsDouble() - cur->AsDouble()) <
                options_.epsilon) {
          continue;  // converged within tolerance
        }
      }
    }
    uint32_t row = 0;
    const Relation::MergeResult mr = rel->Merge(d.key, d.cost, &row);
    if (mr == Relation::MergeResult::kUnchanged) continue;
    if (mr == Relation::MergeResult::kNew) {
      ++stats->merges_new;
    } else {
      ++stats->merges_increased;
    }
    if (delta != nullptr) (*delta)[d.pred->id].push_back(row);
    if (prov != nullptr) prov->Record(d.pred, row, d.rule_index);
    if (safety != nullptr) {
      MAD_RETURN_IF_ERROR(CheckIncrease(*safety, d.pred, mr));
    }
  }
  return ChargeMerged(guard, static_cast<int64_t>(derivations.size()), [&] {
    return part != nullptr ? part->Bytes(*db) : db->ApproxBytes();
  });
}

// ---------------------------------------------------------------------------
// Naive: J <- T_P(J, I) until fixpoint
// ---------------------------------------------------------------------------

Status Engine::RunNaive(const std::vector<CompiledRule>& rules, Database* db,
                        EvalStats* stats, Provenance* prov,
                        ResourceGuard* guard, int64_t max_iterations) const {
  RuleExecutor exec(db);
  if (guard->active()) exec.set_guard(guard);
  std::vector<Derivation> buffer;
  // Ends the fixpoint short of its least model (iteration cap or a tripped
  // limit), keeping the stats coherent for the partial run (Engine::Run
  // decides whether the result is certifiable).
  auto stop = [&](Status st) {
    stats->subgoal_evals = exec.subgoal_evals();
    stats->reached_fixpoint = false;
    return st;
  };
  while (true) {
    if (stats->iterations >= max_iterations) return stop(Status::OK());
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

    DeltaMap delta;
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
//
// One loop computes every semi-naive fixpoint: Run's components, each
// partition of a decomposed component, and Update's delta closure. A batch
// is one work item — one rule's base evaluation in round 0, one (rule,
// driver, delta-row) triple after — merged as soon as it is evaluated, so
// later items of a round see earlier items' merges.

Status Engine::RunDeltaRounds(const std::vector<CompiledRule>& rules,
                              Database* db, EvalStats* stats, Provenance* prov,
                              ResourceGuard* guard, int64_t max_iterations,
                              const IncrementalSeed* seed,
                              Partition* part) const {
  const analysis::UpdateSafety* safety =
      seed != nullptr ? seed->safety : nullptr;
  RuleExecutor exec(db);
  if (guard->active()) exec.set_guard(guard);
  std::vector<Derivation> buffer;

  // Evaluates `count` work items — `eval(i)` appends item i's derivations to
  // `buffer` — merging each before the next, changed rows into `out`.
  auto run_items = [&](int64_t count, const auto& eval,
                       DeltaMap* out) -> Status {
    for (int64_t i = 0; i < count; ++i) {
      ++stats->rule_evaluations;
      buffer.clear();
      eval(i);
      stats->derivations += static_cast<int64_t>(buffer.size());
      MAD_RETURN_IF_ERROR(MergeDerivations(buffer, db, stats, out, prov, guard,
                                           safety, part));
    }
    return Status::OK();
  };

  // Every exit goes through here: a fixpoint cut short by an error is
  // marked as such.
  auto finish = [&](Status st) -> Status {
    stats->subgoal_evals += exec.subgoal_evals();
    if (!st.ok()) stats->reached_fixpoint = false;
    return st;
  };
  int64_t rounds = 0;  // this fixpoint's rounds, the unit ChargeRound caps
  auto open_round = [&]() -> Status {
    ++rounds;
    const LimitKind k = part == nullptr || part->ClaimRound(rounds)
                            ? guard->ChargeRound(rounds)
                            : guard->Poll();
    if (k != LimitKind::kNone) {
      return Status::ResourceExhausted(guard->Describe());
    }
    ++stats->iterations;
    return Status::OK();
  };

  DeltaMap delta;
  if (seed != nullptr) {
    delta = *seed->changes;
  } else {
    // Round 0: full evaluation of every rule against the (empty-CDB) initial
    // interpretation; the default extensions J_∅ are synthesized by the
    // executor. A partition keeps only the heads it owns; in later rounds
    // every head shares its key column value with the delta row that drove
    // it, so it is always the partition's own.
    Status st = open_round();
    if (st.ok()) {
      exec.set_head_filter(part != nullptr ? &part->keys : nullptr);
      st = run_items(
          static_cast<int64_t>(rules.size()),
          [&](int64_t i) { exec.RunBase(rules[i], &buffer); }, &delta);
      exec.set_head_filter(nullptr);
    }
    if (!st.ok()) return finish(st);
  }

  struct DriverItem {
    const CompiledRule* rule;
    const DriverVariant* driver;
    const Relation* rel;
    uint32_t row;
  };
  std::vector<DriverItem> items;
  while (DeltaSize(delta) > 0) {
    if (stats->iterations >= max_iterations) {
      stats->reached_fixpoint = false;
      return finish(Status::OK());
    }
    Status st = open_round();
    if (!st.ok()) return finish(st);
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
    DeltaMap next_delta;
    st = run_items(
        static_cast<int64_t>(items.size()),
        [&](int64_t i) {
          const DriverItem& item = items[i];
          // Current cost (possibly fresher than at delta-recording time —
          // monotonicity makes that harmless).
          exec.RunDriver(*item.rule, *item.driver, item.rel->key_at(item.row),
                         item.rel->cost_at(item.row), &buffer);
        },
        &next_delta);
    if (!st.ok()) return finish(st);
    if (seed != nullptr) {
      for (const auto& [pred_id, rows] : next_delta) {
        std::vector<uint32_t>& acc = (*seed->changes)[pred_id];
        acc.insert(acc.end(), rows.begin(), rows.end());
      }
    }
    delta = std::move(next_delta);
  }
  return finish(Status::OK());
}

// ---------------------------------------------------------------------------
// Decomposed fixpoints: independent partitions
// ---------------------------------------------------------------------------
//
// When no rule of a component relates keys that differ in the partition
// column (analysis::demand::DecompositionColumns), the component's least
// model is the disjoint union of the least models of its hash partitions on
// that column: a partition's rounds read only its own rows of the
// component's predicates and the complete lower relations. So each
// partition runs the serial loop above to its own fixpoint, with no barrier
// and no merge between partitions, and replays exactly the derivations and
// merges the serial run makes for its keys.

Status Engine::RunPartitioned(const analysis::Component& component,
                              const std::vector<CompiledRule>& rules,
                              const std::vector<int>& columns, Database* db,
                              EvalStats* stats, ResourceGuard* guard,
                              int64_t max_iterations, ThreadPool* pool) const {
  const int count = pool->num_participants();
  const std::vector<const PredicateInfo*>& preds = component.predicates;
  std::vector<Database> parts(count);
  for (const auto& [_, rel] : db->relations()) {
    if (component.ContainsPredicate(rel->pred())) continue;
    for (Database& part : parts) part.Install(rel);
  }
  for (const PredicateInfo* pred : preds) {
    for (Database& part : parts) part.GetOrCreate(pred);
    const Relation* edb = db->Find(pred);
    if (edb == nullptr) continue;
    for (size_t row = 0; row < edb->size(); ++row) {
      const KeyRef key = edb->key_at(row);
      parts[KeyPartition::Of(key[columns[pred->id]], count)]
          .FindMutable(pred)
          ->Merge(key, edb->cost_at(row));
    }
  }

  std::atomic<int64_t> private_bytes{0};
  std::atomic<int64_t> rounds{0};
  std::vector<Partition> shares(count);
  std::vector<EvalStats> part_stats(count);
  std::vector<Status> statuses(count);
  for (int p = 0; p < count; ++p) {
    shares[p] = {{&columns, count, p}, &preds, &private_bytes, &rounds};
  }
  pool->ParallelFor(count, [&](int, int64_t p) {
    statuses[p] = RunDeltaRounds(rules, &parts[p], &part_stats[p], nullptr,
                                 guard, max_iterations, nullptr, &shares[p]);
  });

  // The key sets are disjoint, so the union is an append: the result takes
  // over partition 0's relations, and every other partition is appended
  // and freed. A tripped limit leaves each partition a prefix of its
  // fixpoint, and their union is still ⊑-below the least model.
  for (const PredicateInfo* pred : preds) db->Install(parts[0].Release(pred));
  for (int p = 1; p < count; ++p) {
    for (const PredicateInfo* pred : preds) {
      db->FindMutable(pred)->AppendDisjoint(*parts[p].Find(pred));
    }
    parts[p] = Database();
  }

  Status status;
  for (int p = 0; p < count; ++p) {
    const int64_t iterations = std::max(stats->iterations,
                                        part_stats[p].iterations);
    stats->Accumulate(part_stats[p]);
    stats->iterations = iterations;
    if (status.ok()) status = statuses[p];
  }
  stats->partitions = count;
  return status;
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
    Status st = ChargeMerged(guard, static_cast<int64_t>(buffer.size()),
                             [&] { return db->ApproxBytes(); });
    if (!st.ok()) stats->reached_fixpoint = false;
    return st;
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

  // Merge the new facts, recording the changed rows per predicate.
  DeltaMap changes;
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
    MAD_RETURN_IF_ERROR(CheckIncrease(safety, f.pred, mr));
    if (mr == Relation::MergeResult::kUnchanged) continue;
    changes[f.pred->id].push_back(row);
    if (prov != nullptr) prov->Record(f.pred, row, Provenance::kEdbFact);
    if (mr == Relation::MergeResult::kNew) {
      ++stats.merges_new;
    } else {
      ++stats.merges_increased;
    }
  }

  // Plan join orders against the post-insert database (incremental deltas
  // see the same relation shapes batch evaluation would).
  std::unique_ptr<analysis::plan::PlanReport> plans;
  const CompileOrder order = JoinOrderFor(result->db, &plans);

  // Each component's rounds start from everything changed so far (EDB
  // inserts + lower components) and append what they change for the
  // components above. Derived increases on unsafe predicates are just as
  // unsound as inserted ones, so the merges check them too.
  const IncrementalSeed seed{&changes, &safety};
  for (const analysis::Component& component : graph_.components()) {
    if (component.rule_indices.empty()) continue;
    MAD_ASSIGN_OR_RETURN(std::vector<CompiledRule> rules,
                         CompileComponent(*program_, component, graph_, order));
    Status st = RunDeltaRounds(rules, &result->db, &stats, prov, &guard,
                               options_.max_iterations, &seed,
                               /*part=*/nullptr);
    if (st.code() == StatusCode::kResourceExhausted) {
      // Update safety already guarantees full input-monotonicity, so a
      // tripped limit always degrades gracefully: the database is ⊑-below
      // the post-insert least model and the result is marked accordingly.
      stats.limit_tripped = guard.tripped();
      result->completeness = Completeness::kUnderApproximation;
      result->limit_tripped = guard.tripped();
      result->tripped_component = component.index;
      return finish();
    }
    MAD_RETURN_IF_ERROR(st);
    if (!stats.reached_fixpoint) return finish();  // iteration cap
  }
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
