#ifndef MAD_CORE_ENGINE_H_
#define MAD_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/admissibility.h"
#include "analysis/checker.h"
#include "analysis/demand/demand.h"
#include "analysis/dependency_graph.h"
#include "core/compiled_rule.h"
#include "core/executor.h"
#include "core/provenance.h"
#include "datalog/database.h"
#include "datalog/parser.h"
#include "util/resource_guard.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mad {
namespace core {

using datalog::Database;
using datalog::Program;

/// Changed row ids per predicate id: one semi-naive delta.
using DeltaMap = std::map<int, std::vector<uint32_t>>;

/// How a component's least fixpoint is computed (Section 6.2).
enum class Strategy {
  /// Literal iteration J <- T_P(J, I): every rule fully re-evaluated each
  /// round. Reference semantics; also the mode that can dynamically detect
  /// cost-consistency violations within a single T_P application.
  kNaive,
  /// Delta-driven: each round only re-derives what changed rows can newly
  /// contribute, including re-aggregating only affected groups.
  kSemiNaive,
  /// Ganguly-Greco-Zaniolo-style greedy (generalized Dijkstra): settle keys
  /// in final-value-first order. Sound only for extremal programs whose
  /// cost composition never moves a settled key (e.g. shortest paths with
  /// non-negative weights); violations are counted in EvalStats.
  kGreedy,
};

const char* StrategyName(Strategy s);

/// Knobs for one evaluation.
struct EvalOptions {
  Strategy strategy = Strategy::kSemiNaive;
  /// Run the full static checker and refuse non-monotonic programs. Turn
  /// off to reproduce the behaviour of *rejected* programs in experiments.
  bool validate = true;
  /// Upper bound on fixpoint rounds per component (naive/semi-naive) — the
  /// guard for monotone-but-not-continuous operators (Example 5.1).
  int64_t max_iterations = 1'000'000;
  /// Treat numeric cost increases smaller than this as converged. 0 = exact.
  double epsilon = 0.0;
  /// Naive only: verify that each single T_P application derives at most one
  /// cost per key (dynamic cost-consistency check, Definition 3.7).
  bool check_cost_consistency = false;
  /// Record rule-level provenance (which rule set each row's value); see
  /// Provenance::Explain.
  bool track_provenance = false;
  /// Resource budgets (deadline, round/tuple/byte caps, cancellation). The
  /// default imposes nothing. When a limit trips mid-evaluation the engine
  /// stops at the next check boundary; whether that yields a certified
  /// partial result or an error depends on the component — see Completeness.
  ResourceLimits limits = {};
  /// Evaluation parallelism: the number of hash partitions a decomposable
  /// semi-naive component splits into, each run to its own fixpoint by one
  /// pool thread (values above kMaxThreads are clamped to it). A component
  /// decomposes when no rule relates keys that differ in some key column
  /// (analysis::demand::DecompositionColumns); its least model is then the
  /// disjoint union of the partitions' least models, so each partition runs
  /// the serial round loop against its own relations and the shared,
  /// already-complete lower relations, with no barrier or cross-partition
  /// merge, and the results are appended (Relation::AppendDisjoint). Every
  /// other component — non-recursive, not decomposable, or evaluated
  /// naive, greedy or with provenance — runs serially, as does
  /// Engine::Update. Database::ToString() is identical for every thread
  /// count (see DESIGN.md "Parallel evaluation"); EvalStats::partitions
  /// records what each component ran.
  int num_threads = 1;
  /// Body join order (see core/compiled_rule.h). kPlanned (default) follows
  /// the static planner's per-rule order, costed at Run()/Update() entry
  /// from the live EDB relation sizes; kTextual evaluates subgoals in
  /// source order (the differential oracle). Safety conditions are
  /// identical in both modes, so the least model — hence
  /// Database::ToString() — is byte-identical across modes for monotone
  /// programs (certified by the plan differential gate); only the work to
  /// reach it changes.
  JoinOrderMode join_order = JoinOrderMode::kPlanned;
};

/// The largest accepted EvalOptions::num_threads: a pool spawns one OS
/// thread per partition but the caller's, so an unchecked count (a typo'd
/// --threads=1000000) would ask the OS for that many threads.
inline constexpr int kMaxThreads = 256;

/// `num_threads` clamped to [1, kMaxThreads] — the partition count the
/// engine actually uses.
int EffectiveThreads(int num_threads);

/// How much of the least model an EvalResult is guaranteed to contain.
enum class Completeness {
  /// The full least model: no resource limit tripped (or limits were unset).
  kLeastModel,
  /// A resource limit stopped the fixpoint early, but every interrupted
  /// component was *prefix-sound* (monotone T_P, strictly monotonic CDB
  /// aggregates — ComponentVerdict::prefix_sound), so the returned database
  /// is certified ⊑-below the least model: every present key is real and no
  /// cost overshoots its true value. Components ordered before the
  /// interrupted one are complete; later ones may be missing entirely.
  kUnderApproximation,
};

const char* CompletenessName(Completeness c);

/// Counters for one evaluation (or one component).
struct EvalStats {
  int64_t iterations = 0;       ///< fixpoint rounds (greedy: queue pops)
  int64_t rule_evaluations = 0; ///< base/driver executions
  int64_t derivations = 0;      ///< head tuples emitted (pre-merge)
  int64_t merges_new = 0;       ///< keys first derived
  int64_t merges_increased = 0; ///< cost strictly raised in ⊑
  int64_t subgoal_evals = 0;
  /// Scans served by an already-complete secondary index (no extension
  /// work) across the run's database — a measure of how well the lazily
  /// built indexes amortize. Aggregate-level only (not per component).
  int64_t index_reuses = 0;
  /// Greedy only: merges that would have raised an already-settled key —
  /// each one is a place where greedy evaluation lost the least model.
  int64_t greedy_violations = 0;
  bool reached_fixpoint = true;
  /// Hash partitions the component's fixpoint ran as; 1 = serially. The
  /// partitions' counters are summed, except `iterations`, which is the
  /// most rounds any partition ran. For the stats of a run, the largest
  /// count of any component.
  int partitions = 1;
  /// The resource limit that stopped this (component's) evaluation, or
  /// kNone. For the aggregate stats of a run, the limit that ended the run.
  LimitKind limit_tripped = LimitKind::kNone;
  double wall_seconds = 0;

  void Accumulate(const EvalStats& other);
  std::string ToString() const;
};

/// The outcome of Engine::Run.
struct EvalResult {
  /// EDB plus every derived relation (the minimal model M_I^P of each
  /// component, computed bottom-up per Section 6.3).
  Database db;
  EvalStats stats;
  std::vector<EvalStats> component_stats;  ///< indexed like graph components
  analysis::ProgramCheckResult check;
  /// Populated when EvalOptions::track_provenance is set.
  Provenance provenance;
  /// kLeastModel unless a resource limit certified-degraded the run.
  Completeness completeness = Completeness::kLeastModel;
  /// Which limit ended the run (kNone when completeness == kLeastModel).
  LimitKind limit_tripped = LimitKind::kNone;
  /// Index of the component whose fixpoint was interrupted, or -1. Components
  /// with a smaller bottom-up index hold their full least model.
  int tripped_component = -1;
};

/// Knobs for one point query (Engine::Query).
struct QueryOptions {
  enum class Mode {
    /// Use the demand rewrite when it certifies; fall back to evaluating the
    /// full program otherwise (QueryResult::bailout_reason says why).
    kAuto,
    /// Require the demand rewrite: a bail-out is an error, never a silent
    /// full evaluation. For tests and latency-sensitive callers.
    kDemand,
    /// Always evaluate the full program (the oracle the differential gate
    /// compares the demand path against).
    kFull,
  };
  Mode mode = Mode::kAuto;
  /// Per-call resource limits overriding EvalOptions::limits — the serving
  /// layer threads each request's deadline/budget through here. Not owned;
  /// must outlive the Query call. nullptr = use the engine's own limits.
  const ResourceLimits* limits = nullptr;
};

/// The answer to one point query: the matching facts of the queried
/// predicate, plus how they were computed.
struct QueryResult {
  /// The queried predicate (the engine's program's instance, not the
  /// rewrite's copy — callers can use it against their own Program).
  const datalog::PredicateInfo* pred = nullptr;
  /// Matching facts, sorted by key tuple. Each fact's key/cost layout is
  /// the predicate's own; constants in the query atom (including a bound
  /// cost column) have been applied as filters.
  std::vector<datalog::Fact> rows;

  bool used_demand = false;
  /// The key adornment the query induced (e.g. "bf").
  std::string adornment;
  /// Under Mode::kAuto, why the demand path was not taken (empty when it
  /// was). Mirrors MAD025's payload.
  std::string bailout_reason;
  /// True when the query bound a cost column: the demand slice was computed
  /// with that column free and post-filtered (MAD027 widening).
  bool cost_widened = false;

  EvalStats stats;
  /// kLeastModel unless a resource limit certified-degraded the underlying
  /// evaluation (then the rows are a ⊑-under-approximation of the answer).
  Completeness completeness = Completeness::kLeastModel;

  /// Sorted fact lines, one per row — the same rendering Database::ToString
  /// uses, so a query answer is byte-comparable against a full model's
  /// restriction (the demand differential gate relies on this).
  std::string ToString() const;
};

/// Evaluates a program under the paper's minimal-model semantics: components
/// in bottom-up order, each component to its least fixpoint via the selected
/// strategy.
class Engine {
 public:
  explicit Engine(const Program& program, EvalOptions options = {});

  const analysis::DependencyGraph& graph() const { return graph_; }
  const EvalOptions& options() const { return options_; }

  /// Runs to fixpoint. `edb` supplies the extensional relations (the
  /// program's inline facts are added automatically). On success the result
  /// owns the full database.
  ///
  /// With EvalOptions::limits set, a tripped limit ends the run early. If
  /// every component evaluated so far is prefix-sound (and the strategy is
  /// not greedy, whose settled-key semantics void the prefix argument), the
  /// partial database is returned as OK with
  /// Completeness::kUnderApproximation; otherwise the partial state cannot
  /// be certified and the run fails with Status::ResourceExhausted.
  StatusOr<EvalResult> Run(Database edb) const;

  /// Convenience: run with only the program's inline facts as EDB.
  StatusOr<EvalResult> Run() const { return Run(Database()); }

  /// Incremental view maintenance for *monotone inserts*: merges `facts`
  /// into `result` (which must come from a prior Run/Update of this engine)
  /// and continues the fixpoint from the changed rows only, component by
  /// component, instead of recomputing. When every rule is monotone in the
  /// *inputs* too, inserting facts can only move the least model up in ⊑,
  /// so the old model plus the delta-closure is exactly the new least model.
  ///
  /// Rejected (InvalidArgument) when analysis::AnalyzeUpdateSafety finds the
  /// program unsound for inserts (negation, pseudo-monotonic aggregates,
  /// antitonically-used aggregate values), or at merge time when an update
  /// would raise an existing key of an increase-unsafe predicate.
  ///
  /// Honors EvalOptions::limits. Update safety already implies every rule is
  /// monotone in all inputs, so a tripped limit always degrades gracefully:
  /// `result` is marked Completeness::kUnderApproximation (⊑-below the
  /// post-insert least model) and the stats are returned as OK.
  StatusOr<EvalStats> Update(EvalResult* result,
                             const std::vector<datalog::Fact>& facts) const {
    return Update(result, facts, options_.limits);
  }

  /// Update with per-call resource limits overriding EvalOptions::limits —
  /// the serving layer threads each insert request's own deadline/budget
  /// through here so one expensive update degrades (certified) instead of
  /// stalling the writer behind a global knob.
  StatusOr<EvalStats> Update(EvalResult* result,
                             const std::vector<datalog::Fact>& facts,
                             const ResourceLimits& limits) const;

  /// Answers a point query: the facts of `query.pred` matching the query
  /// atom's constants, over the least model of the program on `edb`.
  ///
  /// `edb` is the genuine extensional database — the same thing Run takes —
  /// NOT a materialized result. When the demand rewrite for the query's
  /// adornment certifies (cached per (predicate, adornment), so repeated
  /// point queries pay the static analysis once), only the query's cone is
  /// evaluated: the rewritten program runs against the same EDB plus one
  /// seed fact holding the query's bound key constants. Otherwise — or under
  /// QueryOptions::Mode::kFull — the full program is evaluated and the
  /// answer read off the complete least model.
  ///
  /// The demand path's answer is certified byte-identical to the full path's
  /// (analysis::demand::CertifyRewrite statically, the demand differential
  /// gate dynamically). Thread-safe: concurrent Query calls on one Engine
  /// only share the rewrite cache (mutex-guarded) and the immutable program.
  StatusOr<QueryResult> Query(const datalog::Atom& query, Database edb,
                              const QueryOptions& qopts = {}) const;

 private:
  /// The cached demand rewrite for `pattern` (computing and caching it on
  /// first use — bail-outs are cached too, so repeated undemandable queries
  /// don't re-run the analysis). Returns nullptr and sets `bailout_reason`
  /// when the rewrite bailed out.
  std::shared_ptr<const analysis::demand::DemandRewrite> CachedRewrite(
      const analysis::demand::DemandPattern& pattern,
      std::string* bailout_reason) const;

  /// The join-order directive for one Run/Update: under kPlanned, a static
  /// plan costed from `db`'s live relation sizes, owned by `*plans`.
  CompileOrder JoinOrderFor(
      const Database& db,
      std::unique_ptr<analysis::plan::PlanReport>* plans) const;

  /// `max_iterations` is the effective per-component round cap: the global
  /// EvalOptions::max_iterations, or — for components whose certificate
  /// proves bounded chains — the smaller certificate-derived bound (see
  /// BoundedChainRoundCap in engine.cc). With a `pool` (nullable), a
  /// component that decomposes runs partitioned.
  Status RunComponent(const analysis::Component& component,
                      const CompileOrder& order, Database* db,
                      EvalStats* stats, Provenance* prov, ResourceGuard* guard,
                      int64_t max_iterations, ThreadPool* pool) const;
  Status RunNaive(const std::vector<CompiledRule>& rules, Database* db,
                  EvalStats* stats, Provenance* prov, ResourceGuard* guard,
                  int64_t max_iterations) const;

  /// One partition of a decomposed fixpoint and what it shares with the
  /// others (defined in engine.cc).
  struct Partition;

  /// A decomposed component's fixpoint: one RunDeltaRounds per partition of
  /// `pool`'s participant count, concurrently, each over a private database
  /// (fresh relations for the component's predicates, holding the EDB rows
  /// the partition owns, plus the lower relations shared read-only); then
  /// the partitions' relations are joined into `db` by disjoint append.
  /// `columns` is the partition column by predicate id.
  Status RunPartitioned(const analysis::Component& component,
                        const std::vector<CompiledRule>& rules,
                        const std::vector<int>& columns, Database* db,
                        EvalStats* stats, ResourceGuard* guard,
                        int64_t max_iterations, ThreadPool* pool) const;

  /// What Engine::Update adds to a semi-naive fixpoint. `changes` holds the
  /// rows changed so far: they seed the first round in place of round 0,
  /// and every round appends the rows it changes. A merge that raises the
  /// value of a predicate `safety` marks increase-unsafe fails the update.
  struct IncrementalSeed {
    DeltaMap* changes = nullptr;
    const analysis::UpdateSafety* safety = nullptr;
  };

  /// The semi-naive fixpoint (Section 6.2) for Run and Update alike: round
  /// 0 evaluates every rule's base schedule (skipped when `seed` is given),
  /// then delta rounds run every (rule, driver, delta-row) item until a
  /// round changes nothing, at most `max_iterations` rounds in all of
  /// `stats`. Each item's derivations are merged as soon as it is
  /// evaluated. `part` (nullable) makes this run one partition of a
  /// decomposed fixpoint: round 0 keeps only the heads the partition owns,
  /// and the memory and round budgets count every partition.
  Status RunDeltaRounds(const std::vector<CompiledRule>& rules, Database* db,
                        EvalStats* stats, Provenance* prov,
                        ResourceGuard* guard, int64_t max_iterations,
                        const IncrementalSeed* seed, Partition* part) const;
  Status RunGreedy(const analysis::Component& component,
                   const std::vector<CompiledRule>& rules, Database* db,
                   EvalStats* stats, Provenance* prov,
                   ResourceGuard* guard) const;

  /// Merges buffered derivations; returns changed row ids per predicate.
  /// `delta` maps predicate id -> row ids changed by this merge batch.
  /// `prov` (nullable) records the producing rule per changed row.
  /// The whole batch is merged *before* `guard` is charged — partial work is
  /// kept (sound under monotonicity) and a trip surfaces as
  /// Status::ResourceExhausted for the strategy loop to unwind. `safety`
  /// (nullable) rejects increases on increase-unsafe predicates
  /// (Engine::Update); `part` (nullable) charges memory across partitions.
  Status MergeDerivations(const std::vector<Derivation>& derivations,
                          Database* db, EvalStats* stats, DeltaMap* delta,
                          Provenance* prov, ResourceGuard* guard,
                          const analysis::UpdateSafety* safety = nullptr,
                          Partition* part = nullptr) const;

  const Program* program_;
  EvalOptions options_;
  analysis::DependencyGraph graph_;
  /// Per component index: the partition column by predicate id when the
  /// component runs partitioned, else empty. Computed once, and only when
  /// options_ can run partitions.
  std::vector<std::vector<int>> partition_columns_;

  /// Demand rewrites keyed by "pred^adornment". Value-independent (the same
  /// rewrite serves every bound constant), so one entry per pattern.
  mutable std::mutex demand_mu_;
  mutable std::map<std::string,
                   std::shared_ptr<const analysis::demand::DemandRewrite>>
      demand_cache_;
};

/// A parsed program together with its evaluation result. The database's
/// rows reference PredicateInfo objects owned by the program, so the two
/// must travel together.
struct ParsedRun {
  std::unique_ptr<Program> program;
  EvalResult result;
};

/// One-call helper used by examples and tests: parse, run, return both the
/// program and the result.
StatusOr<ParsedRun> ParseAndRun(std::string_view program_text,
                                EvalOptions options = {});

/// Looks up the cost stored for `key` in predicate `pred_name`, or
/// std::nullopt if the key is absent (for default-value predicates the
/// lattice bottom is substituted). For cost-free predicates, returns
/// Value::Bool(true) when the key is present.
std::optional<datalog::Value> LookupCost(const Program& program,
                                         const Database& db,
                                         std::string_view pred_name,
                                         const datalog::Tuple& key);

}  // namespace core
}  // namespace mad

#endif  // MAD_CORE_ENGINE_H_
