// Batch phase: the least model of the workload's program over its EDB,
// computed the way a batch user computes it.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "analysis/dependency_graph.h"
#include "analysis/plan/plan.h"
#include "baselines/company_control.h"
#include "baselines/shortest_path.h"
#include "core/compiled_rule.h"
#include "core/engine.h"
#include "datalog/parser.h"
#include "phases.h"

namespace madbench {

namespace {

using mad::datalog::Database;
using mad::datalog::Program;
using mad::server::Json;

struct Parsed {
  std::unique_ptr<Program> program;
  Database edb;
};

/// The batch set-up: program text and EDB text into Program + Database.
Parsed Parse(RunContext* ctx, const Inputs& in) {
  Tracer::Span span(&ctx->tracer, "datalog.ParseProgram+ParseFacts");
  Parsed p;
  auto program = mad::datalog::ParseProgram(in.rules);
  if (!program.ok()) {
    ctx->Check(false, "ParseProgram: " + program.status().ToString());
    return p;
  }
  p.program = std::make_unique<Program>(std::move(program).value());
  auto facts = mad::datalog::ParseFacts(p.program.get(), in.edb_text);
  if (!facts.ok()) {
    ctx->Check(false, "ParseFacts: " + facts.status().ToString());
    return p;
  }
  for (const auto& f : *facts) {
    mad::Status st = p.edb.AddFact(f);
    if (!st.ok()) {
      ctx->Check(false, "AddFact: " + st.ToString());
      break;
    }
  }
  return p;
}

struct RunSample {
  double wall_s = 0;
  mad::core::EvalStats stats;
  double slowest_component_s = 0;
};

/// Independent company-control fixpoint over the sparse network, one owner
/// at a time: x controls y once the stakes of x and of every company x
/// controls add up to more than 1/2 of y. Exact in sixteenths.
std::vector<std::pair<int, int>> SparseControl(const ControlInstance& inst) {
  std::vector<std::vector<Edge>> out(inst.n);  // holdings by owner
  for (const Edge& e : inst.shares) out[e.a].push_back(e);
  std::vector<std::pair<int, int>> controls;
  std::vector<int> units(inst.n, 0);
  std::vector<char> controlled(inst.n, 0);
  std::vector<int> touched, queue;
  for (int x = 0; x < inst.n; ++x) {
    queue.assign(1, x);
    while (!queue.empty()) {
      int z = queue.back();
      queue.pop_back();
      for (const Edge& e : out[z]) {
        if (units[e.b] == 0) touched.push_back(e.b);
        units[e.b] += e.units;
        if (units[e.b] > 8 && !controlled[e.b]) {
          controlled[e.b] = 1;
          controls.emplace_back(x, e.b);
          queue.push_back(e.b);
        }
      }
    }
    for (int y : touched) {
      units[y] = 0;
      controlled[y] = 0;
    }
    touched.clear();
  }
  std::sort(controls.begin(), controls.end());
  return controls;
}

int NodeIndex(const mad::datalog::Value& v) {
  std::string_view name = v.symbol_name();
  return std::stoi(std::string(name.substr(1)));
}

void CheckPaths(RunContext* ctx, const Program& program, const Database& db,
                const PathInstance& inst) {
  Tracer::Span span(&ctx->tracer, "baselines.AllPairsNonEmptyDijkstra");
  auto want = mad::baselines::AllPairsNonEmptyDijkstra(inst.ToGraph());
  const auto* s = program.FindPredicate("s");
  const auto* rel = s != nullptr ? db.Find(s) : nullptr;
  int64_t finite = 0;
  for (const auto& row : want) {
    for (double d : row) finite += std::isfinite(d) ? 1 : 0;
  }
  int64_t rows = 0, bad = 0;
  if (rel != nullptr) {
    rel->ForEach([&](const mad::datalog::Tuple& key,
                     const mad::datalog::Value& cost) {
      ++rows;
      double w = want[NodeIndex(key[0])][NodeIndex(key[1])];
      if (!(std::fabs(cost.AsDouble() - w) <= 1e-9)) ++bad;
    });
  }
  ctx->Count(rows, bad, "s differs from Dijkstra");
  ctx->Check(rows == finite, "s row count " + std::to_string(rows) +
                                 " != reachable pairs " +
                                 std::to_string(finite));
}

void CheckControl(RunContext* ctx, const Program& program, const Database& db,
                  const ControlInstance& inst) {
  Tracer::Span span(&ctx->tracer, "baselines.SolveCompanyControl");
  std::vector<std::pair<int, int>> want = SparseControl(inst);
  if (inst.n <= 2000) {
    // The library's dense solver is O(n^2) memory; at small sizes it
    // certifies the sparse one.
    mad::baselines::OwnershipNetwork net;
    net.Resize(inst.n);
    for (const Edge& e : inst.shares) net.shares[e.a][e.b] = e.units / 16.0;
    auto dense = mad::baselines::SolveCompanyControl(net);
    std::vector<std::pair<int, int>> pairs;
    for (int x = 0; x < inst.n; ++x) {
      for (int y = 0; y < inst.n; ++y) {
        if (dense.controls[x][y]) pairs.emplace_back(x, y);
      }
    }
    ctx->Check(pairs == want, "sparse control solver != baselines solver");
  }
  std::vector<std::pair<int, int>> got;
  const auto* c = program.FindPredicate("c");
  const auto* rel = c != nullptr ? db.Find(c) : nullptr;
  if (rel != nullptr) {
    rel->ForEach([&](const mad::datalog::Tuple& key,
                     const mad::datalog::Value&) {
      got.emplace_back(NodeIndex(key[0]), NodeIndex(key[1]));
    });
  }
  std::sort(got.begin(), got.end());
  ctx->Count(static_cast<int64_t>(want.size()),
             got == want ? 0 : static_cast<int64_t>(want.size()),
             "c differs from the company-control solver (" +
                 std::to_string(got.size()) + " vs " +
                 std::to_string(want.size()) + " pairs)");
}

/// Times the analysis and compile calls Engine::Run makes internally, by
/// calling the same public functions on the same inputs.
void ProbeFrontEnd(RunContext* ctx, const Program& program,
                   const Database& edb, int reps) {
  mad::analysis::DependencyGraph graph(program);
  for (int r = 0; r < reps; ++r) {
    {
      Tracer::Span span(&ctx->tracer, "analysis.CheckProgram");
      auto check = mad::analysis::CheckProgram(program, graph, "", &edb);
      ctx->Check(check.overall().ok(), "CheckProgram rejected the program");
    }
    std::unique_ptr<mad::analysis::plan::PlanReport> plans;
    {
      Tracer::Span span(&ctx->tracer, "analysis.plan::PlanProgram");
      plans = std::make_unique<mad::analysis::plan::PlanReport>(
          mad::analysis::plan::PlanProgram(
              program, graph,
              mad::analysis::plan::CardinalityEstimates::FromDatabase(program,
                                                                      edb)));
    }
    mad::core::CompileOrder order;
    order.mode = mad::core::JoinOrderMode::kPlanned;
    order.plans = plans.get();
    Tracer::Span span(&ctx->tracer, "core.CompileComponent*");
    for (const auto& component : graph.components()) {
      if (component.rule_indices.empty()) continue;
      auto compiled =
          mad::core::CompileComponent(program, component, graph, order);
      ctx->Check(compiled.ok(), "CompileComponent failed");
    }
  }
}

/// The library counterpart of serving, for the batch workloads: point
/// lookups on the model (Relation::Find), demand queries over the EDB
/// (Engine::Query) and one-fact inserts (Engine::Update), each timed per
/// call on one thread. Runs in slices between the model runs, so every
/// metric samples the whole run rather than one stretch of it.
class Library {
 public:
  Library(RunContext* ctx, const Workload& wl, const Inputs& in,
          Program* program, const mad::core::Engine& engine,
          const Database& edb, mad::core::EvalResult* model)
      : ctx_(ctx), wl_(wl), in_(in), program_(program), engine_(engine),
        model_(model), base_(edb.Snapshot()) {
    pred_ = program->FindPredicate(wl.control ? "m" : "s");
    rel_ = model->db.Find(pred_);
    for (const Edge& e : in.point_keys) keys_.push_back({Name(e.a), Name(e.b)});
    for (int source : in.hot) {
      auto atom = mad::datalog::ParseQueryAtom(*program, DemandAtom(wl, source));
      if (!atom.ok()) {
        ctx->Check(false, "ParseQueryAtom: " + atom.status().ToString());
        return;
      }
      atoms_.push_back(std::move(atom).value());
      std::vector<std::string> lines;
      const Value src = Name(source);
      if (rel_ != nullptr) {
        rel_->ForEach([&](const Tuple& key, const Value& cost) {
          if (key[0] == src) lines.push_back(RowLine(key, &cost));
        });
      }
      want_.push_back(Joined(std::move(lines)));
    }
    // The first query of an adornment pays the rewrite; users pay it once.
    if (!atoms_.empty()) (void)engine.Query(atoms_[0], base_.ShareForRead());
  }

  /// One slice of `seconds`: a tenth on lookups, the rest split between
  /// queries and inserts (at most kInsertsPerSlice of them, so the insert
  /// stream lasts the whole run).
  void Slice(double seconds) {
    if (atoms_.empty()) return;
    rel_ = model_->db.Find(pred_);  // inserts may have created or moved it
    point_.emplace_back();
    demand_.emplace_back();
    insert_.emplace_back();
    auto t_end = After(seconds * 0.1);
    do Lookups(); while (Clock::now() < t_end);
    t_end = After(seconds * 0.45);
    do Query(); while (Clock::now() < t_end);
    t_end = After(seconds * 0.45);
    while (applied_ < in_.inserts.size() &&
           insert_.back().size() < kInsertsPerSlice && Clock::now() < t_end) {
      Insert();
    }
  }

  /// Reports the serving metrics; returns how many inserts were applied.
  size_t Finish() {
    if (wl_.control) {
      // Control lookups follow existing stakes, so every one must hit.
      ctx_->Count(lookups_, lookups_ - hits_, "m lookups along stakes missed");
    }
    // Each statistic is taken per slice and reported as its median over the
    // slices, so a burst of noise from outside that hits a few slices does
    // not move it.
    Json counts = Json::Object();
    std::vector<double> mix;
    auto report = [&](const char* kind,
                      const std::vector<std::vector<double>>& slices,
                      const char* p50, const char* p99, double scale,
                      const char* unit) {
      std::vector<double> mid, tail, q;
      size_t samples = 0;
      for (const std::vector<double>& lat : slices) {
        if (lat.empty()) continue;
        q.push_back(TailQuantile(lat.size()));
        mid.push_back(Quantile(lat, 0.5));
        tail.push_back(Quantile(lat, q.back()));
        samples += lat.size();
      }
      ctx_->E2E(p50, Median(mid) * scale, unit);
      ctx_->E2E(p99, Median(tail) * scale, unit);
      Json c = Json::Object();
      c.Set("samples", Json::Int(static_cast<int64_t>(samples)));
      c.Set("slices", Json::Int(static_cast<int64_t>(mid.size())));
      c.Set("tail_percentile", Json::Double(Median(q) * 100));
      counts.Set(kind, std::move(c));
      return Median(mid);
    };
    const double ins = report("insert", insert_, "insert_p50_ms",
                              "insert_p99_ms", 1e3, "ms");
    const double pt = report("point", point_, "point_p50_us", "point_p99_us",
                             1e6, "us");
    const double dem = report("demand", demand_, "demand_p50_ms",
                              "demand_p99_ms", 1e3, "ms");
    ctx_->meta.Set("nominal_samples", std::move(counts));
    // One thread running the serving mix 1 insert : 10 queries : 89 lookups,
    // from the median call times.
    ctx_->E2E("sustained_ops_s", 100 / (ins + 10 * dem + 89 * pt), "ops/s");
    ctx_->meta.Set("serving",
                   Json::Str("library calls on one thread: Relation::Find, "
                             "Engine::Query, Engine::Update"));
    if (ctx_->trace) {
      ctx_->Layer("core.update_ms", ins * 1e3, "ms");
      ctx_->Layer("core.update_derivations",
                  applied_ > 0 ? static_cast<double>(update_derivations_) /
                                     static_cast<double>(applied_)
                               : 0,
                  "count");
      ctx_->Layer("core.query_derivations",
                  queries_ > 0 ? static_cast<double>(query_derivations_) /
                                     static_cast<double>(queries_)
                               : 0,
                  "count");
    }
    return applied_;
  }

 private:
  using Tuple = mad::datalog::Tuple;
  using Value = mad::datalog::Value;

  Value Name(int i) const {
    return Value::Symbol((wl_.control ? "c" : "n") + std::to_string(i));
  }
  static std::string Joined(std::vector<std::string> lines) {
    std::sort(lines.begin(), lines.end());
    std::string joined;
    for (const std::string& l : lines) joined += l + "\n";
    return joined;
  }

  /// kLookupBatch lookups timed together: one Find is shorter than the
  /// clock's resolution, so a sample is the batch's time per lookup.
  void Lookups() {
    int64_t hits = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < kLookupBatch; ++i) {
      const Tuple& key = keys_[(lookups_ + i) % keys_.size()];
      hits += rel_ != nullptr && rel_->Find(key) != nullptr ? 1 : 0;
    }
    point_.back().push_back(SecondsSince(t0) / kLookupBatch);
    lookups_ += kLookupBatch;
    hits_ += hits;
  }

  void Query() {
    const size_t k = queries_++ % atoms_.size();
    mad::StatusOr<mad::core::QueryResult> result = mad::Status::Internal("");
    {
      Tracer::Span span(&ctx_->tracer, "core.Engine::Query");
      auto t0 = Clock::now();
      result = engine_.Query(atoms_[k], base_.ShareForRead());
      demand_.back().push_back(SecondsSince(t0));
    }
    if (!result.ok()) {
      ctx_->Check(false, "Engine::Query: " + result.status().ToString());
      return;
    }
    query_derivations_ += result->stats.derivations;
    // Queries run over the frozen EDB, so every answer must be the
    // restriction of the model as it was before any insert.
    std::vector<std::string> lines;
    for (const auto& f : result->rows) {
      lines.push_back(RowLine(f.key, f.cost ? &*f.cost : nullptr));
    }
    ctx_->Check(Joined(std::move(lines)) == want_[k],
                "Engine::Query answer for " + DemandAtom(wl_, in_.hot[k]) +
                    " differs from the model");
  }

  void Insert() {
    auto facts = mad::datalog::ParseFacts(program_, in_.inserts[applied_]);
    if (!facts.ok()) {
      ctx_->Check(false, "ParseFacts: " + facts.status().ToString());
      return;
    }
    mad::StatusOr<mad::core::EvalStats> stats = mad::Status::Internal("");
    {
      Tracer::Span span(&ctx_->tracer, "core.Engine::Update");
      auto t0 = Clock::now();
      stats = engine_.Update(model_, *facts);
      insert_.back().push_back(SecondsSince(t0));
    }
    ctx_->Check(stats.ok(), "Engine::Update: " + stats.status().ToString());
    if (!stats.ok()) return;
    ++applied_;
    update_derivations_ += stats->derivations;
  }

  RunContext* ctx_;
  const Workload& wl_;
  const Inputs& in_;
  Program* program_;
  const mad::core::Engine& engine_;
  mad::core::EvalResult* model_;
  Database base_;  ///< frozen EDB the queries evaluate over
  const mad::datalog::PredicateInfo* pred_ = nullptr;
  const mad::datalog::Relation* rel_ = nullptr;
  std::vector<Tuple> keys_;
  std::vector<mad::datalog::Atom> atoms_;
  std::vector<std::string> want_;  ///< each source's answer, as model rows
  static constexpr int kLookupBatch = 64;
  static constexpr size_t kInsertsPerSlice = 250;
  /// Per-slice latency samples, in seconds.
  std::vector<std::vector<double>> point_, demand_, insert_;
  int64_t lookups_ = 0;
  int64_t hits_ = 0;
  size_t queries_ = 0;
  int64_t query_derivations_ = 0;
  int64_t update_derivations_ = 0;
  size_t applied_ = 0;
};

}  // namespace

void RunBatch(RunContext* ctx, const Workload& wl, const Inputs& in) {
  Parsed parsed = Parse(ctx, in);
  if (parsed.program == nullptr) return;
  const Program& program = *parsed.program;
  const Database& edb = parsed.edb;
  int64_t edb_facts = static_cast<int64_t>(edb.TotalRows());

  if (ctx->trace) ProbeFrontEnd(ctx, program, edb, 3);

  // --- least model at 1 and 4 threads, alternating until the budget ends ----
  mad::core::EvalOptions t1_opts;
  mad::core::EvalOptions t4_opts;
  t4_opts.num_threads = 4;
  mad::core::Engine t1(program, t1_opts);
  mad::core::Engine t4(program, t4_opts);
  std::vector<RunSample> s1, s4, s1_untraced;
  std::string model_t1, model_t4;
  int64_t model_rows = 0, model_bytes = 0;
  mad::core::EvalResult kept;
  std::unique_ptr<Library> library;
  // The set-up (parse, or madd start for a served workload) is timed
  // between the model runs, so its median samples the whole run: after each
  // pair, until set-up has had setup_share : model_share of the time.
  std::vector<double> setup;
  double model_total = 0, setup_total = 0;
  auto setup_slice = [&](double pair_s) {
    model_total += pair_s;
    while (setup.empty() ||
           setup_total < model_total * wl.setup_share / wl.model_share) {
      double s;
      if (wl.served) {
        s = TimeServerSetup(ctx, in, ctx->run_dir + "/serve/setup");
      } else {
        auto t0 = Clock::now();
        s = Parse(ctx, in).program != nullptr ? SecondsSince(t0) : -1;
      }
      if (s < 0) return false;
      setup.push_back(s);
      setup_total += s;
    }
    return true;
  };
  const int min_reps = ctx->smoke ? 1 : 3;
  // Served workloads do their serving in RunServe, after this phase.
  const double budget =
      ctx->seconds * (wl.model_share + wl.setup_share +
                      (wl.served ? 0 : wl.nominal_share));
  auto phase0 = Clock::now();
  bool traced_turn = true;
  while (static_cast<int>(s4.size()) < min_reps ||
         (ctx->trace && s1_untraced.empty()) ||
         (SecondsSince(phase0) < budget && s4.size() < 50)) {
    for (int threads : {1, 4}) {
      const mad::core::Engine& engine = threads == 1 ? t1 : t4;
      // In a traced run, 1-thread runs alternate traced and untraced so the
      // ratio of their medians is the tracing overhead.
      bool traced = ctx->trace && (threads == 4 || traced_turn);
      Database copy = edb.Clone();
      RunSample sample;
      mad::StatusOr<mad::core::EvalResult> result = mad::Status::Internal("");
      {
        Tracer::Span span(traced ? &ctx->tracer : nullptr,
                          threads == 1 ? "core.Engine::Run" : "core.Engine::Run/t4");
        auto t0 = Clock::now();
        result = engine.Run(std::move(copy));
        sample.wall_s = SecondsSince(t0);
      }
      if (!result.ok()) {
        ctx->Check(false, "Engine::Run: " + result.status().ToString());
        return;
      }
      sample.stats = result->stats;
      for (const auto& c : result->component_stats) {
        sample.slowest_component_s =
            std::max(sample.slowest_component_s, c.wall_seconds);
      }
      if (threads == 1) {
        (traced || !ctx->trace ? s1 : s1_untraced).push_back(sample);
        if (ctx->trace) traced_turn = !traced_turn;
        if (model_t1.empty()) {
          model_t1 = result->db.ToString();
          model_rows = static_cast<int64_t>(result->db.TotalRows());
          model_bytes = result->db.ApproxBytes();
          kept = std::move(result).value();
        }
      } else {
        s4.push_back(sample);
        if (model_t4.empty()) model_t4 = result->db.ToString();
      }
    }
    // Set-up and serving slices follow the pairs and take their shares of
    // the time in proportion to model_share.
    const double pair_s = s1.back().wall_s + s4.back().wall_s;
    if (!setup_slice(pair_s)) return;
    if (wl.served) continue;
    if (library == nullptr) {
      library = std::make_unique<Library>(ctx, wl, in, parsed.program.get(),
                                          t1, edb, &kept);
    }
    library->Slice(pair_s * wl.nominal_share / wl.model_share);
  }
  ctx->E2E("setup_s", Median(setup), "s");
  ctx->meta.Set("setup_reps", Json::Int(static_cast<int64_t>(setup.size())));
  auto walls = [](const std::vector<RunSample>& v) {
    std::vector<double> w;
    for (const auto& s : v) w.push_back(s.wall_s);
    return w;
  };
  const double model_s = Median(walls(s1));
  const double model_t4_s = Median(walls(s4));
  ctx->E2E("model_s", model_s, "s");
  ctx->E2E("model_t4_s", model_t4_s, "s");
  ctx->meta.Set("model_runs_t1", Json::Int(static_cast<int64_t>(s1.size())));
  ctx->meta.Set("model_runs_t4", Json::Int(static_cast<int64_t>(s4.size())));
  ctx->meta.Set("model_derivations", Json::Int(s1[0].stats.derivations));

  // --- output checks ----------------------------------------------------------
  ctx->Check(model_t1 == model_t4,
             "4-thread Database::ToString differs from 1-thread");
  ctx->Check(kept.completeness == mad::core::Completeness::kLeastModel,
             "batch run did not reach the least model");
  for (const auto& s : s1) {
    ctx->Check(s.stats.derivations == s1[0].stats.derivations,
               "1-thread derivation count varies between runs");
  }
  // serve_sp's reads and writes go through madd; the batch workloads make
  // the same kinds of calls on the library, against the model just built.
  const size_t inserted =
      library != nullptr ? library->Finish() : 0;
  if (wl.control) {
    ControlInstance expect = in.control;
    expect.shares.insert(expect.shares.end(), in.control.fresh.begin(),
                         in.control.fresh.begin() + inserted);
    CheckControl(ctx, program, kept.db, expect);
  } else {
    PathInstance expect = in.path;
    expect.arcs.insert(expect.arcs.end(), in.path.fresh.begin(),
                       in.path.fresh.begin() + inserted);
    CheckPaths(ctx, program, kept.db, expect);
  }

  if (!ctx->trace) return;

  // --- per-layer metrics (traced run) ----------------------------------------
  for (int r = 0; r < 64; ++r) {
    Tracer::Span span(&ctx->tracer, "datalog.Database::Snapshot");
    Database snap = kept.db.Snapshot();
  }
  const mad::core::EvalStats& st = s1[0].stats;
  ctx->Layer("datalog.parse_s",
             Median(ctx->tracer.SelfSeconds("datalog.ParseProgram+ParseFacts")),
             "s");
  ctx->Layer("datalog.edb_facts", static_cast<double>(edb_facts), "count");
  ctx->Layer("datalog.model_rows", static_cast<double>(model_rows), "count");
  ctx->Layer("datalog.model_bytes", static_cast<double>(model_bytes), "bytes");
  ctx->Layer("datalog.snapshot_us",
             Median(ctx->tracer.SelfSeconds("datalog.Database::Snapshot")) * 1e6,
             "us");
  ctx->Layer("analysis.check_s",
             Median(ctx->tracer.SelfSeconds("analysis.CheckProgram")), "s");
  ctx->Layer("analysis.plan_s",
             Median(ctx->tracer.SelfSeconds("analysis.plan::PlanProgram")), "s");
  const double compile_s =
      Median(ctx->tracer.SelfSeconds("core.CompileComponent*"));
  std::vector<double> frontend, fixpoint;
  for (const auto& s : s1) {
    frontend.push_back(s.wall_s - s.stats.wall_seconds);
    fixpoint.push_back(s.stats.wall_seconds - compile_s);
  }
  const double fixpoint_s = Median(fixpoint);
  ctx->Layer("core.frontend_s", Median(frontend), "s");
  ctx->Layer("core.compile_s", compile_s, "s");
  ctx->Layer("core.fixpoint_s", fixpoint_s, "s");
  std::vector<double> slowest;
  for (const auto& s : s4) slowest.push_back(s.slowest_component_s);
  ctx->Layer("core.slowest_component_s", Median(slowest), "s");
  ctx->Layer("core.ns_per_derivation",
             st.derivations > 0 ? fixpoint_s * 1e9 / st.derivations : 0, "ns");
  ctx->Layer("core.derivations", static_cast<double>(st.derivations), "count");
  ctx->Layer("core.merges_new", static_cast<double>(st.merges_new), "count");
  ctx->Layer("core.merges_increased", static_cast<double>(st.merges_increased),
             "count");
  ctx->Layer("core.rounds", static_cast<double>(st.iterations), "count");
  ctx->Layer("core.rule_evaluations", static_cast<double>(st.rule_evaluations),
             "count");
  ctx->Layer("core.subgoal_evals", static_cast<double>(st.subgoal_evals),
             "count");
  ctx->Layer("core.index_reuses", static_cast<double>(st.index_reuses),
             "count");
  ctx->Layer("core.useful_ratio",
             st.derivations > 0
                 ? static_cast<double>(st.merges_new + st.merges_increased) /
                       st.derivations
                 : 0,
             "ratio");
  Json bases = ctx->meta.At("ratio_bases");
  bases.Set("core.useful_ratio",
            Json::Str("(merges_new + merges_increased) / derivations of one "
                      "1-thread Engine::Run = (" +
                      std::to_string(st.merges_new) + " + " +
                      std::to_string(st.merges_increased) + ") / " +
                      std::to_string(st.derivations)));
  ctx->Layer("core.t4_speedup", model_s / model_t4_s, "ratio");
  bases.Set("core.t4_speedup",
            Json::Str("median 1-thread Engine::Run wall / median 4-thread "
                      "wall, same traced run"));
  ctx->Layer("core.t4_derivations",
             static_cast<double>(s4[0].stats.derivations), "count");
  const double untraced = Median(walls(s1_untraced));
  ctx->Layer("bench.trace_overhead", untraced > 0 ? model_s / untraced : 1,
             "ratio");
  bases.Set("bench.trace_overhead",
            Json::Str("median traced / median untraced 1-thread Engine::Run "
                      "wall, alternating in one run (" +
                      std::to_string(s1.size()) + " + " +
                      std::to_string(s1_untraced.size()) + " runs)"));
  ctx->meta.Set("ratio_bases", std::move(bases));
}

}  // namespace madbench
