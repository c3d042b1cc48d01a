// The least-model equivalence gate. An accepted program has exactly one
// least model (Prop 3.3, Tarski), so every way the engine can reach it —
// join order, strategy, thread count, incremental Update, demand-driven
// point queries — must agree with one oracle byte for byte. The oracle is
// the plainest path: semi-naive, textual join order, one thread, full Run,
// computed once per corpus instance (tests/differential_corpus.h).
//
// Each test is one axis over one corpus family; the ctest label
// `differential` selects them all (`ctest -L differential`). An axis that
// cannot take an instance counts it, and the test asserts that count.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/admissibility.h"
#include "analysis/demand/demand.h"
#include "core/engine.h"
#include "differential_corpus.h"

namespace mad {
namespace core {
namespace {

using corpus::Family;
using corpus::Instance;
using datalog::Atom;
using datalog::Database;
using datalog::Fact;
using datalog::Term;
using datalog::Value;

constexpr JoinOrderMode kPlanned = JoinOrderMode::kPlanned;
constexpr JoinOrderMode kTextual = JoinOrderMode::kTextual;

EvalOptions Opts(int threads, JoinOrderMode order = kPlanned,
                 Strategy strategy = Strategy::kSemiNaive) {
  EvalOptions options;
  options.join_order = order;
  options.num_threads = threads;
  options.strategy = strategy;
  return options;
}

std::string Describe(const EvalOptions& options) {
  return std::string(StrategyName(options.strategy)) +
         (options.join_order == kTextual ? " textual" : " planned") +
         " threads=" + std::to_string(options.num_threads);
}

const std::vector<Instance>& CorpusFor(Family family) {
  static std::map<Family, std::vector<Instance>> cache;
  auto it = cache.find(family);
  if (it == cache.end()) {
    it = cache.emplace(family, corpus::Build(family)).first;
  }
  return it->second;
}

struct Oracle {
  EvalResult result;
  std::string model;
};

const Oracle& OracleFor(const Instance& in) {
  static std::map<std::string, Oracle> cache;
  auto it = cache.find(in.label);
  if (it != cache.end()) return it->second;
  Oracle oracle;
  auto run = Engine(*in.program, Opts(1, kTextual)).Run(in.Edb());
  EXPECT_TRUE(run.ok()) << in.label << ": oracle run failed: " << run.status();
  if (run.ok()) {
    EXPECT_EQ(run->completeness, Completeness::kLeastModel) << in.label;
    oracle.model = run->db.ToString();
    oracle.result = std::move(run).value();
  }
  return cache.emplace(in.label, std::move(oracle)).first->second;
}

/// `full_run` adds the counter every full Run shares with the oracle: both
/// insert exactly the least model's keys, whatever the schedule did to the
/// intermediate work.
void ExpectOracleModel(const Instance& in, const EvalResult& got,
                       const std::string& how, bool full_run) {
  const Oracle& oracle = OracleFor(in);
  EXPECT_EQ(got.completeness, oracle.result.completeness)
      << in.label << " " << how;
  EXPECT_EQ(got.db.ToString(), oracle.model)
      << in.label << " " << how << ": least model diverges from the oracle";
  if (full_run) {
    EXPECT_EQ(got.stats.merges_new, oracle.result.stats.merges_new)
        << in.label << " " << how;
  }
}

void ExpectRun(const Instance& in, const EvalOptions& options) {
  auto run = Engine(*in.program, options).Run(in.Edb());
  ASSERT_TRUE(run.ok()) << in.label << " " << Describe(options) << ": "
                        << run.status();
  ExpectOracleModel(in, *run, Describe(options), /*full_run=*/true);
}

/// The families whose programs decompose (Ex. 2.6 on the source of
/// path/s, Ex. 2.7 on the owner of cv/m/c).
bool FamilyPartitions(Family f) {
  return f == Family::kShortestPath || f == Family::kOwnership;
}

/// Runs `in` at `threads` like ExpectRun and checks that partitioned
/// evaluation engaged exactly where it should: a component runs as
/// `threads` partitions when it is recursive and decomposes, serially
/// otherwise, and every instance of a decomposing family ran partitioned.
/// Returns true when a partitioned component had fewer distinct keys in
/// its partition column than there were partitions, so some partition ran
/// empty.
bool ExpectPartitionedRun(const Instance& in, int threads) {
  const EvalOptions options = Opts(threads);
  Engine engine(*in.program, options);
  auto run = engine.Run(in.Edb());
  EXPECT_TRUE(run.ok()) << in.label << " " << Describe(options) << ": "
                        << run.status();
  if (!run.ok()) return false;
  ExpectOracleModel(in, *run, Describe(options), /*full_run=*/true);
  bool partitioned = false;
  bool sparse = false;
  for (const analysis::Component& c : engine.graph().components()) {
    if (c.rule_indices.empty()) continue;
    const std::map<const datalog::PredicateInfo*, int> columns =
        analysis::demand::DecompositionColumns(*in.program, c);
    const bool splits = c.recursive && !columns.empty();
    EXPECT_EQ(run->component_stats[c.index].partitions, splits ? threads : 1)
        << in.label << " component " << c.index << " " << Describe(options);
    if (!splits) continue;
    partitioned = true;
    std::set<Value> keys;
    for (const auto& [pred, column] : columns) {
      const datalog::Relation* rel = run->db.Find(pred);
      for (size_t row = 0; rel != nullptr && row < rel->size(); ++row) {
        keys.insert(rel->key_at(row)[column]);
      }
    }
    sparse = sparse || static_cast<int>(keys.size()) < threads;
  }
  if (FamilyPartitions(in.family)) {
    EXPECT_TRUE(partitioned) << in.label << ": never ran partitioned";
  }
  return sparse;
}

enum class Feed { kBulk, kTrickled };

/// Runs on part of the EDB, then inserts the rest through Engine::Update in
/// one batch or one fact per call, under every Update configuration. Instance
/// i starts from the facts k with k % 3 < i % 3: from nothing, a third, or
/// two thirds of its EDB.
void ExpectUpdate(const Instance& in, Feed feed) {
  std::vector<Fact> initial, inserted;
  for (size_t k = 0; k < in.edb.size(); ++k) {
    (static_cast<int>(k % 3) < in.index % 3 ? initial : inserted)
        .push_back(in.edb[k]);
  }
  for (const EvalOptions& options :
       {Opts(1), Opts(2), Opts(8), Opts(1, kTextual)}) {
    const std::string how = Describe(options) +
                            (feed == Feed::kBulk ? " bulk" : " trickled") +
                            " Update";
    Engine engine(*in.program, options);
    Database start;
    for (const Fact& f : initial) ASSERT_TRUE(start.AddFact(f).ok());
    auto result = engine.Run(std::move(start));
    ASSERT_TRUE(result.ok()) << in.label << " " << how << ": "
                             << result.status();
    if (feed == Feed::kBulk) {
      auto st = engine.Update(&*result, inserted);
      ASSERT_TRUE(st.ok()) << in.label << " " << how << ": " << st.status();
    } else {
      for (const Fact& f : inserted) {
        auto st = engine.Update(&*result, {f});
        ASSERT_TRUE(st.ok()) << in.label << " " << how << " of "
                             << f.ToString() << ": " << st.status();
      }
    }
    ExpectOracleModel(in, *result, how, /*full_run=*/false);
  }
}

/// Point queries for `program`: its declared .query directives plus, for
/// every head predicate with a key column, atoms binding the first key
/// column to (up to two) values from the oracle model, other columns free.
std::vector<Atom> CandidateQueries(const datalog::Program& program,
                                   const Database& model) {
  std::vector<Atom> out = program.queries();
  for (const datalog::PredicateInfo* pred : program.HeadPredicates()) {
    if (pred->key_arity() < 1) continue;
    const datalog::Relation* rel = model.Find(pred);
    if (rel == nullptr) continue;
    std::set<Value> firsts;
    rel->ForEach([&](const datalog::Tuple& key, const Value&) {
      if (firsts.size() < 2) firsts.insert(key[0]);
    });
    for (const Value& v : firsts) {
      Atom a;
      a.pred = pred;
      a.args.push_back(Term::Const(v));
      for (int i = 1; i < pred->arity; ++i) {
        a.args.push_back(Term::Var("Q" + std::to_string(i)));
      }
      out.push_back(std::move(a));
    }
  }
  return out;
}

/// The rows of `model` matching `query`'s constants, rendered like
/// QueryResult::ToString.
std::string Restriction(const Database& model, const Atom& query) {
  std::vector<std::string> lines;
  const datalog::Relation* rel = model.Find(query.pred);
  const Term* cost_term = query.CostTerm();
  if (rel != nullptr) {
    rel->ForEach([&](const datalog::Tuple& key, const Value& cost) {
      for (int i = 0; i < query.pred->key_arity(); ++i) {
        if (query.args[i].is_const() && !(query.args[i].constant == key[i])) {
          return;
        }
      }
      if (cost_term != nullptr && cost_term->is_const() &&
          !(cost_term->constant == cost)) {
        return;
      }
      Fact f;
      f.pred = query.pred;
      f.key = key;
      if (query.pred->has_cost) f.cost = cost;
      lines.push_back(f.ToString());
    });
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// Answers every candidate query with Engine::Query (kAuto: the demand
/// rewrite when it certifies, full evaluation otherwise) at 1 and 8 threads.
/// Shortest-path and ownership instances must take the demand path at least
/// once each.
void ExpectDemand(const Instance& in) {
  const Oracle& oracle = OracleFor(in);
  int demanded = 0;
  for (int threads : {1, 8}) {
    Engine engine(*in.program, Opts(threads));
    for (const Atom& q : CandidateQueries(*in.program, oracle.result.db)) {
      auto answer = engine.Query(q, in.Edb());
      ASSERT_TRUE(answer.ok()) << in.label << " " << q.ToString() << ": "
                               << answer.status();
      EXPECT_EQ(answer->ToString(), Restriction(oracle.result.db, q))
          << in.label << " threads=" << threads << ": answer to "
          << q.ToString() << " diverges from the oracle"
          << (answer->used_demand ? " (demand path)" : " (full fallback)");
      if (answer->used_demand) ++demanded;
    }
  }
  if (in.family == Family::kShortestPath || in.family == Family::kOwnership) {
    EXPECT_GT(demanded, 0) << in.label << ": the demand path never engaged";
  }
}

/// Update axes need an EDB to split (examples carry theirs inline) and a
/// program AnalyzeUpdateSafety accepts for inserts.
bool TakesUpdates(const Instance& in) {
  return !in.edb.empty() &&
         analysis::AnalyzeUpdateSafety(*in.program).basic.ok();
}

/// The families whose every instance TakesUpdates: the circuit program's
/// AND/OR aggregates are only pseudo-monotonic, so inserts are unsafe.
bool FamilyTakesUpdates(Family f) {
  return f != Family::kExamples && f != Family::kCircuit;
}

constexpr int kWidths[] = {2, 3, 4, 8, 16};

struct Axis {
  const char* name;
  bool needs_updates;  ///< only instances that TakesUpdates
  /// Checks one instance; true when it ran more partitions than keys.
  bool (*check)(const Instance&);
  /// Some instance of a partitioning family must run more partitions than
  /// it has keys.
  bool needs_empty_partition = false;
};

// Every equivalence the gate checks. Adding an axis is one entry here.
const Axis kAxes[] = {
    {"PlannedT1", false, [](const Instance& in) {
       ExpectRun(in, Opts(1));
       return false;
     }},
    {"PlannedT8", false,
     [](const Instance& in) { return ExpectPartitionedRun(in, 8); }},
    {"Naive", false,
     [](const Instance& in) {
       ExpectRun(in, Opts(1, kPlanned, Strategy::kNaive));
       return false;
     }},
    // Instance i runs at width kWidths[i % 5]: every width sees every family,
    // and the small instances have fewer keys than 16 partitions.
    {"Widths", false,
     [](const Instance& in) {
       const int width = kWidths[in.index % std::size(kWidths)];
       return ExpectPartitionedRun(in, width) && width == 16;
     },
     /*needs_empty_partition=*/true},
    {"BulkUpdate", true,
     [](const Instance& in) {
       ExpectUpdate(in, Feed::kBulk);
       return false;
     }},
    {"TrickledUpdate", true,
     [](const Instance& in) {
       ExpectUpdate(in, Feed::kTrickled);
       return false;
     }},
    {"Demand", false, [](const Instance& in) {
       ExpectDemand(in);
       return false;
     }},
};

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, Family>> {};

TEST_P(DifferentialTest, MatchesOracle) {
  const Axis& axis = kAxes[std::get<0>(GetParam())];
  const Family family = std::get<1>(GetParam());
  const std::vector<Instance>& instances = CorpusFor(family);
  size_t outside = 0;
  size_t with_empty_partition = 0;
  for (const Instance& in : instances) {
    if (axis.needs_updates && !TakesUpdates(in)) {
      ++outside;
      continue;
    }
    if (axis.check(in)) ++with_empty_partition;
  }
  if (axis.needs_empty_partition && FamilyPartitions(family)) {
    EXPECT_GT(with_empty_partition, 0u)
        << axis.name << ": no instance had fewer keys than partitions";
  }
  const bool takes_family = !axis.needs_updates || FamilyTakesUpdates(family);
  EXPECT_EQ(outside, takes_family ? 0 : instances.size())
      << axis.name << " skipped an unexpected number of instances";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DifferentialTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kAxes)),
                       ::testing::ValuesIn(corpus::kFamilies)),
    [](const auto& info) {
      return std::string(kAxes[std::get<0>(info.param)].name) + "_" +
             corpus::FamilyName(std::get<1>(info.param));
    });

// Fixed-graph Update checks: the arcs split so fact k is inserted by Update
// when k % parts == parts - 1, fed in `batches` near-equal batches.

std::vector<Fact> RandomArcs(const datalog::Program& program, uint64_t seed,
                             int nodes, int edges, double max_weight) {
  Random rng(seed);
  Database db;
  EXPECT_TRUE(workloads::AddGraphFacts(
                  program,
                  workloads::RandomGraph(nodes, edges, {1.0, max_weight}, &rng),
                  &db)
                  .ok());
  return corpus::FactsOf(db);
}

Database UpdatedModel(const datalog::Program& program,
                      const EvalOptions& options, const std::vector<Fact>& arcs,
                      size_t parts, size_t batches) {
  std::vector<Fact> initial, extra;
  for (size_t k = 0; k < arcs.size(); ++k) {
    (k % parts == parts - 1 ? extra : initial).push_back(arcs[k]);
  }
  Engine engine(program, options);
  Database edb;
  for (const Fact& f : initial) EXPECT_TRUE(edb.AddFact(f).ok());
  auto result = engine.Run(std::move(edb));
  EXPECT_TRUE(result.ok()) << Describe(options) << ": " << result.status();
  if (!result.ok()) return Database();
  const size_t batch = extra.size() / batches + 1;
  for (size_t start = 0; start < extra.size(); start += batch) {
    std::vector<Fact> facts(
        extra.begin() + start,
        extra.begin() + std::min(start + batch, extra.size()));
    auto st = engine.Update(&*result, facts);
    EXPECT_TRUE(st.ok()) << Describe(options) << ": " << st.status();
  }
  return std::move(result->db);
}

TEST(ParallelDeterminismTest, UpdateSameModelAcrossThreadCounts) {
  auto program =
      corpus::MustParse(workloads::kShortestPathProgram, "shortest_path");
  const std::vector<Fact> arcs = RandomArcs(*program, 88, 16, 60, 9.0);
  const std::string expected =
      UpdatedModel(*program, Opts(1), arcs, 2, 3).ToString();
  for (int n : {2, 8}) {
    EXPECT_EQ(UpdatedModel(*program, Opts(n), arcs, 2, 3).ToString(),
              expected)
        << "num_threads=" << n;
  }
  EXPECT_EQ(UpdatedModel(*program, Opts(1), arcs, 1, 1).ToString(), expected);
}

TEST(PlanDifferentialTest, UpdateSameModelAcrossModes) {
  auto program =
      corpus::MustParse(workloads::kShortestPathProgram, "shortest_path");
  const std::vector<Fact> arcs = RandomArcs(*program, 99, 16, 60, 9.0);
  const std::string textual =
      UpdatedModel(*program, Opts(1, kTextual), arcs, 2, 3).ToString();
  EXPECT_EQ(UpdatedModel(*program, Opts(1), arcs, 2, 3).ToString(), textual);
  EXPECT_EQ(UpdatedModel(*program, Opts(1), arcs, 1, 1).ToString(), textual);
}

TEST(DemandDifferentialTest, UpdateMaintainedModelMatchesDemandSlice) {
  auto program =
      corpus::MustParse(workloads::kShortestPathProgram, "shortest_path");
  Atom q;
  q.pred = program->FindPredicate("s");
  ASSERT_NE(q.pred, nullptr);
  q.args = {Term::Const(Value::Symbol("n0")), Term::Var("Y"), Term::Var("C")};
  QueryOptions demand;
  demand.mode = QueryOptions::Mode::kDemand;
  for (int seed = 0; seed < 4; ++seed) {
    const std::vector<Fact> arcs =
        RandomArcs(*program, 9400 + seed, 30, 140, 10.0);
    const EvalOptions options = Opts(seed % 2 == 0 ? 1 : 8);
    const Database maintained = UpdatedModel(*program, options, arcs, 3, 1);
    Database all;
    for (const Fact& f : arcs) ASSERT_TRUE(all.AddFact(f).ok());
    auto answer = Engine(*program, options).Query(q, std::move(all), demand);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->used_demand);
    EXPECT_EQ(answer->ToString(), Restriction(maintained, q))
        << "seed " << seed;
  }
}

// The corpus itself: every shipped example (a wrong MAD_SOURCE_DIR would
// make the glob, and every Examples test, pass vacuously) and at least 50
// generated instances, each with a non-empty EDB.
TEST(DifferentialCorpusTest, HoldsEveryExampleAndFiftyGeneratedInstances) {
  EXPECT_GE(CorpusFor(Family::kExamples).size(), 8u);
  size_t generated = 0;
  for (Family f : corpus::kFamilies) {
    if (f == Family::kExamples) continue;
    for (const Instance& in : CorpusFor(f)) {
      EXPECT_FALSE(in.edb.empty()) << in.label;
      ++generated;
    }
  }
  EXPECT_GE(generated, 50u);
}

}  // namespace
}  // namespace core
}  // namespace mad
