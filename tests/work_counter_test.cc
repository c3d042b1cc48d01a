// Pins the exact work counters of three paper fixpoints on seeded inputs:
// Ex. 2.6 (shortest paths, recursion through min), Ex. 2.7 (company
// control, recursion through sum) and Ex. 4.3 (party, recursion through
// count), serially and at four threads. The counters are deterministic for a
// given schedule, so a storage or executor change that silently reorders
// evaluation, or does more or less work, fails here rather than only in a
// benchmark run. If a change alters the schedule on purpose, re-derive the
// numbers and say why in the change description.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/engine.h"
#include "util/random.h"
#include "workloads/generators.h"
#include "workloads/programs.h"
#include "workloads/to_datalog.h"

namespace mad {
namespace {

/// The EvalStats work counters.
struct Counters {
  int64_t derivations;
  int64_t merges_new;
  int64_t merges_increased;
  int64_t iterations;
  int64_t rule_evaluations;
  int64_t subgoal_evals;
  int64_t index_reuses;
};

void ExpectCounters(const core::EvalStats& got, const Counters& want) {
  EXPECT_EQ(got.derivations, want.derivations);
  EXPECT_EQ(got.merges_new, want.merges_new);
  EXPECT_EQ(got.merges_increased, want.merges_increased);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.rule_evaluations, want.rule_evaluations);
  EXPECT_EQ(got.subgoal_evals, want.subgoal_evals);
  EXPECT_EQ(got.index_reuses, want.index_reuses);
}

core::EvalStats RunProgram(const char* text,
                    const std::function<Status(const datalog::Program&,
                                               datalog::Database*)>& facts,
                    core::EvalOptions options = {}) {
  auto program = datalog::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  datalog::Database edb;
  EXPECT_TRUE(facts(*program, &edb).ok());
  core::Engine engine(*program, options);
  auto result = engine.Run(std::move(edb));
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.reached_fixpoint);
  return result->stats;
}

core::EvalOptions Threads(int n) {
  core::EvalOptions options;
  options.num_threads = n;
  return options;
}

TEST(WorkCounterTest, ShortestPathsN64) {
  Random rng(7);
  baselines::Graph g = workloads::RandomGraph(64, 256, {1.0, 10.0}, &rng);
  core::EvalStats stats =
      RunProgram(workloads::kShortestPathProgram,
          [&](const datalog::Program& p, datalog::Database* db) {
            return workloads::AddGraphFacts(p, g, db);
          });
  ExpectCounters(stats, {43920, 19723, 7564, 19, 27290, 48866, 27534});
}

TEST(WorkCounterTest, CompanyControlSmall) {
  Random rng(11);
  workloads::OwnershipNetwork net =
      workloads::RandomOwnership(40, 4, 0.4, &rng);
  core::EvalStats stats =
      RunProgram(workloads::kCompanyControlProgram,
          [&](const datalog::Program& p, datalog::Database* db) {
            return workloads::AddOwnershipFacts(p, net, db);
          });
  ExpectCounters(stats, {1372, 1122, 96, 47, 1222, 1287, 770});
}

// The partitioned schedule: each program decomposes on its first key column,
// so four hash partitions run the serial loop side by side. Each partition
// replays its own keys' serial sequence, so derivations, merges and rounds
// (the most any partition runs) equal the serial pins above. Rule
// evaluations and subgoal evaluations add the three extra partitions' round
// 0, which evaluates every rule once per partition; index reuses count the
// partitions' own scans.
TEST(WorkCounterTest, ShortestPathsN64Threads4) {
  Random rng(7);
  baselines::Graph g = workloads::RandomGraph(64, 256, {1.0, 10.0}, &rng);
  core::EvalStats stats =
      RunProgram(workloads::kShortestPathProgram,
          [&](const datalog::Program& p, datalog::Database* db) {
            return workloads::AddGraphFacts(p, g, db);
          },
          Threads(4));
  EXPECT_EQ(stats.partitions, 4);
  ExpectCounters(stats, {43920, 19723, 7564, 19, 27299, 48875, 27513});
}

TEST(WorkCounterTest, CompanyControlSmallThreads4) {
  Random rng(11);
  workloads::OwnershipNetwork net =
      workloads::RandomOwnership(40, 4, 0.4, &rng);
  core::EvalStats stats =
      RunProgram(workloads::kCompanyControlProgram,
          [&](const datalog::Program& p, datalog::Database* db) {
            return workloads::AddOwnershipFacts(p, net, db);
          },
          Threads(4));
  EXPECT_EQ(stats.partitions, 4);
  ExpectCounters(stats, {1372, 1122, 96, 47, 1234, 1299, 728});
}

// Ex. 4.3 does not decompose — kc(X, Y) reads coming(Y) — so four threads
// evaluate it serially, with the serial counters.
core::EvalStats RunParty(int threads) {
  Random rng(13);
  workloads::PartyInstance party =
      workloads::RandomParty(60, 3.0, 4, 0.5, &rng);
  return RunProgram(workloads::kPartyProgram,
      [&](const datalog::Program& p, datalog::Database* db) {
        return workloads::AddPartyFacts(p, party, db);
      },
      Threads(threads));
}

TEST(WorkCounterTest, PartyN60) {
  ExpectCounters(RunParty(1), {276, 150, 0, 8, 152, 526, 161});
}

TEST(WorkCounterTest, PartyN60Threads4) {
  core::EvalStats stats = RunParty(4);
  EXPECT_EQ(stats.partitions, 1);
  ExpectCounters(stats, {276, 150, 0, 8, 152, 526, 161});
}

// Incremental maintenance: one new arc into the Ex. 2.6 n=64 model.
TEST(WorkCounterTest, ShortestPathsN64UpdateOneArc) {
  Random rng(7);
  baselines::Graph g = workloads::RandomGraph(64, 256, {1.0, 10.0}, &rng);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok()) << program.status();
  datalog::Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g, &edb).ok());
  core::Engine engine(*program);
  auto result = engine.Run(std::move(edb));
  ASSERT_TRUE(result.ok()) << result.status();

  datalog::Fact arc;
  arc.pred = program->FindPredicate("arc");
  arc.key = {datalog::Value::Symbol(baselines::Graph::NodeName(0)),
             datalog::Value::Symbol(baselines::Graph::NodeName(63))};
  arc.cost = datalog::Value::Real(0.5);
  ASSERT_FALSE(
      core::LookupCost(*program, result->db, "arc", arc.key).has_value());
  auto stats = engine.Update(&result.value(), {arc});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->reached_fixpoint);
  ExpectCounters(*stats, {1862, 65, 1069, 16, 1135, 2064, 0});
}

// A fixpoint stopped by max_iterations still reports the subgoal work it
// did, whatever the schedule.
TEST(WorkCounterTest, IterationCapKeepsSubgoalEvals) {
  Random rng(7);
  baselines::Graph g = workloads::RandomGraph(64, 256, {1.0, 10.0}, &rng);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok()) << program.status();
  datalog::Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g, &edb).ok());
  struct Case {
    core::Strategy strategy;
    int threads;
  };
  for (const Case& c : {Case{core::Strategy::kNaive, 1},
                        Case{core::Strategy::kSemiNaive, 1},
                        Case{core::Strategy::kSemiNaive, 4}}) {
    SCOPED_TRACE(std::string(core::StrategyName(c.strategy)) + " threads=" +
                 std::to_string(c.threads));
    core::EvalOptions options = Threads(c.threads);
    options.strategy = c.strategy;
    options.max_iterations = 2;
    core::Engine engine(*program, options);
    auto result = engine.Run(edb.Clone());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->stats.reached_fixpoint);
    EXPECT_GT(result->stats.subgoal_evals, 0);
  }
}

}  // namespace
}  // namespace mad
