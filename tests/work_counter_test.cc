// Pins the exact work counters of two paper fixpoints on seeded inputs:
// Ex. 2.6 (shortest paths, recursion through min) and Ex. 2.7 (company
// control, recursion through sum). The counters are deterministic for a
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

/// The EvalStats work counters, as recorded before the flat relation storage
/// landed (which left all of them unchanged).
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

/// The counters that cannot depend on the order in which a round's
/// derivations are merged. merges_increased can: with a pool, shard owners
/// visit the workers' buffers in participant order, but which worker ran
/// which item varies from run to run, so whether a key's second derivation
/// in one round counts as an increase or as unchanged is not fixed.
struct OrderFreeCounters {
  int64_t derivations;
  int64_t merges_new;
  int64_t iterations;
  int64_t rule_evaluations;
  int64_t subgoal_evals;
};

void ExpectOrderFreeCounters(const core::EvalStats& got,
                             const OrderFreeCounters& want) {
  EXPECT_EQ(got.derivations, want.derivations);
  EXPECT_EQ(got.merges_new, want.merges_new);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.rule_evaluations, want.rule_evaluations);
  EXPECT_EQ(got.subgoal_evals, want.subgoal_evals);
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

// The phased schedule: every round fans out over a pool of four on a frozen
// database, then merges by predicate shard.
TEST(WorkCounterTest, ShortestPathsN64Threads4) {
  Random rng(7);
  baselines::Graph g = workloads::RandomGraph(64, 256, {1.0, 10.0}, &rng);
  core::EvalStats stats =
      RunProgram(workloads::kShortestPathProgram,
          [&](const datalog::Program& p, datalog::Database* db) {
            return workloads::AddGraphFacts(p, g, db);
          },
          Threads(4));
  ExpectOrderFreeCounters(stats, {43962, 19723, 20, 27479, 49204});
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
  ExpectOrderFreeCounters(stats, {1276, 1122, 49, 1222, 1222});
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
  ExpectOrderFreeCounters(*stats, {1862, 65, 16, 1135, 2064});
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
