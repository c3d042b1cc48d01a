// Pins the exact work counters of two paper fixpoints on seeded inputs:
// Ex. 2.6 (shortest paths, recursion through min) and Ex. 2.7 (company
// control, recursion through sum). The counters are deterministic for a
// given schedule, so a storage or executor change that silently reorders
// evaluation, or does more or less work, fails here rather than only in a
// benchmark run. If a change alters the schedule on purpose, re-derive the
// numbers and say why in the change description.

#include <gtest/gtest.h>

#include <functional>

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

core::EvalStats RunProgram(const char* text,
                    const std::function<Status(const datalog::Program&,
                                               datalog::Database*)>& facts) {
  auto program = datalog::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  datalog::Database edb;
  EXPECT_TRUE(facts(*program, &edb).ok());
  core::Engine engine(*program);
  auto result = engine.Run(std::move(edb));
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.reached_fixpoint);
  return result->stats;
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

}  // namespace
}  // namespace mad
