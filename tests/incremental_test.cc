// Incremental view maintenance (Engine::Update): monotone inserts continue
// the fixpoint from the delta; the result must equal a full recomputation,
// at a fraction of the work.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workloads/generators.h"
#include "workloads/programs.h"
#include "workloads/to_datalog.h"

namespace mad {
namespace core {
namespace {

using baselines::Graph;
using datalog::Database;
using datalog::Fact;
using datalog::Program;
using datalog::Value;

Fact ArcFact(const Program& program, int u, int v, double w) {
  Fact f;
  f.pred = program.FindPredicate("arc");
  f.key = {Value::Symbol(Graph::NodeName(u)),
           Value::Symbol(Graph::NodeName(v))};
  f.cost = Value::Real(w);
  return f;
}

TEST(IncrementalTest, SingleArcInsertMatchesFullRecompute) {
  Random rng(2);
  Graph g = workloads::RandomGraph(20, 50, {1.0, 9.0}, &rng);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program);

  Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g, &edb).ok());
  auto incremental = engine.Run(edb.Clone());
  ASSERT_TRUE(incremental.ok());

  // Insert a shortcut edge incrementally...
  Fact shortcut = ArcFact(*program, 0, 19, 0.5);
  auto ustats = engine.Update(&incremental.value(), {shortcut});
  ASSERT_TRUE(ustats.ok()) << ustats.status();

  // ...and compare against recomputing from scratch.
  Graph g2 = g;
  g2.AddEdge(0, 19, 0.5);
  Database edb2;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g2, &edb2).ok());
  auto full = engine.Run(std::move(edb2));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(incremental->db.ToString(), full->db.ToString());
}

TEST(IncrementalTest, UpdateReportsWallTime) {
  Random rng(3);
  Graph g = workloads::RandomGraph(20, 50, {1.0, 9.0}, &rng);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program);
  Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g, &edb).ok());
  auto result = engine.Run(std::move(edb));
  ASSERT_TRUE(result.ok());
  const double batch_seconds = result->stats.wall_seconds;

  auto ustats = engine.Update(&result.value(), {ArcFact(*program, 0, 19, 0.5)});
  ASSERT_TRUE(ustats.ok()) << ustats.status();
  ASSERT_GT(ustats->derivations, 0);
  EXPECT_GT(ustats->wall_seconds, 0.0);
  // The cumulative stats add the update's time to the batch run's.
  EXPECT_GT(result->stats.wall_seconds, batch_seconds);
}

class IncrementalSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSeedTest, ArcByArcEqualsBatch) {
  // Build the whole graph one Update at a time; the final model must equal
  // the one-shot evaluation.
  Random rng(GetParam());
  Graph g = workloads::RandomGraph(12, 35, {1.0, 9.0}, &rng);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program);

  auto trickled = engine.Run(Database());
  ASSERT_TRUE(trickled.ok());
  for (int u = 0; u < g.num_nodes; ++u) {
    for (const Graph::Edge& e : g.adj[u]) {
      auto st =
          engine.Update(&trickled.value(), {ArcFact(*program, u, e.to,
                                                    e.weight)});
      ASSERT_TRUE(st.ok()) << st.status();
    }
  }

  Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g, &edb).ok());
  auto batch = engine.Run(std::move(edb));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(trickled->db.ToString(), batch->db.ToString());
}

TEST_P(IncrementalSeedTest, CompanyControlShareInserts) {
  Random rng(50 + GetParam());
  auto net = workloads::RandomOwnership(12, 3, 0.4, &rng);
  auto program = datalog::ParseProgram(workloads::kCompanyControlProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program);

  // Start with the network minus the control chain, then add it back
  // incrementally — the added shares trigger recursive control cascades.
  auto partial = net;
  std::vector<Fact> chain;
  for (int y = 0; y + 1 < 12; ++y) {
    if (partial.shares[y][y + 1] == 0.6) {
      partial.shares[y][y + 1] = 0.0;
      Fact f;
      f.pred = program->FindPredicate("s");
      f.key = {
          Value::Symbol(baselines::OwnershipNetwork::CompanyName(y)),
          Value::Symbol(baselines::OwnershipNetwork::CompanyName(y + 1))};
      f.cost = Value::Real(0.6);
      chain.push_back(std::move(f));
    }
  }
  Database edb;
  ASSERT_TRUE(workloads::AddOwnershipFacts(*program, partial, &edb).ok());
  auto incremental = engine.Run(std::move(edb));
  ASSERT_TRUE(incremental.ok());
  auto st = engine.Update(&incremental.value(), chain);
  ASSERT_TRUE(st.ok()) << st.status();

  Database full_edb;
  ASSERT_TRUE(workloads::AddOwnershipFacts(*program, net, &full_edb).ok());
  auto full = engine.Run(std::move(full_edb));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(incremental->db.ToString(), full->db.ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSeedTest, ::testing::Range(1, 6));

class IncrementalThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalThreadsTest, TrickledUpdatesMatchBatchUnderParallelism) {
  // Same contract as ArcByArcEqualsBatch, but the engine runs its fixpoints
  // with a worker pool: updates must land on the identical least model at
  // every thread count (the serving layer leans on this — its writer calls
  // Update on a parallel engine while snapshots are being read).
  EvalOptions options;
  options.num_threads = GetParam();
  Random rng(11);
  Graph g = workloads::RandomGraph(14, 40, {1.0, 9.0}, &rng);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program, options);

  auto trickled = engine.Run(Database());
  ASSERT_TRUE(trickled.ok());
  for (int u = 0; u < g.num_nodes; ++u) {
    for (const Graph::Edge& e : g.adj[u]) {
      auto st = engine.Update(&trickled.value(),
                              {ArcFact(*program, u, e.to, e.weight)});
      ASSERT_TRUE(st.ok()) << st.status();
    }
  }

  Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g, &edb).ok());
  Engine serial(*program);
  auto batch = serial.Run(std::move(edb));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(trickled->db.ToString(), batch->db.ToString())
      << "num_threads=" << GetParam();
}

TEST_P(IncrementalThreadsTest, BulkUpdateMatchesBatchUnderParallelism) {
  // One big insert batch (the serving layer's common case) instead of
  // arc-by-arc trickling.
  EvalOptions options;
  options.num_threads = GetParam();
  Random rng(12);
  Graph g = workloads::RandomGraph(20, 70, {1.0, 9.0}, &rng);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program, options);

  std::vector<Fact> all_arcs;
  for (int u = 0; u < g.num_nodes; ++u) {
    for (const Graph::Edge& e : g.adj[u]) {
      all_arcs.push_back(ArcFact(*program, u, e.to, e.weight));
    }
  }
  auto result = engine.Run(Database());
  ASSERT_TRUE(result.ok());
  auto st = engine.Update(&result.value(), all_arcs);
  ASSERT_TRUE(st.ok()) << st.status();

  Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g, &edb).ok());
  Engine serial(*program);
  auto batch = serial.Run(std::move(edb));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(result->db.ToString(), batch->db.ToString())
      << "num_threads=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalThreadsTest,
                         ::testing::Values(2, 8));

TEST(IncrementalTest, UpdateDoesFarLessWorkThanRecompute) {
  Random rng(9);
  Graph g = workloads::RandomGraph(40, 160, {1.0, 9.0}, &rng);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program);
  Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(*program, g, &edb).ok());
  auto result = engine.Run(std::move(edb));
  ASSERT_TRUE(result.ok());
  int64_t full_derivations = result->stats.derivations;

  // A heavy-cost edge far from everything changes little.
  auto ustats =
      engine.Update(&result.value(), {ArcFact(*program, 3, 7, 500.0)});
  ASSERT_TRUE(ustats.ok());
  EXPECT_LT(ustats->derivations, full_derivations / 5)
      << "update: " << ustats->ToString()
      << "\nfull: " << result->stats.ToString();
}

TEST(IncrementalTest, LateGuestTipsTheParty) {
  // Everyone needs one committed friend and knows the next person around a
  // cycle: nobody comes. Adding one zero-threshold guest known by p0 tips
  // the whole cycle, one person per round.
  auto program = datalog::ParseProgram(workloads::kPartyProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program);

  baselines::PartyInstance p;
  p.num_people = 6;
  p.threshold.assign(6, 1);
  p.knows.assign(6, {});
  for (int i = 0; i < 6; ++i) p.knows[i].push_back((i + 1) % 6);
  Database edb;
  ASSERT_TRUE(workloads::AddPartyFacts(*program, p, &edb).ok());
  auto result = engine.Run(std::move(edb));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.Find(program->FindPredicate("coming")), nullptr);

  // The late guest: requires(joy, 0) plus knows(p0, joy).
  Fact joy_req;
  joy_req.pred = program->FindPredicate("requires");
  joy_req.key = {Value::Symbol("joy")};
  joy_req.cost = Value::Real(0);
  Fact knows_joy;
  knows_joy.pred = program->FindPredicate("knows");
  knows_joy.key = {Value::Symbol("p0"), Value::Symbol("joy")};
  auto st = engine.Update(&result.value(), {joy_req, knows_joy});
  ASSERT_TRUE(st.ok()) << st.status();
  const auto* coming = result->db.Find(program->FindPredicate("coming"));
  ASSERT_NE(coming, nullptr);
  EXPECT_EQ(coming->size(), 7u);  // joy + the whole cycle
}

TEST(IncrementalTest, RejectsPseudoMonotonicAggregates) {
  // A new connect fact can *lower* an AND gate (it gains a 0 input):
  // insert-only maintenance is unsound for the circuit program.
  auto program = datalog::ParseProgram(workloads::kCircuitProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program);
  auto result = engine.Run(Database());
  ASSERT_TRUE(result.ok());
  Fact f;
  f.pred = program->FindPredicate("input");
  f.key = {Value::Symbol("w1")};
  f.cost = Value::Real(1);
  auto st = engine.Update(&result.value(), {f});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.status().message().find("not fully monotonic"),
            std::string::npos);
}

TEST(IncrementalTest, RejectsNegation) {
  auto program = datalog::ParseProgram(R"(
.decl e(x)
.decl f(x)
.decl g(x)
g(X) :- e(X), !f(X).
)");
  ASSERT_TRUE(program.ok());
  Engine engine(*program);
  auto result = engine.Run(Database());
  ASSERT_TRUE(result.ok());
  Fact f;
  f.pred = program->FindPredicate("e");
  f.key = {Value::Symbol("a")};
  auto st = engine.Update(&result.value(), {f});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalTest, IdempotentReinsertion) {
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok());
  Engine engine(*program);
  auto result = engine.Run(Database());
  ASSERT_TRUE(result.ok());
  Fact f = ArcFact(*program, 0, 1, 2.0);
  ASSERT_TRUE(engine.Update(&result.value(), {f}).ok());
  std::string before = result->db.ToString();
  auto again = engine.Update(&result.value(), {f});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(result->db.ToString(), before);
  EXPECT_EQ(again->derivations, 0);
}

}  // namespace
}  // namespace core
}  // namespace mad
