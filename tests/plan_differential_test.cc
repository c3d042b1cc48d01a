// Differential certification of the static planning seam: for a monotone
// program the least model is join-order independent (Tarski — the immediate
// consequence operator is the same function no matter how each rule body is
// enumerated), so evaluating under the planner's join orders must produce a
// byte-identical Database::ToString() and the same Completeness verdict as
// the textual-order oracle. This is the gate that lets JoinOrderMode::kPlanned
// be default-on: a planner bug can cost time, never answers.
//
// Exercised two ways, each at one and at kParallelThreads evaluation threads:
// every shipped examples/*.mdl program, and 50+ randomized workloads across
// the generator families.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "util/random.h"
#include "workloads/generators.h"
#include "workloads/programs.h"
#include "workloads/to_datalog.h"

#ifndef MAD_SOURCE_DIR
#define MAD_SOURCE_DIR "."
#endif

namespace mad {
namespace core {
namespace {

using datalog::Database;
using datalog::Program;

constexpr int kParallelThreads = 8;

Program MustParse(std::string_view text) {
  auto p = datalog::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

EvalOptions Opts(JoinOrderMode mode, int threads) {
  EvalOptions options;
  options.join_order = mode;
  options.num_threads = threads;
  return options;
}

/// Runs `program` on clones of `edb` under the textual-order oracle and under
/// the planner (both serially and with kParallelThreads workers) and asserts
/// identical least models. `label` names the workload in failure messages.
void ExpectPlanInvariant(const Program& program, const Database& edb,
                         const std::string& label) {
  Engine oracle(program, Opts(JoinOrderMode::kTextual, 1));
  auto t = oracle.Run(edb.Clone());
  ASSERT_TRUE(t.ok()) << label << ": textual run failed: " << t.status();

  for (int threads : {1, kParallelThreads}) {
    Engine planned(program, Opts(JoinOrderMode::kPlanned, threads));
    auto p = planned.Run(edb.Clone());
    ASSERT_TRUE(p.ok()) << label << ": planned run (threads=" << threads
                        << ") failed: " << p.status();
    EXPECT_EQ(t->completeness, p->completeness)
        << label << " threads=" << threads;
    EXPECT_EQ(t->db.ToString(), p->db.ToString())
        << label << ": planned least model diverges from textual order"
        << " (threads=" << threads << ")";
    // Both runs insert exactly the least model's keys, whatever the join
    // order did to intermediate binding counts.
    EXPECT_EQ(t->stats.merges_new, p->stats.merges_new)
        << label << " threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Every shipped example program.
// ---------------------------------------------------------------------------

TEST(PlanDifferentialTest, AllExamplePrograms) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(MAD_SOURCE_DIR) / "examples";
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".mdl") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << "cannot open " << entry.path();
    std::stringstream buffer;
    buffer << in.rdbuf();

    Program program = MustParse(buffer.str());
    ExpectPlanInvariant(program, Database(),
                        entry.path().filename().string());
    ++checked;
  }
  // A wrong MAD_SOURCE_DIR would vacuously pass the glob.
  EXPECT_GE(checked, 8);
}

// ---------------------------------------------------------------------------
// Randomized workloads: >= 50 instances across the generator families.
// ---------------------------------------------------------------------------

TEST(PlanDifferentialTest, RandomShortestPathGraphs) {
  Program program = MustParse(workloads::kShortestPathProgram);
  for (int i = 0; i < 20; ++i) {
    Random rng(5000 + i);
    baselines::Graph g;
    switch (i % 4) {
      case 0:
        g = workloads::RandomGraph(10 + i, 3 * (10 + i), {1.0, 9.0}, &rng);
        break;
      case 1:
        g = workloads::GridGraph(3 + i / 4, 4, {1.0, 5.0}, &rng);
        break;
      case 2:
        g = workloads::CycleGraph(8 + i, i, {1.0, 9.0}, &rng);
        break;
      default:
        g = workloads::LayeredDag(3, 3 + i / 4, 2, {1.0, 5.0}, &rng);
        break;
    }
    Database edb;
    ASSERT_TRUE(workloads::AddGraphFacts(program, g, &edb).ok());
    ExpectPlanInvariant(program, edb, "shortest_path/" + std::to_string(i));
  }
}

TEST(PlanDifferentialTest, RandomOwnershipNetworks) {
  Program program = MustParse(workloads::kCompanyControlProgram);
  for (int i = 0; i < 10; ++i) {
    Random rng(6000 + i);
    auto net = workloads::RandomOwnership(8 + 2 * i, 3, 0.5, &rng);
    Database edb;
    ASSERT_TRUE(workloads::AddOwnershipFacts(program, net, &edb).ok());
    ExpectPlanInvariant(program, edb, "company_control/" + std::to_string(i));
  }
}

TEST(PlanDifferentialTest, RandomCircuits) {
  Program program = MustParse(workloads::kCircuitProgram);
  for (int i = 0; i < 10; ++i) {
    Random rng(7000 + i);
    auto c = workloads::RandomCircuit(4, 10 + 3 * i, 3, 0.3, &rng);
    Database edb;
    ASSERT_TRUE(workloads::AddCircuitFacts(program, c, &edb).ok());
    ExpectPlanInvariant(program, edb, "circuit/" + std::to_string(i));
  }
}

TEST(PlanDifferentialTest, RandomPartyInstances) {
  Program program = MustParse(workloads::kPartyProgram);
  for (int i = 0; i < 10; ++i) {
    Random rng(8000 + i);
    auto p = workloads::RandomParty(12 + 3 * i, 3.0, 4, 0.5, &rng);
    Database edb;
    ASSERT_TRUE(workloads::AddPartyFacts(program, p, &edb).ok());
    ExpectPlanInvariant(program, edb, "party/" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Incremental maintenance under planning: Engine::Update re-plans against the
// live database and must land on the same model as the textual-order oracle
// and as from-scratch evaluation of the final fact set.
// ---------------------------------------------------------------------------

TEST(PlanDifferentialTest, UpdateSameModelAcrossModes) {
  Program program = MustParse(workloads::kShortestPathProgram);
  Random rng(99);
  baselines::Graph g = workloads::RandomGraph(16, 60, {1.0, 9.0}, &rng);

  std::vector<datalog::Fact> initial, extra;
  const datalog::PredicateInfo* arc = program.FindPredicate("arc");
  ASSERT_NE(arc, nullptr);
  int i = 0;
  for (int u = 0; u < g.num_nodes; ++u) {
    for (const baselines::Graph::Edge& e : g.adj[u]) {
      datalog::Fact f;
      f.pred = arc;
      f.key = {datalog::Value::Symbol(baselines::Graph::NodeName(u)),
               datalog::Value::Symbol(baselines::Graph::NodeName(e.to))};
      f.cost = datalog::Value::Real(e.weight);
      (i++ % 2 == 0 ? initial : extra).push_back(std::move(f));
    }
  }

  auto run_with = [&](JoinOrderMode mode) -> std::string {
    Engine engine(program, Opts(mode, 1));
    Database edb;
    for (const datalog::Fact& f : initial) {
      EXPECT_TRUE(edb.AddFact(f).ok());
    }
    auto result = engine.Run(std::move(edb));
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) return "";
    const size_t batch = extra.size() / 3 + 1;
    for (size_t start = 0; start < extra.size(); start += batch) {
      std::vector<datalog::Fact> facts(
          extra.begin() + start,
          extra.begin() + std::min(start + batch, extra.size()));
      auto st = engine.Update(&result.value(), facts);
      EXPECT_TRUE(st.ok()) << st.status();
    }
    return result->db.ToString();
  };

  const std::string textual = run_with(JoinOrderMode::kTextual);
  ASSERT_FALSE(textual.empty());
  EXPECT_EQ(run_with(JoinOrderMode::kPlanned), textual);

  Database full;
  for (const datalog::Fact& f : initial) ASSERT_TRUE(full.AddFact(f).ok());
  for (const datalog::Fact& f : extra) ASSERT_TRUE(full.AddFact(f).ok());
  Engine reference(program, Opts(JoinOrderMode::kPlanned, 1));
  auto batch = reference.Run(std::move(full));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->db.ToString(), textual);
}

}  // namespace
}  // namespace core
}  // namespace mad
