// Static planning costs and payoffs: how much the whole-program planner
// (type inference + per-rule SIPS join ordering) costs as programs grow, and
// what planned join orders buy at evaluation time against the textual-order
// oracle on the shortest-path workload.

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "analysis/dependency_graph.h"
#include "analysis/plan/plan.h"
#include "analysis/typing/types.h"
#include "bench_common.h"
#include "core/engine.h"
#include "datalog/parser.h"
#include "util/random.h"
#include "workloads/generators.h"
#include "workloads/programs.h"
#include "workloads/to_datalog.h"

namespace {

using namespace mad;

// A chain of join rules over `rules + 1` binary predicates plus a recursive
// min-cost predicate — the bench_lint shape, minus the intentional smells,
// so the planner sees multi-atom bodies, builtins, and an aggregate.
std::string GenerateProgram(int rules) {
  std::ostringstream out;
  out << ".decl p0(x, y)\n";
  for (int i = 1; i <= rules; ++i) {
    out << ".decl p" << i << "(x, y)\n";
  }
  out << ".decl sp(x, c: min_real)\n";
  out << ".decl base(x, y, c: min_real)\n";
  out << "p0(a, b).\n";
  out << "base(a, b, 1).\n";
  for (int i = 1; i <= rules; ++i) {
    out << "p" << i << "(X, Y) :- p" << (i - 1) << "(X, Z), p" << (i - 1)
        << "(Z, Y).\n";
  }
  out << "sp(X, C) :- base(X, _Y, C).\n";
  out << "sp(X, C) :- sp(Z, C1), base(Z, X, C2), C = C1 + C2.\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Planning cost: what `mondl --explain` / Engine::Run pay up front.
// ---------------------------------------------------------------------------

void BM_PlanProgram(benchmark::State& state) {
  auto parsed = datalog::ParseProgram(GenerateProgram(
      static_cast<int>(state.range(0))));
  if (!parsed.ok()) std::abort();
  analysis::DependencyGraph graph(*parsed);
  analysis::plan::CardinalityEstimates cards =
      analysis::plan::CardinalityEstimates::FromProgram(*parsed);
  for (auto _ : state) {
    analysis::plan::PlanReport report =
        analysis::plan::PlanProgram(*parsed, graph, cards);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * parsed->rules().size());
  state.counters["rules"] = static_cast<double>(parsed->rules().size());
}
BENCHMARK(BM_PlanProgram)->RangeMultiplier(4)->Range(8, 512);

void BM_InferTypes(benchmark::State& state) {
  auto parsed = datalog::ParseProgram(GenerateProgram(
      static_cast<int>(state.range(0))));
  if (!parsed.ok()) std::abort();
  for (auto _ : state) {
    analysis::typing::TypeReport report =
        analysis::typing::InferTypes(*parsed);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * parsed->rules().size());
}
BENCHMARK(BM_InferTypes)->RangeMultiplier(4)->Range(8, 512);

// ---------------------------------------------------------------------------
// Evaluation under the two join-order modes: same least model (certified
// by tests/differential_test.cc), different work. The per-mode subgoal_evals
// counter is the model-independent work metric.
// ---------------------------------------------------------------------------

void EvalWithMode(benchmark::State& state, core::JoinOrderMode mode) {
  const datalog::Program& program =
      bench::CachedProgram(workloads::kShortestPathProgram);
  Random rng(42);
  baselines::Graph g =
      workloads::RandomGraph(static_cast<int>(state.range(0)),
                             4 * static_cast<int>(state.range(0)),
                             {1.0, 9.0}, &rng);
  datalog::Database edb;
  if (!workloads::AddGraphFacts(program, g, &edb).ok()) std::abort();

  core::EvalOptions options;
  options.join_order = mode;
  long long subgoal_evals = 0;
  for (auto _ : state) {
    core::Engine engine(program, options);
    auto result = engine.Run(edb.Clone());
    if (!result.ok()) std::abort();
    subgoal_evals = static_cast<long long>(result->stats.subgoal_evals);
    benchmark::DoNotOptimize(result);
  }
  state.counters["subgoal_evals"] = static_cast<double>(subgoal_evals);
  state.counters["nodes"] = static_cast<double>(g.num_nodes);
}

void BM_EvalPlanned(benchmark::State& state) {
  EvalWithMode(state, core::JoinOrderMode::kPlanned);
}
BENCHMARK(BM_EvalPlanned)->RangeMultiplier(2)->Range(16, 128);

void BM_EvalTextual(benchmark::State& state) {
  EvalWithMode(state, core::JoinOrderMode::kTextual);
}
BENCHMARK(BM_EvalTextual)->RangeMultiplier(2)->Range(16, 128);

}  // namespace

int main(int argc, char** argv) {
  return mad::bench::RunBenchmarks(argc, argv);
}
