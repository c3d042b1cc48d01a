// Core semantics of the engine: minimal models (Section 3), iterated
// components (Section 6.3), default values, strategies, failure modes.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workloads/programs.h"

namespace mad {
namespace core {
namespace {

using datalog::Tuple;
using datalog::Value;

ParsedRun MustRun(std::string_view text, EvalOptions options = {}) {
  auto run = ParseAndRun(text, options);
  EXPECT_TRUE(run.ok()) << run.status();
  return std::move(run).value();
}

std::optional<double> Cost(const ParsedRun& run, const char* pred,
                           std::vector<const char*> key) {
  Tuple t;
  for (const char* k : key) t.push_back(Value::Symbol(k));
  auto v = LookupCost(*run.program, run.result.db, pred, t);
  if (!v.has_value()) return std::nullopt;
  return v->AsDouble();
}

// The partition count is bounded before any pool exists: constructing an
// engine spawns no thread, so the clamp is checked on its options.
TEST(EngineTest, ThreadCountIsClampedToTheCap) {
  EXPECT_EQ(EffectiveThreads(-3), 1);
  EXPECT_EQ(EffectiveThreads(0), 1);
  EXPECT_EQ(EffectiveThreads(4), 4);
  EXPECT_EQ(EffectiveThreads(kMaxThreads), kMaxThreads);
  EXPECT_EQ(EffectiveThreads(kMaxThreads + 1), kMaxThreads);
  EXPECT_EQ(EffectiveThreads(1000000), kMaxThreads);
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok()) << program.status();
  EvalOptions options;
  options.num_threads = 1000000;
  EXPECT_EQ(Engine(*program, options).options().num_threads, kMaxThreads);
}

TEST(EngineTest, Example31MinimalModelExactly) {
  std::string text = std::string(workloads::kShortestPathProgram) +
                     "arc(a, b, 1).\narc(b, b, 0).\n";
  ParsedRun run = MustRun(text);
  // The unique minimal model M1 of Example 3.1 — note s(a,b,1), NOT the
  // non-minimal (⊑-wise) model M2's s(a,b,0).
  EXPECT_EQ(Cost(run, "s", {"a", "b"}), 1.0);
  EXPECT_EQ(Cost(run, "s", {"b", "b"}), 0.0);
  EXPECT_EQ(Cost(run, "path", {"a", "direct", "b"}), 1.0);
  EXPECT_EQ(Cost(run, "path", {"a", "b", "b"}), 1.0);
  EXPECT_EQ(Cost(run, "path", {"b", "direct", "b"}), 0.0);
  EXPECT_EQ(Cost(run, "path", {"b", "b", "b"}), 0.0);
  // Nothing else about s: s(b, a) has no path.
  EXPECT_FALSE(Cost(run, "s", {"b", "a"}).has_value());
}

TEST(EngineTest, AllStrategiesAgreeOnExample31) {
  std::string text = std::string(workloads::kShortestPathProgram) +
                     "arc(a, b, 1).\narc(b, b, 0).\n";
  std::string reference;
  for (Strategy s :
       {Strategy::kNaive, Strategy::kSemiNaive, Strategy::kGreedy}) {
    ParsedRun run = MustRun(text, {.strategy = s});
    std::string got = run.result.db.ToString();
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << "strategy " << StrategyName(s);
    }
  }
}

TEST(EngineTest, StratifiedAggregationOverLowerComponent) {
  ParsedRun run = MustRun(R"(
.decl record(s, c, g: max_real)
.decl s_avg(s, g: max_real)
s_avg(S, G) :- G =r avg D : record(S, C, D).
record(john, math, 80).
record(john, cs, 60).
record(mary, cs, 90).
)");
  EXPECT_EQ(Cost(run, "s_avg", {"john"}), 70.0);
  EXPECT_EQ(Cost(run, "s_avg", {"mary"}), 90.0);
}

TEST(EngineTest, MultiComponentPipelineRunsBottomUp) {
  // avg of class averages (Example 2.1's all-avg): two aggregation levels.
  ParsedRun run = MustRun(R"(
.decl record(s, c, g: max_real)
.decl c_avg(c, g: max_real)
.decl all_avg(g: max_real)
c_avg(C, G) :- G =r avg D : record(S, C, D).
all_avg(G) :- G =r avg D : c_avg(C, D).
record(john, math, 80).
record(mary, math, 40).
record(john, cs, 100).
)");
  EXPECT_EQ(Cost(run, "c_avg", {"math"}), 60.0);
  EXPECT_EQ(Cost(run, "c_avg", {"cs"}), 100.0);
  EXPECT_EQ(Cost(run, "all_avg", {}), 80.0);
}

TEST(EngineTest, CountVsRestrictedCountOnEmptyGroups) {
  // Example 2.1: class-count (=r) skips empty classes; alt-class-count (=)
  // reports 0 for them.
  ParsedRun run = MustRun(R"(
.decl courses(c)
.decl record(s, c)
.decl class_count(c, n: count_nat)
.decl alt_class_count(c, n: count_nat)
class_count(C, N) :- N =r count : record(S, C).
alt_class_count(C, N) :- courses(C), N = count : record(S, C).
courses(math). courses(art).
record(john, math).
record(mary, math).
)");
  EXPECT_EQ(Cost(run, "class_count", {"math"}), 2.0);
  EXPECT_FALSE(Cost(run, "class_count", {"art"}).has_value());
  EXPECT_EQ(Cost(run, "alt_class_count", {"math"}), 2.0);
  EXPECT_EQ(Cost(run, "alt_class_count", {"art"}), 0.0);
}

TEST(EngineTest, DefaultValuePredicateSynthesizesBottom) {
  ParsedRun run = MustRun(R"(
.decl wires(w)
.decl t(w, v: bool_or) default
.decl probe(w, v: bool_or)
probe(W, V) :- wires(W), t(W, V).
wires(w1).
wires(w2).
t(w1, 1).
)");
  EXPECT_EQ(Cost(run, "probe", {"w1"}), 1.0);
  EXPECT_EQ(Cost(run, "probe", {"w2"}), 0.0);  // default bottom
  // LookupCost also synthesizes defaults.
  EXPECT_EQ(Cost(run, "t", {"w2"}), 0.0);
}

TEST(EngineTest, NegationOnLowerComponent) {
  ParsedRun run = MustRun(R"(
.decl node(x)
.decl edge(x, y)
.decl has_out(x)
.decl sink(x)
has_out(X) :- edge(X, Y).
sink(X) :- node(X), !has_out(X).
node(a). node(b).
edge(a, b).
)");
  EXPECT_FALSE(Cost(run, "sink", {"a"}).has_value());
  EXPECT_TRUE(Cost(run, "sink", {"b"}).has_value());
}

TEST(EngineTest, NegationOnCostAtom) {
  ParsedRun run = MustRun(R"(
.decl val(x, v: max_real)
.decl item(x)
.decl not_five(x)
not_five(X) :- item(X), val(X, V), !val(X, 5).
item(a). item(b).
val(a, 5).
val(b, 7).
)");
  EXPECT_FALSE(Cost(run, "not_five", {"a"}).has_value());
  EXPECT_TRUE(Cost(run, "not_five", {"b"}).has_value());
}

TEST(EngineTest, RecursionThroughNegationRejected) {
  auto run = ParseAndRun(R"(
.decl e(x)
.decl p(x)
.decl q(x)
p(X) :- e(X), !q(X).
q(X) :- p(X).
e(a).
)");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kAnalysisError);
}

TEST(EngineTest, NonMonotonicAggregationRejectedButBypassable) {
  const char* text = R"(
.decl e(x, y)
.decl lim(x, k: count_nat)
.decl small(x)
.decl kc(x, y)
small(X) :- lim(X, K), N = count : kc(X, Y), N < K.
kc(X, Y) :- e(X, Y), small(Y).
lim(a, 5).
)";
  EXPECT_FALSE(ParseAndRun(text).ok());
  // validate=false lets experiments run rejected programs anyway.
  EXPECT_TRUE(ParseAndRun(text, {.validate = false}).ok());
}

TEST(EngineTest, ConflictingRulesCaughtStatically) {
  auto run = ParseAndRun(R"(
.decl q(x, d: min_real)
.decl r(x, d: min_real)
.decl p(x, c: min_real)
p(X, C) :- C =r min D : q(X, D).
p(X, C) :- C =r min D : r(X, D).
q(a, 1).
r(a, 2).
)");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kAnalysisError);
}

TEST(EngineTest, DynamicCostConsistencyDetection) {
  // Bypass the static check; the naive evaluator's per-application check
  // must catch the conflicting derivation (Definition 3.7).
  EvalOptions options;
  options.strategy = Strategy::kNaive;
  options.validate = false;
  options.check_cost_consistency = true;
  auto run = ParseAndRun(R"(
.decl q(x, d: min_real)
.decl r(x, d: min_real)
.decl p(x, c: min_real)
p(X, C) :- C =r min D : q(X, D).
p(X, C) :- C =r min D : r(X, D).
q(a, 1).
r(a, 2).
)",
                         options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCostConsistencyViolation);
}

TEST(EngineTest, MaxIterationsGuard) {
  // halfsum with exact arithmetic never reaches its fixpoint (Example 5.1).
  EvalOptions options;
  options.max_iterations = 10;
  ParsedRun run = MustRun(workloads::kHalfsumProgram, options);
  EXPECT_FALSE(run.result.stats.reached_fixpoint);
}

TEST(EngineTest, RuleWithConstantsOnlyFiresOnMatch) {
  ParsedRun run = MustRun(R"(
.decl e(x, y)
.decl hit(x)
hit(X) :- e(X, target).
e(a, target).
e(b, other).
)");
  EXPECT_TRUE(Cost(run, "hit", {"a"}).has_value());
  EXPECT_FALSE(Cost(run, "hit", {"b"}).has_value());
}

TEST(EngineTest, RepeatedVariablesInAtom) {
  ParsedRun run = MustRun(R"(
.decl e(x, y)
.decl loop(x)
loop(X) :- e(X, X).
e(a, a).
e(a, b).
)");
  EXPECT_TRUE(Cost(run, "loop", {"a"}).has_value());
  EXPECT_FALSE(Cost(run, "loop", {"b"}).has_value());
}

TEST(EngineTest, TransitiveClosurePlainDatalog) {
  ParsedRun run = MustRun(R"(
.decl e(x, y)
.decl tc(x, y)
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), e(Z, Y).
e(a, b). e(b, c). e(c, d).
)");
  EXPECT_TRUE(Cost(run, "tc", {"a", "d"}).has_value());
  EXPECT_FALSE(Cost(run, "tc", {"d", "a"}).has_value());
  const datalog::Relation* tc =
      run.result.db.Find(run.program->FindPredicate("tc"));
  EXPECT_EQ(tc->size(), 6u);
}

TEST(EngineTest, StatsArePopulated) {
  std::string text = std::string(workloads::kShortestPathProgram) +
                     "arc(a, b, 1).\narc(b, c, 2).\n";
  ParsedRun run = MustRun(text);
  EXPECT_GT(run.result.stats.iterations, 0);
  EXPECT_GT(run.result.stats.derivations, 0);
  EXPECT_GT(run.result.stats.merges_new, 0);
  EXPECT_TRUE(run.result.stats.reached_fixpoint);
  EXPECT_FALSE(run.result.stats.ToString().empty());
  EXPECT_FALSE(run.result.check.ToString().empty());
}

TEST(EngineTest, GreedyRequiresNumericComponent) {
  // Party's component has cost-free predicates: greedy must refuse.
  EvalOptions options;
  options.strategy = Strategy::kGreedy;
  std::string text =
      std::string(workloads::kPartyProgram) + "requires(solo, 0).\n";
  auto run = ParseAndRun(text, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, EmptyProgramRuns) {
  ParsedRun run = MustRun(".decl e(x)\ne(a).");
  EXPECT_EQ(run.result.db.TotalRows(), 1u);
}

TEST(EngineTest, EngineRunWithExternalEdb) {
  auto program = datalog::ParseProgram(workloads::kShortestPathProgram);
  ASSERT_TRUE(program.ok());
  datalog::Database edb;
  datalog::Fact f;
  f.pred = program->FindPredicate("arc");
  f.key = {Value::Symbol("x"), Value::Symbol("y")};
  f.cost = Value::Real(4);
  ASSERT_TRUE(edb.AddFact(f).ok());
  Engine engine(*program);
  auto result = engine.Run(std::move(edb));
  ASSERT_TRUE(result.ok()) << result.status();
  auto v = LookupCost(*program, result->db, "s",
                      {Value::Symbol("x"), Value::Symbol("y")});
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->AsDouble(), 4.0);
}

}  // namespace
}  // namespace core
}  // namespace mad
