// The demand-analysis layer (analysis/demand): query patterns, the certified
// magic-sets rewrite, its structural certifier, and an end-to-end check that
// the demanded slice of the rewritten least model equals the original's.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/demand/demand.h"
#include "analysis/dependency_graph.h"
#include "core/engine.h"
#include "datalog/database.h"
#include "datalog/parser.h"
#include "workloads/generators.h"
#include "workloads/programs.h"
#include "workloads/to_datalog.h"

namespace mad {
namespace analysis {
namespace demand {
namespace {

using datalog::Atom;
using datalog::Database;
using datalog::Fact;
using datalog::Program;
using datalog::Value;

Program MustParse(std::string_view text) {
  auto p = datalog::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

Atom MustParseQuery(const Program& program, std::string_view text) {
  auto a = datalog::ParseQueryAtom(program, text);
  EXPECT_TRUE(a.ok()) << a.status();
  return std::move(a).value();
}

DemandRewrite RewriteFor(const Program& program, std::string_view pred,
                         std::string adornment) {
  DependencyGraph graph(program);
  DemandPattern pattern{program.FindPredicate(pred), std::move(adornment)};
  EXPECT_NE(pattern.pred, nullptr);
  return RewriteForPattern(program, graph, pattern);
}

// ---------------------------------------------------------------------------
// PatternForQuery
// ---------------------------------------------------------------------------

/// DecompositionColumns of the component holding `pred`, by predicate name.
std::map<std::string, int> ColumnsOf(const Program& program,
                                     std::string_view pred) {
  DependencyGraph graph(program);
  const datalog::PredicateInfo* p = program.FindPredicate(pred);
  EXPECT_NE(p, nullptr) << pred;
  std::map<std::string, int> out;
  if (p == nullptr) return out;
  const Component& c = graph.components()[graph.ComponentOf(p)];
  for (const auto& [q, column] : DecompositionColumns(program, c)) {
    out[q->name] = column;
  }
  return out;
}

TEST(DecompositionTest, PaperProgramsSplitOnTheirFirstKeyColumn) {
  using Columns = std::map<std::string, int>;
  EXPECT_EQ(ColumnsOf(MustParse(workloads::kShortestPathProgram), "s"),
            (Columns{{"path", 0}, {"s", 0}}));
  EXPECT_EQ(ColumnsOf(MustParse(workloads::kCompanyControlProgram), "m"),
            (Columns{{"c", 0}, {"cv", 0}, {"m", 0}}));
  // Ex. 4.3: kc(X, Y) reads coming(Y), relating keys that differ.
  EXPECT_TRUE(ColumnsOf(MustParse(workloads::kPartyProgram), "coming").empty());
}

TEST(DecompositionTest, LaterColumnsAreTried) {
  // Right-linear closure keeps the target fixed, not the source.
  EXPECT_EQ(ColumnsOf(MustParse(".decl e(a, b)\n.decl t(a, b)\n"
                                "t(X, Y) :- e(X, Y).\n"
                                "t(X, Y) :- e(X, Z), t(Z, Y).\n"),
                      "t"),
            (std::map<std::string, int>{{"t", 1}}));
}

TEST(DecompositionTest, RulesRelatingDifferentKeysDoNotSplit) {
  const char* decls =
      ".decl e(a, b)\n.decl t(a, b)\nt(X, Y) :- e(X, Y).\n";
  for (const char* rule : {
           // Non-linear closure joins two partitions.
           "t(X, Y) :- t(X, Z), t(Z, Y).\n",
           // A constant at the partition column, and no other column fits.
           "t(a, Y) :- t(X, Z), e(Z, Y).\n",
           // The head's variable sits elsewhere in the body atom.
           "t(X, Y) :- t(Y, X).\n",
           // An aggregate counting another key's group.
           "t(X, Y) :- e(X, Y), N = count : t(Y, Z), N > 1.\n",
       }) {
    SCOPED_TRACE(rule);
    EXPECT_TRUE(ColumnsOf(MustParse(std::string(decls) + rule), "t").empty());
  }
}

TEST(DemandPatternTest, ConstantsAreBoundVariablesFree) {
  Program program = MustParse(workloads::kShortestPathProgram);
  bool widened = true;
  DemandPattern p =
      PatternForQuery(MustParseQuery(program, "s(n0, Y, C)"), &widened);
  EXPECT_EQ(p.pred, program.FindPredicate("s"));
  EXPECT_EQ(p.adornment, "bf");
  EXPECT_FALSE(widened);
  EXPECT_TRUE(p.HasBound());
  EXPECT_EQ(p.BoundCount(), 1);
  EXPECT_EQ(p.ToString(), "s^bf");
}

TEST(DemandPatternTest, AnonymousVariablesAreFree) {
  Program program = MustParse(workloads::kShortestPathProgram);
  bool widened = true;
  DemandPattern p =
      PatternForQuery(MustParseQuery(program, "s(_, _, _)"), &widened);
  EXPECT_EQ(p.adornment, "ff");
  EXPECT_FALSE(widened);
  EXPECT_FALSE(p.HasBound());
}

TEST(DemandPatternTest, BoundCostColumnWidensButKeysStayBound) {
  Program program = MustParse(workloads::kShortestPathProgram);
  bool widened = false;
  DemandPattern p =
      PatternForQuery(MustParseQuery(program, "s(n0, n1, 3.0)"), &widened);
  EXPECT_EQ(p.adornment, "bb");
  EXPECT_TRUE(widened) << "a constant cost column must widen (MAD027)";
}

// ---------------------------------------------------------------------------
// RewriteForPattern on the paper's shortest-path program
// ---------------------------------------------------------------------------

TEST(DemandRewriteTest, ShortestPathBoundSourceRewrites) {
  Program program = MustParse(workloads::kShortestPathProgram);
  DemandRewrite rw = RewriteFor(program, "s", "bf");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;

  // The cone of s^bf: s's aggregate ranges over path (first key column
  // bound), and path recurses back through s. The cost columns stay free.
  std::set<std::string> pats;
  for (const DemandPattern& p : rw.patterns) pats.insert(p.ToString());
  EXPECT_EQ(pats, (std::set<std::string>{"s^bf", "path^bff"}));

  ASSERT_NE(rw.seed_pred, nullptr);
  EXPECT_EQ(rw.seed_pred->name, "m_s_bf");
  EXPECT_EQ(rw.seed_pred->arity, 1);
  EXPECT_TRUE(rw.seed_pred->is_magic);
  EXPECT_FALSE(rw.seed_pred->has_cost);
  EXPECT_EQ(rw.bound_key_positions, (std::vector<int>{0}));
  EXPECT_TRUE(rw.unreachable_rules.empty());

  // Every original rule has a guarded copy, plus magic rules on top.
  EXPECT_EQ(rw.copy_sources.size(), program.rules().size());
  EXPECT_FALSE(rw.magic_sources.empty());
  EXPECT_EQ(rw.rewritten.rules().size(),
            rw.copy_sources.size() + rw.magic_sources.size());

  // The certifier is already run internally; it must also pass standalone.
  EXPECT_TRUE(CertifyRewrite(program, rw).ok());
}

TEST(DemandRewriteTest, PredicateIdsAlignWithOriginal) {
  Program program = MustParse(workloads::kShortestPathProgram);
  DemandRewrite rw = RewriteFor(program, "s", "bf");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;
  ASSERT_GE(rw.rewritten.predicates().size(), program.predicates().size());
  for (size_t i = 0; i < program.predicates().size(); ++i) {
    const auto& orig = *program.predicates()[i];
    const auto& copy = *rw.rewritten.predicates()[i];
    EXPECT_EQ(orig.id, copy.id);
    EXPECT_EQ(orig.name, copy.name);
    EXPECT_EQ(orig.arity, copy.arity);
    EXPECT_EQ(orig.has_cost, copy.has_cost);
  }
  for (size_t i = program.predicates().size();
       i < rw.rewritten.predicates().size(); ++i) {
    EXPECT_TRUE(rw.rewritten.predicates()[i]->is_magic);
  }
}

TEST(DemandRewriteTest, AllFreePatternIsUnguardedConeRestriction) {
  Program program = MustParse(workloads::kShortestPathProgram);
  DemandRewrite rw = RewriteFor(program, "s", "ff");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;
  EXPECT_EQ(rw.seed_pred, nullptr);
  EXPECT_TRUE(rw.magic_sources.empty());
  // No magic predicates and no guards: same predicates, same rule count.
  EXPECT_EQ(rw.rewritten.predicates().size(), program.predicates().size());
  EXPECT_EQ(rw.rewritten.rules().size(), program.rules().size());
  for (const RuleCopySource& c : rw.copy_sources) {
    EXPECT_FALSE(c.guarded);
  }
}

TEST(DemandRewriteTest, RulesOutsideTheConeAreDropped) {
  Program program = MustParse(R"(
    .decl e(x, y)
    .decl t(x, y)
    .decl src(x)
    .decl other(x)
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
    other(X) :- src(X).
  )");
  DemandRewrite rw = RewriteFor(program, "t", "bf");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;
  EXPECT_EQ(rw.unreachable_rules, (std::vector<int>{2}));
  EXPECT_EQ(rw.copy_sources.size(), 2u);
}

TEST(DemandRewriteTest, BailsOutOnMagicNameCollision) {
  Program program = MustParse(R"(
    .decl e(x, y)
    .decl t(x, y)
    .decl m_t_bf(x)
    t(X, Y) :- e(X, Y).
    m_t_bf(X) :- t(X, X).
  )");
  DemandRewrite rw = RewriteFor(program, "t", "bf");
  EXPECT_FALSE(rw.ok);
  EXPECT_FALSE(rw.bailout_reason.empty());
}

TEST(DemandRewriteTest, BailsOutOnAlreadyRewrittenProgram) {
  Program program = MustParse(workloads::kShortestPathProgram);
  DemandRewrite rw = RewriteFor(program, "s", "bf");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;
  DemandRewrite again = RewriteFor(rw.rewritten, "s", "bf");
  EXPECT_FALSE(again.ok);
  EXPECT_FALSE(again.bailout_reason.empty());
}

TEST(DemandRewriteTest, NegatedPredicateDemandedAllFree) {
  Program program = MustParse(R"(
    .decl e(x, y)
    .decl bad(x)
    .decl mark(x)
    .decl t(x, y)
    bad(X) :- mark(X).
    t(X, Y) :- e(X, Y), !bad(Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  DemandRewrite rw = RewriteFor(program, "t", "bf");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;
  std::set<std::string> pats;
  for (const DemandPattern& p : rw.patterns) pats.insert(p.ToString());
  // bad sits under negation: its cone is evaluated in full (all-free), never
  // sliced — restricting a complement would be unsound.
  EXPECT_TRUE(pats.count("bad^f")) << rw.ToString();
  EXPECT_TRUE(pats.count("t^bf"));
}

TEST(DemandCertifyTest, RejectsFabricatedRewrite) {
  Program program = MustParse(workloads::kShortestPathProgram);
  DemandRewrite fake;
  fake.ok = true;
  fake.query_pattern = DemandPattern{program.FindPredicate("s"), "bf"};
  EXPECT_FALSE(CertifyRewrite(program, fake).ok());
}

TEST(DemandCertifyTest, RejectsDroppedCopy) {
  Program program = MustParse(workloads::kShortestPathProgram);
  DemandRewrite rw = RewriteFor(program, "s", "bf");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;
  // Claim a rule is in the cone that the rewrite never copied: completeness
  // check 4 must notice the missing copy.
  rw.patterns.insert(DemandPattern{program.FindPredicate("path"), "fff"});
  EXPECT_FALSE(CertifyRewrite(program, rw).ok());
}

// ---------------------------------------------------------------------------
// End to end: the demanded slice equals the full model's restriction
// ---------------------------------------------------------------------------

std::vector<std::string> SliceOf(const datalog::Database& db,
                                 const datalog::PredicateInfo* pred,
                                 const std::string& source) {
  std::vector<std::string> out;
  const datalog::Relation* rel = db.Find(pred);
  if (rel == nullptr) return out;
  rel->ForEach([&](const datalog::Tuple& key, const Value& cost) {
    if (key[0].symbol_name() != source) return;
    out.push_back(std::string(key[1].symbol_name()) + "=" + cost.ToString());
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DemandEndToEndTest, ShortestPathSliceMatchesFullModel) {
  Program program = MustParse(workloads::kShortestPathProgram);
  Random rng(42);
  workloads::Graph g = workloads::RandomGraph(30, 120, {1.0, 10.0}, &rng);
  Database edb;
  ASSERT_TRUE(workloads::AddGraphFacts(program, g, &edb).ok());

  core::Engine full_engine(program, {});
  auto full = full_engine.Run(edb.Clone());
  ASSERT_TRUE(full.ok()) << full.status();

  DemandRewrite rw = RewriteFor(program, "s", "bf");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;
  Database demand_edb = edb.Clone();
  Fact seed;
  seed.pred = rw.seed_pred;
  seed.key = {Value::Symbol("n0")};
  ASSERT_TRUE(demand_edb.AddFact(seed).ok());

  core::Engine demand_engine(rw.rewritten, {});
  auto sliced = demand_engine.Run(std::move(demand_edb));
  ASSERT_TRUE(sliced.ok()) << sliced.status();

  EXPECT_EQ(SliceOf(sliced->db, rw.rewritten.FindPredicate("s"), "n0"),
            SliceOf(full->db, program.FindPredicate("s"), "n0"));
  EXPECT_LT(sliced->stats.derivations, full->stats.derivations)
      << "a single-source query must do strictly less work";
}

TEST(DemandEndToEndTest, CompanyControlSliceMatchesFullModel) {
  Program program = MustParse(workloads::kCompanyControlProgram);
  Random rng(7);
  workloads::OwnershipNetwork net =
      workloads::RandomOwnership(24, 3, 0.5, &rng);
  Database edb;
  ASSERT_TRUE(workloads::AddOwnershipFacts(program, net, &edb).ok());

  core::Engine full_engine(program, {});
  auto full = full_engine.Run(edb.Clone());
  ASSERT_TRUE(full.ok()) << full.status();

  DemandRewrite rw = RewriteFor(program, "c", "bf");
  ASSERT_TRUE(rw.ok) << rw.bailout_reason;
  Database demand_edb = edb.Clone();
  Fact seed;
  seed.pred = rw.seed_pred;
  seed.key = {Value::Symbol(workloads::OwnershipNetwork::CompanyName(0))};
  ASSERT_TRUE(demand_edb.AddFact(seed).ok());

  core::Engine demand_engine(rw.rewritten, {});
  auto sliced = demand_engine.Run(std::move(demand_edb));
  ASSERT_TRUE(sliced.ok()) << sliced.status();

  const std::string owner = workloads::OwnershipNetwork::CompanyName(0);
  EXPECT_EQ(SliceOf(sliced->db, rw.rewritten.FindPredicate("c"), owner),
            SliceOf(full->db, program.FindPredicate("c"), owner));
}

// ---------------------------------------------------------------------------
// Point queries do strictly less work
// ---------------------------------------------------------------------------

core::QueryOptions Mode(core::QueryOptions::Mode m) {
  core::QueryOptions q;
  q.mode = m;
  return q;
}

TEST(DemandDifferentialTest, PointQueriesDeriveStrictlyLess) {
  using core::QueryOptions;
  Program program = MustParse(workloads::kShortestPathProgram);
  const datalog::PredicateInfo* s = program.FindPredicate("s");
  for (int seed = 0; seed < 3; ++seed) {
    Random rng(9500 + seed);
    workloads::Graph g = workloads::RandomGraph(60, 240, {1.0, 10.0}, &rng);
    Database edb;
    ASSERT_TRUE(workloads::AddGraphFacts(program, g, &edb).ok());
    core::Engine engine(program, {});
    Atom q;
    q.pred = s;
    q.args = {datalog::Term::Const(Value::Symbol("n0")),
              datalog::Term::Var("Y"), datalog::Term::Var("C")};
    auto full =
        engine.Query(q, edb.ShareForRead(), Mode(QueryOptions::Mode::kFull));
    ASSERT_TRUE(full.ok()) << full.status();
    auto sliced =
        engine.Query(q, edb.ShareForRead(), Mode(QueryOptions::Mode::kDemand));
    ASSERT_TRUE(sliced.ok()) << sliced.status();
    EXPECT_TRUE(sliced->used_demand);
    EXPECT_EQ(sliced->ToString(), full->ToString());
    EXPECT_LT(sliced->stats.derivations, full->stats.derivations)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// .query directive plumbing
// ---------------------------------------------------------------------------

TEST(QueryDirectiveTest, ParsesAndRoundTrips) {
  Program program = MustParse(
      ".decl e(x, y)\n.decl t(x, y)\nt(X, Y) :- e(X, Y).\n"
      ".query t(a, Y).\n");
  ASSERT_EQ(program.queries().size(), 1u);
  EXPECT_EQ(program.queries()[0].pred, program.FindPredicate("t"));
  EXPECT_NE(program.ToString().find(".query t(a, Y)."), std::string::npos);
}

TEST(QueryDirectiveTest, RejectsUndeclaredPredicate) {
  auto p = datalog::ParseProgram(".decl e(x, y)\n.query nope(X).\n");
  EXPECT_FALSE(p.ok());
}

TEST(QueryDirectiveTest, ParseQueryAtomRejectsTrailingInput) {
  Program program = MustParse(".decl e(x, y)\n");
  EXPECT_FALSE(datalog::ParseQueryAtom(program, "e(a, b). e(b, c)").ok());
  EXPECT_FALSE(datalog::ParseQueryAtom(program, "nope(a)").ok());
  EXPECT_TRUE(datalog::ParseQueryAtom(program, "e(a, Y)").ok());
}

}  // namespace
}  // namespace demand
}  // namespace analysis
}  // namespace mad
