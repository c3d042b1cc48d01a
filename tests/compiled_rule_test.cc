// Unit tests for the rule compiler: slot assignment, safe scheduling,
// driver-variant construction (the semi-naive machinery of Section 6.2).

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/dependency_graph.h"
#include "core/compiled_rule.h"
#include "datalog/parser.h"
#include "workloads/programs.h"

namespace mad {
namespace core {
namespace {

using analysis::DependencyGraph;
using datalog::ParseProgram;
using datalog::Program;

struct Compiled {
  Program program;
  std::unique_ptr<DependencyGraph> graph;
  std::vector<CompiledRule> rules;
};

Compiled CompileAll(std::string_view text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  Compiled out{std::move(p).value(), nullptr, {}};
  out.graph = std::make_unique<DependencyGraph>(out.program);
  for (const auto& rule : out.program.rules()) {
    auto cr = CompileRule(rule, *out.graph);
    EXPECT_TRUE(cr.ok()) << cr.status();
    out.rules.push_back(std::move(cr).value());
  }
  return out;
}

TEST(CompiledRuleTest, SlotAssignmentCoversAllVariables) {
  Compiled c = CompileAll(workloads::kShortestPathProgram);
  // path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
  const CompiledRule& r = c.rules[1];
  EXPECT_EQ(r.num_slots, 6);  // X Z Y C C1 C2
  EXPECT_EQ(r.slot_names.size(), 6u);
  EXPECT_EQ(std::count(r.slot_names.begin(), r.slot_names.end(), "C1"), 1);
  EXPECT_EQ(r.head_key.size(), 3u);
  ASSERT_TRUE(r.head_cost.has_value());
  EXPECT_TRUE(r.head_cost->is_slot);
}

TEST(CompiledRuleTest, BuiltinScheduledAfterItsInputs) {
  Compiled c = CompileAll(workloads::kShortestPathProgram);
  const CompiledRule& r = c.rules[1];
  // Base schedule: two atoms then the assignment C = C1 + C2.
  ASSERT_EQ(r.base.size(), 3u);
  EXPECT_EQ(r.base[0].kind, CompiledSubgoal::Kind::kAtom);
  EXPECT_EQ(r.base[1].kind, CompiledSubgoal::Kind::kAtom);
  EXPECT_EQ(r.base[2].kind, CompiledSubgoal::Kind::kBuiltin);
  EXPECT_GE(r.base[2].builtin.assign_slot, 0);
}

TEST(CompiledRuleTest, DriversPerOccurrenceWithCdbFlags) {
  Compiled c = CompileAll(workloads::kShortestPathProgram);
  // Rule 0 (path from arc): only an LDB driver (for incremental updates).
  EXPECT_FALSE(c.rules[0].has_cdb_occurrence());
  ASSERT_EQ(c.rules[0].drivers.size(), 1u);
  EXPECT_FALSE(c.rules[0].drivers[0].cdb);
  // Rule 1: s is CDB, arc is LDB — one driver each.
  ASSERT_EQ(c.rules[1].drivers.size(), 2u);
  EXPECT_EQ(c.rules[1].drivers[0].delta_pred->name, "s");
  EXPECT_TRUE(c.rules[1].drivers[0].cdb);
  EXPECT_FALSE(c.rules[1].drivers[0].via_aggregate);
  EXPECT_EQ(c.rules[1].drivers[1].delta_pred->name, "arc");
  EXPECT_FALSE(c.rules[1].drivers[1].cdb);
  // Rule 2 (the min aggregate over path): one aggregate driver.
  ASSERT_EQ(c.rules[2].drivers.size(), 1u);
  EXPECT_EQ(c.rules[2].drivers[0].delta_pred->name, "path");
  EXPECT_TRUE(c.rules[2].drivers[0].cdb);
  EXPECT_TRUE(c.rules[2].drivers[0].via_aggregate);
  // The seed (path atom) binds X and Y directly: no group finder needed.
  EXPECT_TRUE(c.rules[2].drivers[0].group_finder.empty());
  EXPECT_EQ(c.rules[2].drivers[0].grouping_slots.size(), 2u);
}

TEST(CompiledRuleTest, AggregateDriverWithGroupFinder) {
  // Circuit AND rule: the delta occurrence t(W, D) does not bind the
  // grouping variable G — the finder must join connect(G, W).
  Compiled c = CompileAll(workloads::kCircuitProgram);
  const CompiledRule& and_rule = c.rules[2];
  const DriverVariant* d = nullptr;
  for (const DriverVariant& cand : and_rule.drivers) {
    if (cand.delta_pred->name == "t") d = &cand;
  }
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->cdb);
  EXPECT_TRUE(d->via_aggregate);
  ASSERT_EQ(d->group_finder.size(), 1u);
  EXPECT_EQ(d->group_finder[0].pred->name, "connect");
}

TEST(CompiledRuleTest, AggregateInnerSchedulingBindsDefaultKeysFirst) {
  // Inside `C = and D : (connect(G, W), t(W, D))`, the default-value atom
  // t(W, D) must come after connect(G, W) binds W.
  Compiled c = CompileAll(workloads::kCircuitProgram);
  const CompiledRule& and_rule = c.rules[2];
  const CompiledSubgoal* agg_step = nullptr;
  for (const auto& step : and_rule.base) {
    if (step.kind == CompiledSubgoal::Kind::kAggregate) agg_step = &step;
  }
  ASSERT_NE(agg_step, nullptr);
  ASSERT_EQ(agg_step->aggregate.inner.size(), 2u);
  EXPECT_EQ(agg_step->aggregate.inner[0].pred->name, "connect");
  EXPECT_EQ(agg_step->aggregate.inner[1].pred->name, "t");
}

TEST(CompiledRuleTest, MultipleCdbOccurrencesMultipleDrivers) {
  Compiled c = CompileAll(R"(
.decl e(x, y)
.decl tc(x, y)
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), tc(Y, Z).
)");
  int cdb_drivers = 0;
  for (const DriverVariant& d : c.rules[1].drivers) cdb_drivers += d.cdb;
  EXPECT_EQ(cdb_drivers, 2);
  EXPECT_EQ(c.rules[1].drivers.size(), 2u);  // both occurrences are CDB
}

TEST(CompiledRuleTest, NegationScheduledLast) {
  Compiled c = CompileAll(R"(
.decl e(x)
.decl f(x)
.decl g(x)
g(X) :- !f(X), e(X).
)");
  const CompiledRule& r = c.rules[0];
  ASSERT_EQ(r.base.size(), 2u);
  EXPECT_EQ(r.base[0].kind, CompiledSubgoal::Kind::kAtom);
  EXPECT_EQ(r.base[1].kind, CompiledSubgoal::Kind::kNegatedAtom);
}

TEST(CompiledRuleTest, RestrictedAggregateScheduledWithoutOuterBindings) {
  // s(X, Y, C) :- C =r min D : path(...): the aggregate is the only
  // subgoal; =r readiness lets it self-bind the grouping variables.
  Compiled c = CompileAll(workloads::kShortestPathProgram);
  const CompiledRule& r = c.rules[2];
  ASSERT_EQ(r.base.size(), 1u);
  EXPECT_EQ(r.base[0].kind, CompiledSubgoal::Kind::kAggregate);
  EXPECT_EQ(r.base[0].aggregate.grouping_slots.size(), 2u);
  // Z (the local) is scoped; the grouping slots are not.
  for (int scoped : r.base[0].aggregate.scoped_slots) {
    for (int group : r.base[0].aggregate.grouping_slots) {
      EXPECT_NE(scoped, group);
    }
  }
}

TEST(CompiledRuleTest, HalfsumGroupingIsEmpty) {
  Compiled c = CompileAll(workloads::kHalfsumProgram);
  const CompiledRule& r = c.rules[0];
  ASSERT_EQ(r.drivers.size(), 1u);
  EXPECT_TRUE(r.drivers[0].grouping_slots.empty());
  EXPECT_TRUE(r.drivers[0].group_finder.empty());
}

}  // namespace
}  // namespace core
}  // namespace mad
