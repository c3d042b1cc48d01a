// Partitioned evaluation under aggressive resource limits: a tripped
// deadline, budget or cancellation must still wind every partition down
// cleanly and return a *certified* partial model —
// Completeness::kUnderApproximation with every relation ⊑-below the serial
// least model (x ⊑ y iff Join(x, y) == y). The prefix-soundness argument is
// thread-count independent: each partition stops at a prefix of its own
// fixpoint, and the join of those prefixes is a ⊑-below database. The
// budgets themselves count the whole evaluation, not one partition.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "core/engine.h"
#include "util/random.h"
#include "util/resource_guard.h"
#include "workloads/generators.h"
#include "workloads/programs.h"
#include "workloads/to_datalog.h"

namespace mad {
namespace core {
namespace {

using baselines::Graph;
using datalog::Database;
using datalog::PredicateInfo;
using datalog::Program;
using datalog::Relation;
using datalog::Tuple;
using datalog::Value;

Program MustParse(std::string_view text) {
  auto p = datalog::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

/// Asserts every relation of `partial` is ⊑-below its counterpart in `full`:
/// no invented keys, and no cost above its least-model value.
void ExpectBelowLeastModel(const Database& partial, const Database& full) {
  for (const auto& [pred_id, prel] : partial.relations()) {
    const PredicateInfo* pred = prel->pred();
    const Relation* frel = full.Find(pred);
    if (prel->empty()) continue;
    ASSERT_NE(frel, nullptr)
        << pred->name << " present only in the partial database";
    prel->ForEach([&](const Tuple& key, const Value& cost) {
      const Value* full_cost = frel->Find(key);
      ASSERT_NE(full_cost, nullptr)
          << pred->name << " has a key absent from the least model";
      if (pred->has_cost) {
        EXPECT_EQ(pred->domain->Join(cost, *full_cost), *full_cost)
            << pred->name << " cost overshoots its least-model value";
      }
    });
  }
}

/// A shortest-path workload big enough that an aggressive budget reliably
/// interrupts the fixpoint mid-flight even on slow machines.
struct StressWorkload {
  Program program;
  Database edb;
  std::string full_model;  ///< serial least model (ToString)
  Database full_db;

  /// Built once and shared: the serial reference run is the expensive part.
  static const StressWorkload& Get() {
    static StressWorkload* w = [] {
      auto* out = new StressWorkload{
          MustParse(workloads::kShortestPathProgram), {}, {}, {}};
      Random rng(99);
      Graph g = workloads::RandomGraph(80, 480, {1.0, 9.0}, &rng);
      EXPECT_TRUE(workloads::AddGraphFacts(out->program, g, &out->edb).ok());

      Engine serial(out->program);
      auto full = serial.Run(out->edb.Clone());
      EXPECT_TRUE(full.ok()) << full.status();
      out->full_model = full->db.ToString();
      out->full_db = std::move(full->db);
      return out;
    }();
    return *w;
  }
};

EvalOptions ParallelWithLimits(ResourceLimits limits) {
  EvalOptions options;
  options.num_threads = 8;
  options.limits = std::move(limits);
  options.limits.check_interval = 64;  // aggressive polling
  return options;
}

/// Checks one governed parallel run: either it beat the budget (full least
/// model) or it was interrupted with the expected limit and a certified
/// ⊑-below partial model. Returns true iff the limit actually tripped.
bool CheckGovernedRun(const StressWorkload& w, const StatusOr<EvalResult>& run,
                      LimitKind expected_limit) {
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return false;
  if (run->completeness == Completeness::kLeastModel) {
    EXPECT_EQ(run->db.ToString(), w.full_model);
    return false;
  }
  EXPECT_EQ(run->completeness, Completeness::kUnderApproximation);
  EXPECT_EQ(run->limit_tripped, expected_limit);
  EXPECT_GE(run->tripped_component, 0);
  EXPECT_FALSE(run->stats.reached_fixpoint);
  ExpectBelowLeastModel(run->db, w.full_db);
  return true;
}

TEST(ParallelStressTest, AggressiveDeadlineYieldsCertifiedPartialModel) {
  const StressWorkload& w = StressWorkload::Get();

  // Sweep deadlines from "trips immediately" upward; every outcome along the
  // way must be certified. At least the zero deadline is guaranteed to trip.
  int tripped = 0;
  for (auto deadline : {std::chrono::microseconds(0),
                        std::chrono::microseconds(500),
                        std::chrono::microseconds(2000),
                        std::chrono::microseconds(8000)}) {
    Engine engine(w.program,
                  ParallelWithLimits(ResourceLimits::Deadline(deadline)));
    auto run = engine.Run(w.edb.Clone());
    if (CheckGovernedRun(w, run, LimitKind::kDeadline)) ++tripped;
  }
  EXPECT_GE(tripped, 1);
}

TEST(ParallelStressTest, TupleBudgetYieldsCertifiedPartialModel) {
  const StressWorkload& w = StressWorkload::Get();

  ResourceLimits limits;
  limits.max_derived_tuples = 2000;  // far below the full run's derivations
  Engine engine(w.program, ParallelWithLimits(limits));
  auto run = engine.Run(w.edb.Clone());
  EXPECT_TRUE(CheckGovernedRun(w, run, LimitKind::kTupleBudget));
}

TEST(ParallelStressTest, CancellationFromAnotherThreadWindsDownCleanly) {
  const StressWorkload& w = StressWorkload::Get();

  ResourceLimits limits;
  limits.cancellation = std::make_shared<CancellationToken>();
  Engine engine(w.program, ParallelWithLimits(limits));

  // Cancel from outside the pool while the evaluation is (very likely)
  // mid-fixpoint. Whether the cancel lands before or after completion, the
  // result must be certified.
  std::thread canceller([token = limits.cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token->Cancel();
  });
  auto run = engine.Run(w.edb.Clone());
  canceller.join();
  CheckGovernedRun(w, run, LimitKind::kCancelled);
}

TEST(ParallelStressTest, RepeatedGovernedRunsStayCertified) {
  // Hammer the same engine-shaped workload with a mid-range deadline many
  // times: races between the tripping worker and the merge phase must never
  // surface an uncertified (wrong) row. Each run draws a fresh deadline spot.
  const StressWorkload& w = StressWorkload::Get();

  for (int i = 0; i < 10; ++i) {
    auto deadline = std::chrono::microseconds(200 * (i + 1));
    Engine engine(w.program,
                  ParallelWithLimits(ResourceLimits::Deadline(deadline)));
    auto run = engine.Run(w.edb.Clone());
    CheckGovernedRun(w, run, LimitKind::kDeadline);
  }
}

// The memory budget is charged with every partition's private relations
// plus the shared ones once: were each partition to charge only its own
// database, eight partitions would each stay under a budget their sum
// exceeds, and the run would finish unbounded.
TEST(ParallelStressTest, MemoryBudgetYieldsCertifiedPartialModel) {
  const StressWorkload& w = StressWorkload::Get();

  ResourceLimits limits;
  limits.max_memory_bytes = w.full_db.ApproxBytes() / 2;
  Engine engine(w.program, ParallelWithLimits(limits));
  auto run = engine.Run(w.edb.Clone());
  EXPECT_TRUE(CheckGovernedRun(w, run, LimitKind::kMemoryBudget));
  if (run.ok()) EXPECT_EQ(run->stats.partitions, 8);
}

// A component's rounds are the most any partition runs, not their sum: caps
// set to the serial run's rounds let the partitioned run finish, and one
// round less stops it.
TEST(ParallelStressTest, RoundCapsCountTheComponentsRounds) {
  const StressWorkload& w = StressWorkload::Get();
  auto serial = Engine(w.program).Run(w.edb.Clone());
  ASSERT_TRUE(serial.ok()) << serial.status();
  int64_t most = 0;
  for (const EvalStats& c : serial->component_stats) {
    most = std::max(most, c.iterations);
  }
  ResourceLimits limits;
  limits.max_rounds_per_component = most;
  limits.max_total_rounds = serial->stats.iterations;
  auto run = Engine(w.program, ParallelWithLimits(limits)).Run(w.edb.Clone());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->completeness, Completeness::kLeastModel);
  EXPECT_EQ(run->stats.iterations, serial->stats.iterations);
  EXPECT_EQ(run->db.ToString(), w.full_model);

  ResourceLimits per_component = limits;
  per_component.max_rounds_per_component = most - 1;
  ResourceLimits total = limits;
  total.max_total_rounds = serial->stats.iterations - 1;
  for (const ResourceLimits& tight : {per_component, total}) {
    auto cut = Engine(w.program, ParallelWithLimits(tight)).Run(w.edb.Clone());
    EXPECT_TRUE(CheckGovernedRun(w, cut, LimitKind::kRoundCap));
  }
}

}  // namespace
}  // namespace core
}  // namespace mad
