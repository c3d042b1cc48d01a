// Randomized differential test of Relation's flat storage against a
// std::map reference model. Seeded: every failure reproduces from the seed
// in its test name.
//
// Checked: Merge results and row ids, Find/FindRow/Contains, ForEach, Scan
// and ForEachMatchingRow over every bound-position subset (row order as well
// as row sets), lazily extended secondary indexes, empty relations,
// 0-arity / cost-free / set-cost predicates, copy-on-write snapshots whose
// writer diverges, ApproxBytes monotonicity, and concurrent readers of
// forced indexes.

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "datalog/database.h"
#include "datalog/parser.h"
#include "lattice/cost_domain.h"
#include "util/random.h"

namespace mad {
namespace datalog {
namespace {

Program Decls() {
  auto p = ParseProgram(R"(
.decl p3(a, b, c, v: min_real)
.decl e3(a, b, c)
.decl su(a, s: set_union)
.decl z(v: sum_real)
.decl flag()
)");
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

/// The reference: rows in insertion order plus a key -> row map.
class Model {
 public:
  explicit Model(const PredicateInfo* pred) : pred_(pred) {}

  Relation::MergeResult Merge(const Tuple& key, const Value& cost,
                              uint32_t* row) {
    auto it = row_of_.find(key);
    if (it == row_of_.end()) {
      *row = static_cast<uint32_t>(keys_.size());
      row_of_.emplace(key, *row);
      keys_.push_back(key);
      costs_.push_back(pred_->has_cost ? cost : Value());
      return Relation::MergeResult::kNew;
    }
    *row = it->second;
    if (!pred_->has_cost) return Relation::MergeResult::kUnchanged;
    Value& current = costs_[it->second];
    Value joined = pred_->domain->Join(current, cost);
    if (pred_->domain->Equal(joined, current)) {
      return Relation::MergeResult::kUnchanged;
    }
    current = joined;
    return Relation::MergeResult::kIncreased;
  }

  const PredicateInfo* pred() const { return pred_; }
  size_t size() const { return keys_.size(); }
  const Tuple& key(size_t row) const { return keys_[row]; }
  const Value& cost(size_t row) const { return costs_[row]; }
  std::optional<uint32_t> FindRow(const Tuple& key) const {
    auto it = row_of_.find(key);
    if (it == row_of_.end()) return std::nullopt;
    return it->second;
  }

  /// Rows matching `vals` at `positions`, ascending.
  std::vector<uint32_t> Matching(const std::vector<int>& positions,
                                 const Tuple& vals) const {
    std::vector<uint32_t> rows;
    for (size_t r = 0; r < keys_.size(); ++r) {
      bool ok = true;
      for (size_t i = 0; i < positions.size() && ok; ++i) {
        ok = keys_[r][positions[i]] == vals[i];
      }
      if (ok) rows.push_back(static_cast<uint32_t>(r));
    }
    return rows;
  }

 private:
  const PredicateInfo* pred_;
  std::map<Tuple, uint32_t> row_of_;
  std::vector<Tuple> keys_;
  std::vector<Value> costs_;
};

/// A small per-column value pool, so keys collide and patterns match many
/// rows. Mixes kinds, including -0.0 / 0.0 (equal, so they must hash alike)
/// and set values.
Value RandomKeyValue(Random* rng) {
  switch (rng->Uniform(0, 6)) {
    case 0:
      return Value::Symbol(rng->Bernoulli(0.5) ? "a" : "b");
    case 1:
      return Value::Int(rng->Uniform(0, 2));
    case 2:
      return Value::Real(rng->Bernoulli(0.5) ? -0.0 : 0.0);
    case 3:
      return Value::Real(1.5);
    case 4:
      return Value::Bool(rng->Bernoulli(0.5));
    case 5:
      return Value::Set({Value::Int(rng->Uniform(0, 1))});
    default:
      return Value::Symbol("c");
  }
}

Tuple RandomKey(const PredicateInfo* pred, Random* rng) {
  Tuple key;
  for (int i = 0; i < pred->key_arity(); ++i) {
    key.push_back(RandomKeyValue(rng));
  }
  return key;
}

Value RandomCost(const PredicateInfo* pred, Random* rng) {
  if (!pred->has_cost) return Value();
  if (pred->domain->name() == "set_union") {
    ValueSet elems;
    for (int i = rng->Uniform(0, 3); i > 0; --i) {
      elems.push_back(Value::Int(rng->Uniform(0, 9)));
    }
    return Value::Set(std::move(elems));
  }
  return Value::Real(static_cast<double>(rng->Uniform(0, 50)));
}

bool CostsEqual(const PredicateInfo* pred, const Value& a, const Value& b) {
  return !pred->has_cost || pred->domain->Equal(a, b);
}

/// Every bound-position subset of a `arity`-column key, as increasing lists.
std::vector<std::vector<int>> AllPatterns(int arity) {
  std::vector<std::vector<int>> out;
  for (int mask = 0; mask < (1 << arity); ++mask) {
    std::vector<int> pos;
    for (int i = 0; i < arity; ++i) {
      if (mask & (1 << i)) pos.push_back(i);
    }
    out.push_back(pos);
  }
  return out;
}

Tuple Project(const Tuple& key, const std::vector<int>& positions) {
  Tuple out;
  for (int p : positions) out.push_back(key[p]);
  return out;
}

/// Scans `rel` with one pattern both ways and compares against the model,
/// row order included.
void CheckScan(const Relation& rel, const Model& m,
               const std::vector<int>& positions, const Tuple& vals) {
  const std::vector<uint32_t> want = m.Matching(positions, vals);
  std::vector<uint32_t> rows;
  rel.ForEachMatchingRow(positions, vals.data(),
                         [&](size_t row) { rows.push_back(row); });
  EXPECT_EQ(rows, want) << "pattern of " << positions.size() << " positions";

  size_t i = 0;
  rel.Scan(positions, vals, [&](const Tuple& key, const Value& cost) {
    ASSERT_LT(i, want.size());
    EXPECT_EQ(key, m.key(want[i]));
    EXPECT_TRUE(CostsEqual(m.pred(), cost, m.cost(want[i])));
    ++i;
  });
  EXPECT_EQ(i, want.size());
}

/// Full comparison: rows, point lookups, ForEach, and scans over every
/// pattern probed with present and random (often absent) values.
void CheckAll(const Relation& rel, const Model& m, Random* rng) {
  ASSERT_EQ(rel.size(), m.size());
  EXPECT_EQ(rel.empty(), m.size() == 0);
  for (size_t r = 0; r < m.size(); ++r) {
    EXPECT_EQ(rel.key_at(r), m.key(r));
    EXPECT_TRUE(CostsEqual(m.pred(), rel.cost_at(r), m.cost(r)));
    ASSERT_EQ(rel.FindRow(m.key(r)), std::optional<uint32_t>(r));
    EXPECT_TRUE(rel.Contains(m.key(r)));
    ASSERT_NE(rel.Find(m.key(r)), nullptr);
    EXPECT_TRUE(CostsEqual(m.pred(), *rel.Find(m.key(r)), m.cost(r)));
  }
  for (int i = 0; i < 8; ++i) {
    Tuple key = RandomKey(m.pred(), rng);
    EXPECT_EQ(rel.FindRow(key), m.FindRow(key));
    EXPECT_EQ(rel.Contains(key), m.FindRow(key).has_value());
    EXPECT_EQ(rel.Find(key) != nullptr, m.FindRow(key).has_value());
  }

  size_t r = 0;
  rel.ForEach([&](const Tuple& key, const Value& cost) {
    ASSERT_LT(r, m.size());
    EXPECT_EQ(key, m.key(r));
    EXPECT_TRUE(CostsEqual(m.pred(), cost, m.cost(r)));
    ++r;
  });
  EXPECT_EQ(r, m.size());

  for (const std::vector<int>& positions :
       AllPatterns(m.pred()->key_arity())) {
    for (int i = 0; i < 3 && m.size() > 0; ++i) {
      const Tuple& key = m.key(rng->Uniform(0, m.size() - 1));
      CheckScan(rel, m, positions, Project(key, positions));
    }
    CheckScan(rel, m, positions,
              Project(RandomKey(m.pred(), rng), positions));
  }
}

/// Interleaves merges with full checks, and checks ApproxBytes never drops.
void MergeAndCheck(Relation* rel, Model* m, Random* rng, int merges) {
  int64_t bytes = rel->ApproxBytes();
  for (int i = 0; i < merges; ++i) {
    Tuple key = RandomKey(m->pred(), rng);
    Value cost = RandomCost(m->pred(), rng);
    uint32_t got_row = 0;
    uint32_t want_row = 0;
    Relation::MergeResult got = rel->Merge(key, cost, &got_row);
    Relation::MergeResult want = m->Merge(key, cost, &want_row);
    ASSERT_EQ(got, want) << "merge " << i;
    ASSERT_EQ(got_row, want_row) << "merge " << i;
    EXPECT_GE(rel->ApproxBytes(), bytes) << "merge " << i;
    bytes = rel->ApproxBytes();
    if (i % 17 == 0) {
      CheckAll(*rel, *m, rng);
      // Index extension only ever adds bytes.
      EXPECT_GE(rel->ApproxBytes(), bytes);
      bytes = rel->ApproxBytes();
    }
  }
  CheckAll(*rel, *m, rng);
  EXPECT_GE(rel->ApproxBytes(),
            static_cast<int64_t>(rel->size() * m->pred()->key_arity() *
                                 sizeof(Value)));
}

class RelationModelTest : public ::testing::TestWithParam<int> {};

TEST_P(RelationModelTest, CostPredicateMatchesModel) {
  Program p = Decls();
  Random rng(GetParam());
  Relation rel(p.FindPredicate("p3"));
  Model m(p.FindPredicate("p3"));
  MergeAndCheck(&rel, &m, &rng, 400);
}

TEST_P(RelationModelTest, CostFreePredicateMatchesModel) {
  Program p = Decls();
  Random rng(100 + GetParam());
  Relation rel(p.FindPredicate("e3"));
  Model m(p.FindPredicate("e3"));
  MergeAndCheck(&rel, &m, &rng, 400);
  // Cost-free rows report an unset cost.
  ASSERT_FALSE(rel.empty());
  EXPECT_TRUE(rel.cost_at(0).is_none());
}

TEST_P(RelationModelTest, SetCostPredicateMatchesModel) {
  Program p = Decls();
  Random rng(200 + GetParam());
  Relation rel(p.FindPredicate("su"));
  Model m(p.FindPredicate("su"));
  MergeAndCheck(&rel, &m, &rng, 300);
}

TEST_P(RelationModelTest, ZeroArityPredicatesHoldOneRow) {
  Program p = Decls();
  Random rng(300 + GetParam());
  for (const char* name : {"z", "flag"}) {
    Relation rel(p.FindPredicate(name));
    Model m(p.FindPredicate(name));
    CheckAll(rel, m, &rng);
    MergeAndCheck(&rel, &m, &rng, 20);
    EXPECT_EQ(rel.size(), 1u);
    EXPECT_TRUE(rel.key_at(0).empty());
  }
}

TEST_P(RelationModelTest, SnapshotWriterDiverges) {
  Program p = Decls();
  Random rng(400 + GetParam());
  const PredicateInfo* pred = p.FindPredicate("p3");
  Database db;
  Model m(pred);
  MergeAndCheck(db.GetOrCreate(pred), &m, &rng, 150);

  Database snap = db.Snapshot();
  const Model at_snapshot = m;
  MergeAndCheck(db.GetOrCreate(pred), &m, &rng, 150);

  ASSERT_NE(snap.Find(pred), db.Find(pred));
  CheckAll(*snap.Find(pred), at_snapshot, &rng);
  CheckAll(*db.Find(pred), m, &rng);
  // The clone counts its own (exact-capacity) arrays, not the source's.
  EXPECT_GT(snap.Find(pred)->ApproxBytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationModelTest, ::testing::Range(1, 6));

TEST(RelationEdgeTest, EmptyRelationScansAndForcedIndexes) {
  Program p = Decls();
  const PredicateInfo* pred = p.FindPredicate("p3");
  Relation rel(pred);
  Model m(pred);
  Random rng(7);
  for (const std::vector<int>& positions : AllPatterns(3)) {
    rel.ForceIndex(positions);
    CheckScan(rel, m, positions, Project(RandomKey(pred, &rng), positions));
  }
  EXPECT_EQ(rel.Find(RandomKey(pred, &rng)), nullptr);
  // Indexes built on the empty relation extend over the first rows.
  MergeAndCheck(&rel, &m, &rng, 40);
}

TEST(RelationEdgeTest, IndexExtendsOverAppendedRows) {
  Program p = Decls();
  const PredicateInfo* pred = p.FindPredicate("e3");
  Relation rel(pred);
  Model m(pred);
  Random rng(8);
  const std::vector<int> positions = {0, 2};
  for (int round = 0; round < 6; ++round) {
    const size_t before = rel.size();
    for (int i = 0; i < 10; ++i) {
      uint32_t row = 0;
      Tuple key = RandomKey(pred, &rng);
      EXPECT_EQ(rel.Merge(key, Value(), &row), m.Merge(key, Value(), &row));
    }
    // A complete index is reused; a missing or stale one is built or
    // extended, which does not count as a reuse.
    const int64_t reuses = rel.index_reuses();
    rel.ForceIndex(positions);
    const bool stale = round == 0 || rel.size() != before;
    EXPECT_EQ(rel.index_reuses(), stale ? reuses : reuses + 1);
    rel.ForceIndex(positions);
    EXPECT_EQ(rel.index_reuses(), stale ? reuses + 1 : reuses + 2);
    for (int i = 0; i < 5; ++i) {
      CheckScan(rel, m, positions,
                Project(m.key(rng.Uniform(0, m.size() - 1)), positions));
    }
  }
}

TEST(RelationEdgeTest, WrongArityProbesMiss) {
  Program p = Decls();
  Relation rel(p.FindPredicate("e3"));
  rel.Merge({Value::Int(1), Value::Int(2), Value::Int(3)}, Value());
  EXPECT_FALSE(rel.Contains({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(rel.Find({}), nullptr);
}

// The build-once-then-read contract the parallel evaluator relies on: once
// the round's patterns are forced, many threads may scan concurrently.
TEST(RelationConcurrencyTest, ForcedIndexesServeConcurrentReaders) {
  Program p = Decls();
  const PredicateInfo* pred = p.FindPredicate("p3");
  Relation rel(pred);
  Model m(pred);
  Random rng(9);
  for (int i = 0; i < 2000; ++i) {
    uint32_t row = 0;
    Tuple key = RandomKey(pred, &rng);
    Value cost = RandomCost(pred, &rng);
    rel.Merge(key, cost, &row);
    m.Merge(key, cost, &row);
  }
  const std::vector<std::vector<int>> patterns = AllPatterns(3);
  struct Probe {
    const std::vector<int>* positions;
    Tuple vals;
    std::vector<uint32_t> want;
  };
  std::vector<Probe> probes;
  for (const std::vector<int>& positions : patterns) {
    rel.ForceIndex(positions);
    for (int i = 0; i < 6; ++i) {
      Tuple vals = Project(m.key(rng.Uniform(0, m.size() - 1)), positions);
      probes.push_back({&positions, vals, m.Matching(positions, vals)});
    }
  }
  std::vector<int> mismatches(8, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t]() {
      for (int rep = 0; rep < 20; ++rep) {
        for (const Probe& probe : probes) {
          std::vector<uint32_t> rows;
          rel.ForEachMatchingRow(*probe.positions, probe.vals.data(),
                                 [&](size_t row) { rows.push_back(row); });
          size_t n = 0;
          rel.Scan(*probe.positions, probe.vals,
                   [&](const Tuple&, const Value&) { ++n; });
          if (rows != probe.want || n != probe.want.size()) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
}

}  // namespace
}  // namespace datalog
}  // namespace mad
