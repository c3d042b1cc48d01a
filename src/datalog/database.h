#ifndef MAD_DATALOG_DATABASE_H_
#define MAD_DATALOG_DATABASE_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "datalog/ast.h"
#include "datalog/value.h"
#include "util/status.h"

namespace mad {
namespace datalog {

/// A read-only view of one stored key: `size()` values laid out contiguously
/// in a relation's row-major key array. It compares equal to a Tuple with the
/// same values and converts to one. A KeyRef obtained from a Relation stays
/// valid until the next Merge on that relation (an append may move the
/// array); copy it into a Tuple to keep it longer.
class KeyRef {
 public:
  using value_type = Value;
  using iterator = const Value*;
  using const_iterator = const Value*;

  KeyRef(const Value* data, size_t size) : data_(data), size_(size) {}
  KeyRef(const Tuple& t) : data_(t.data()), size_(t.size()) {}  // NOLINT

  const Value& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  operator Tuple() const { return Tuple(begin(), end()); }  // NOLINT

  friend bool operator==(KeyRef a, KeyRef b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(KeyRef a, KeyRef b) { return !(a == b); }

 private:
  const Value* data_;
  size_t size_;
};

/// The stored extension of one predicate.
///
/// A relation for a cost predicate maps key tuples (the non-cost arguments)
/// to a single cost value — the functional dependency of Section 2.3.1 is
/// enforced *structurally*. Inserting a second cost for an existing key joins
/// the two values in the predicate's lattice (the core never shrinks under
/// monotone evaluation, and lattice programs only ever move up ⊑).
///
/// Storage is flat and append-only. Rows have stable dense ids (0-based, in
/// insertion order). Row r's key is the `key_arity` values at
/// `keys_[r * key_arity ...]` of one row-major array; its cost is `costs_[r]`
/// (cost predicates only). The primary index is an open-addressing table of
/// {hash, row id} slots probed against that array, so each key is stored
/// once. A secondary index per bound-position set is an open-addressing
/// table of groups {hash, head row, tail row} plus a per-row `next` link;
/// rows are linked in append order, so a scan visits matching rows in
/// ascending row order, and an index extends lazily over rows appended since
/// it was last used instead of rebuilding. Only the *core* (Section 2.3.3) is
/// stored: default-value predicates' implicit ⊥ rows are synthesized by the
/// evaluator, never materialized here.
///
/// key_at() returns a KeyRef into the key array; it and every pointer
/// returned by Find/cost_at are valid until the next Merge on this relation.
///
/// Concurrency contract: mutation (Merge) is exclusive — callers serialize it
/// (the parallel evaluator shards relations across merge workers so each
/// relation has one writer). Reads (Scan/Find/Contains) may run concurrently
/// from many threads *while no Merge is in flight*; lazily built secondary
/// indexes follow a build-once-then-read-concurrently discipline guarded by a
/// shared_mutex, and the evaluator forces the round's index patterns
/// (ForceIndexes) before fanning out so the hot read path takes only the
/// shared lock.
class Relation {
 public:
  explicit Relation(const PredicateInfo* pred);

  /// Deep copy; the clone starts with the source's rows and indexes but
  /// fresh synchronization state (and is never frozen — see freeze()). Row
  /// storage must not race with writers, but concurrent *readers* of the
  /// source are fine: the secondary indexes (the only state mutated through
  /// const access) are copied under the source's index lock.
  Relation(const Relation& other);
  Relation& operator=(const Relation&) = delete;

  /// Copy-on-write support for Database::Snapshot. A frozen relation is
  /// shared with at least one published snapshot: the next mutable access
  /// through the owning Database clones it instead of writing in place.
  /// The flag is only ever touched by the single writer thread (Snapshot,
  /// GetOrCreate, FindMutable all run on the writer), so it needs no
  /// synchronization; readers of a snapshot never consult it.
  void freeze() { cow_frozen_ = true; }
  bool frozen() const { return cow_frozen_; }

  const PredicateInfo* pred() const { return pred_; }

  /// Effect of a Merge call on the stored extension.
  enum class MergeResult {
    kNew,        ///< key was absent and is now present
    kIncreased,  ///< key present; cost strictly increased in ⊑
    kUnchanged,  ///< no change (duplicate fact / cost not above current)
  };

  /// Inserts or lattice-merges. `cost` must already be normalized for cost
  /// predicates and is ignored for cost-free predicates. If `row` is
  /// non-null it receives the stable row id of the (new or existing) key.
  MergeResult Merge(const Tuple& key, const Value& cost,
                    uint32_t* row = nullptr);

  /// True iff `key` is explicitly present (ignores default values).
  bool Contains(const Tuple& key) const { return RowOf(key) != kNoRow; }

  /// Stored cost for `key`, or nullptr if the key is absent. For cost-free
  /// predicates the returned value is unspecified (presence is the answer).
  const Value* Find(const Tuple& key) const {
    uint32_t row = RowOf(key);
    return row == kNoRow ? nullptr : &cost_at(row);
  }

  /// Stable row id for `key`, or std::nullopt if absent.
  std::optional<uint32_t> FindRow(const Tuple& key) const {
    uint32_t row = RowOf(key);
    if (row == kNoRow) return std::nullopt;
    return row;
  }

  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Bytes held by this relation: the capacities of the key, cost, slot and
  /// index arrays, plus the element vectors of set values it stores.
  /// Interned symbols count as their Value slot (the symbol table is
  /// process-global and shared). Maintained incrementally so the resource
  /// governor can poll it at merge granularity; atomic so the governor can
  /// poll while other relations' shards are still merging.
  int64_t ApproxBytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

  /// Times a Scan was served by an already-complete secondary index (no
  /// extension work). Monotone over the relation's lifetime; the engine
  /// diffs it around a run to report EvalStats::index_reuses.
  int64_t index_reuses() const {
    return index_reuses_.load(std::memory_order_relaxed);
  }

  /// Stable row access (row ids are dense, 0-based, insertion-ordered).
  KeyRef key_at(size_t row) const {
    return KeyRef(keys_.data() + row * arity_, arity_);
  }
  /// The row's cost; an unset Value for cost-free predicates.
  const Value& cost_at(size_t row) const {
    return has_cost_ ? costs_[row] : kNoCost;
  }

  /// Calls `cb(key, cost)` for every stored row, in row order. `key` is a
  /// scratch tuple, valid for the duration of one call.
  void ForEach(
      const std::function<void(const Tuple&, const Value&)>& cb) const;

  /// Enumerates rows whose key matches `bound_vals` at positions
  /// `bound_pos` (strictly increasing position list over key columns), in
  /// ascending row order. Uses a lazily maintained hash index per
  /// position-set; an empty position list degenerates to a full scan and a
  /// full position list to a point lookup. `key` is a scratch tuple, valid
  /// for the duration of one call.
  void Scan(const std::vector<int>& bound_pos, const Tuple& bound_vals,
            const std::function<void(const Tuple&, const Value&)>& cb) const;

  /// The allocation-free form of Scan for the evaluator's inner loop: calls
  /// `f(row)` for every matching row id, in ascending order. `bound_vals`
  /// points at `bound_pos.size()` values. `f` must not merge into this
  /// relation.
  template <typename F>
  void ForEachMatchingRow(const std::vector<int>& bound_pos,
                          const Value* bound_vals, F&& f) const {
    if (bound_pos.empty()) {
      for (size_t row = 0; row < num_rows_; ++row) f(row);
      return;
    }
    const size_t hash = HashValues(bound_vals, bound_pos.size());
    if (bound_pos.size() == arity_) {
      uint32_t row = LookupRow(bound_vals, hash);
      if (row != kNoRow) f(row);
      return;
    }
    const Index& index = GetIndex(bound_pos);
    for (uint32_t row = index.Head(*this, bound_vals, hash); row != kNoRow;
         row = index.next[row]) {
      f(row);
    }
  }

  /// Builds (or extends to current size) the secondary index for
  /// `bound_pos`, so subsequent concurrent Scans with that pattern are pure
  /// reads. The parallel evaluator calls this for every scan pattern of the
  /// round before fanning work out. No-op for the empty and fully-bound
  /// patterns, which never touch a secondary index.
  void ForceIndex(const std::vector<int>& bound_pos) const;

 private:
  static constexpr uint32_t kNoRow = UINT32_MAX;
  static const Value kNoCost;

  /// Primary-index slot: the low 32 bits of the key hash and the row id
  /// (kNoRow marks an empty slot).
  struct Slot {
    uint32_t hash;
    uint32_t row;
  };

  /// Secondary index over one bound-position set.
  struct Index {
    /// One distinct projection: its hash and the first and last matching
    /// rows; `head == kNoRow` marks an empty slot.
    struct Group {
      uint32_t hash;
      uint32_t head;
      uint32_t tail;
    };
    std::vector<int> positions;
    std::vector<Group> groups;   ///< open addressing, power-of-two size
    std::vector<uint32_t> next;  ///< next row with the same projection
    size_t num_groups = 0;

    size_t built_rows() const { return next.size(); }
    /// First row whose projection equals `vals` (hash `hash`), or kNoRow.
    uint32_t Head(const Relation& rel, const Value* vals, size_t hash) const;
    /// Links rows [built_rows(), rel.size()) into their groups.
    void Extend(const Relation& rel);
    int64_t Bytes() const;
  };

  /// Row id of `key`, or kNoRow (also for a key of the wrong arity).
  uint32_t RowOf(const Tuple& key) const {
    if (key.size() != arity_) return kNoRow;
    return LookupRow(key.data(), HashValues(key.data(), key.size()));
  }
  /// Row whose key equals the `arity_` values at `key`, or kNoRow.
  uint32_t LookupRow(const Value* key, size_t hash) const;
  /// The slot holding `key` (low hash bits `hash`), or the empty slot where
  /// it would go. The table must be non-empty.
  size_t ProbeSlot(const Value* key, uint32_t hash) const;
  /// Bytes of the flat arrays (keys, costs, primary slots).
  int64_t FlatBytes() const;

  /// Returns the index for `bound_pos` extended to cover all current rows.
  /// Fast path: shared lock, index already complete. Slow path: exclusive
  /// lock, extend. The returned reference stays valid after the lock drops
  /// (indexes are heap-allocated and never freed while the relation lives)
  /// and is safe to read concurrently as long as no rows are appended —
  /// which the phased evaluator guarantees.
  const Index& GetIndex(const std::vector<int>& bound_pos) const;

  const PredicateInfo* pred_;
  size_t arity_;
  bool has_cost_;
  size_t num_rows_ = 0;
  std::vector<Value> keys_;   ///< row-major, arity_ values per row
  std::vector<Value> costs_;  ///< one per row; empty for cost-free preds
  std::vector<Slot> slots_;   ///< primary index, power-of-two size
  int64_t set_bytes_ = 0;     ///< element vectors of stored set values
  bool cow_frozen_ = false;   ///< writer-thread-only; see freeze()
  mutable std::shared_mutex index_mu_;  ///< guards indexes_ + extension
  mutable std::vector<std::unique_ptr<Index>> indexes_;
  mutable std::atomic<int64_t> index_reuses_{0};
  mutable std::atomic<int64_t> approx_bytes_{0};
};

/// A set of relations — the extension of an LDB, a CDB, or both. This is the
/// "aggregate Herbrand interpretation" (Definition 3.3) restricted to its
/// finite core.
///
/// Relations are held by shared_ptr so a database can be *snapshotted* in
/// O(#relations): Snapshot() shares every relation and freezes it; the next
/// mutable access through this database clones the frozen relation
/// (copy-on-write), so published snapshots are immutable while the writer
/// keeps evolving its working set. This is what gives the serving layer
/// snapshot isolation for free: T_P is monotone, inserts only move the model
/// up in ⊑, and readers pin whichever immutable snapshot was current when
/// their request arrived (DESIGN.md "Serving").
class Database {
 public:
  Database() = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// The relation for `pred`, creating an empty one on first touch (and
  /// un-freezing a snapshot-shared one via copy-on-write). NOT safe to call
  /// concurrently — the parallel evaluator pre-creates every head relation
  /// before fanning out and uses FindMutable from workers.
  Relation* GetOrCreate(const PredicateInfo* pred);
  /// Read access; returns nullptr if the predicate has no relation yet.
  const Relation* Find(const PredicateInfo* pred) const;
  /// Write access without the inserting side effect of GetOrCreate, so
  /// concurrent merge shards never mutate the relation map itself. Applies
  /// the same copy-on-write unsharing as GetOrCreate; safe from concurrent
  /// merge shards because shards partition predicates (each map slot has
  /// exactly one writer) and slot replacement never rebalances the map.
  Relation* FindMutable(const PredicateInfo* pred);

  /// Inserts a fact (normalizing the cost into the predicate's domain).
  /// Rejects facts whose cost lies outside the declared domain.
  Status AddFact(const Fact& fact);
  /// Convenience: adds all of `program`'s inline facts.
  Status AddFacts(const Program& program);

  /// Total number of stored rows across all relations.
  size_t TotalRows() const;

  /// Approximate bytes across all relations (sum of Relation::ApproxBytes;
  /// each relation maintains its figure incrementally, so this is cheap
  /// enough to poll at merge granularity).
  int64_t ApproxBytes() const;

  /// Deep copy of every relation.
  Database Clone() const;

  /// O(#relations) copy that *shares* every relation with this database and
  /// freezes them: the snapshot is immutable from then on (reads only, which
  /// Relation supports concurrently), while the next write to a shared
  /// relation through *this* database copy-on-writes it. Must be called
  /// from the (single) writer thread; the returned snapshot may be read
  /// from any number of threads.
  Database Snapshot() const;

  /// Read-only share for *reader* threads: relations that are already frozen
  /// (a published serving snapshot) are shared by pointer without touching
  /// the COW freeze flag — unlike Snapshot(), which re-writes `cow_frozen_`
  /// and is therefore writer-thread-only. Unfrozen relations are deep-copied
  /// so the result never aliases a mutable extension. Used by the demand
  /// query path, where many readers evaluate against the same snapshot.
  Database ShareForRead() const;

  /// All relations (iteration order: predicate id).
  const std::map<int, std::shared_ptr<Relation>>& relations() const {
    return relations_;
  }

  /// Renders the database as sorted fact lines (tests compare these).
  std::string ToString() const;

 private:
  /// Slot access with copy-on-write: clones the relation if it is frozen
  /// (shared with a snapshot). Row ids are dense and insertion-ordered, so
  /// they survive the clone — deltas recorded against the old version stay
  /// valid against the new one.
  Relation* Unshared(std::shared_ptr<Relation>* slot);

  std::map<int, std::shared_ptr<Relation>> relations_;
};

}  // namespace datalog
}  // namespace mad

#endif  // MAD_DATALOG_DATABASE_H_
