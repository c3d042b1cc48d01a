#include "datalog/database.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <shared_mutex>

#include "lattice/cost_domain.h"
#include "util/string_util.h"

namespace mad {
namespace datalog {

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

namespace {

/// Bytes of a set value's element vector (0 for any other kind). A set shared
/// by several holders is counted once per holder — an over-count, acceptable
/// for budget enforcement.
int64_t SetPayloadBytes(const Value& v) {
  return v.is_set()
             ? static_cast<int64_t>(v.set_value().size() * sizeof(Value))
             : 0;
}

/// HashValues of the values of `row` at `positions`, without gathering them.
size_t ProjectionHash(const Value* row, const std::vector<int>& positions) {
  size_t seed = 0x12345678u ^ positions.size();
  for (int p : positions) HashCombine(&seed, row[p].Hash());
  return seed;
}

/// Places `e` in the first free entry of its linear probe sequence.
template <typename Entry, typename IsFree>
void PlaceEntry(std::vector<Entry>* table, const Entry& e, IsFree is_free) {
  const size_t mask = table->size() - 1;
  size_t i = e.hash & mask;
  while (!is_free((*table)[i])) i = (i + 1) & mask;
  (*table)[i] = e;
}

/// Resizes an open-addressing table to `size` entries (a power of two),
/// re-placing each occupied entry by its stored `hash`. Tables hold at most
/// half their size, so the linear probe always finds a free entry.
template <typename Entry, typename IsFree>
void ResizeTable(std::vector<Entry>* table, size_t size,
                 const Entry& free_entry, IsFree is_free) {
  std::vector<Entry> grown(size, free_entry);
  for (const Entry& e : *table) {
    if (!is_free(e)) PlaceEntry(&grown, e, is_free);
  }
  table->swap(grown);
}

/// Doubles an open-addressing table (or allocates the first one).
template <typename Entry, typename IsFree>
void GrowTable(std::vector<Entry>* table, const Entry& free_entry,
               IsFree is_free) {
  ResizeTable(table, table->empty() ? 8 : 2 * table->size(), free_entry,
              is_free);
}

}  // namespace

const Value Relation::kNoCost;

Relation::Relation(const PredicateInfo* pred)
    : pred_(pred), arity_(pred->key_arity()), has_cost_(pred->has_cost) {}

Relation::Relation(const Relation& other)
    : pred_(other.pred_),
      arity_(other.arity_),
      has_cost_(other.has_cost_),
      num_rows_(other.num_rows_),
      keys_(other.keys_),
      costs_(other.costs_),
      slots_(other.slots_),
      set_bytes_(other.set_bytes_),
      index_reuses_(other.index_reuses_.load(std::memory_order_relaxed)) {
  int64_t bytes = FlatBytes() + set_bytes_;
  {
    std::shared_lock<std::shared_mutex> lk(other.index_mu_);
    indexes_.reserve(other.indexes_.size());
    for (const auto& index : other.indexes_) {
      indexes_.push_back(std::make_unique<Index>(*index));
      bytes += indexes_.back()->Bytes();
    }
  }
  approx_bytes_.store(bytes, std::memory_order_relaxed);
}

int64_t Relation::FlatBytes() const {
  return static_cast<int64_t>(
      (keys_.capacity() + costs_.capacity()) * sizeof(Value) +
      slots_.capacity() * sizeof(Slot));
}

size_t Relation::ProbeSlot(const Value* key, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.row == kNoRow) return i;
    if (s.hash == hash &&
        std::equal(key, key + arity_, keys_.data() + s.row * arity_)) {
      return i;
    }
  }
}

uint32_t Relation::LookupRow(const Value* key, size_t hash) const {
  if (slots_.empty()) return kNoRow;
  return slots_[ProbeSlot(key, static_cast<uint32_t>(hash))].row;
}

Relation::MergeResult Relation::Merge(const Tuple& key, const Value& cost,
                                      uint32_t* row_out) {
  assert(key.size() == arity_);
  // One hash per merge; the slot stores its low 32 bits, which also place
  // the slot, so growing the table never rehashes a key.
  const uint32_t hash =
      static_cast<uint32_t>(HashValues(key.data(), key.size()));
  size_t slot = slots_.empty() ? 0 : ProbeSlot(key.data(), hash);
  if (slots_.empty() || slots_[slot].row == kNoRow) {
    const int64_t before = FlatBytes();
    // Load factor at most 1/2 keeps misses — one per novel fact — short.
    if (2 * (num_rows_ + 1) > slots_.size()) {
      GrowTable(&slots_, Slot{0, kNoRow},
                [](const Slot& s) { return s.row == kNoRow; });
      slot = ProbeSlot(key.data(), hash);
    }
    const uint32_t row = static_cast<uint32_t>(num_rows_++);
    slots_[slot] = Slot{hash, row};
    keys_.insert(keys_.end(), key.begin(), key.end());
    int64_t set_delta = 0;
    for (const Value& v : key) set_delta += SetPayloadBytes(v);
    if (has_cost_) {
      costs_.push_back(cost);
      set_delta += SetPayloadBytes(cost);
    }
    set_bytes_ += set_delta;
    const int64_t grew = FlatBytes() - before + set_delta;
    if (grew != 0) approx_bytes_.fetch_add(grew, std::memory_order_relaxed);
    if (row_out != nullptr) *row_out = row;
    // Newly appended rows are picked up lazily by GetIndex; nothing to do.
    return MergeResult::kNew;
  }
  const uint32_t row = slots_[slot].row;
  if (row_out != nullptr) *row_out = row;
  if (!has_cost_) return MergeResult::kUnchanged;
  Value& current = costs_[row];
  Value joined = pred_->domain->Join(current, cost);
  if (pred_->domain->Equal(joined, current)) return MergeResult::kUnchanged;
  const int64_t set_delta = SetPayloadBytes(joined) - SetPayloadBytes(current);
  if (set_delta != 0) {
    set_bytes_ += set_delta;
    approx_bytes_.fetch_add(set_delta, std::memory_order_relaxed);
  }
  current = std::move(joined);
  return MergeResult::kIncreased;
}

void Relation::AppendDisjoint(const Relation& other) {
  assert(other.pred_ == pred_);
  index_reuses_.fetch_add(other.index_reuses(), std::memory_order_relaxed);
  if (other.num_rows_ == 0) return;
  const int64_t before = FlatBytes();
  const size_t rows = num_rows_ + other.num_rows_;
  auto is_free = [](const Slot& s) { return s.row == kNoRow; };
  size_t size = slots_.empty() ? 8 : slots_.size();
  while (2 * rows > size) size *= 2;
  if (size != slots_.size()) {
    ResizeTable(&slots_, size, Slot{0, kNoRow}, is_free);
  }
  const uint32_t offset = static_cast<uint32_t>(num_rows_);
  for (const Slot& s : other.slots_) {
    if (!is_free(s)) {
      PlaceEntry(&slots_, Slot{s.hash, offset + s.row}, is_free);
    }
  }
  keys_.reserve(rows * arity_);
  keys_.insert(keys_.end(), other.keys_.begin(), other.keys_.end());
  if (has_cost_) {
    costs_.reserve(rows);
    costs_.insert(costs_.end(), other.costs_.begin(), other.costs_.end());
  }
  num_rows_ = rows;
  set_bytes_ += other.set_bytes_;
  approx_bytes_.fetch_add(FlatBytes() - before + other.set_bytes_,
                          std::memory_order_relaxed);
}

void Relation::ForEach(
    const std::function<void(const Tuple&, const Value&)>& cb) const {
  Tuple key;
  for (size_t row = 0; row < num_rows_; ++row) {
    KeyRef k = key_at(row);
    key.assign(k.begin(), k.end());
    cb(key, cost_at(row));
  }
}

uint32_t Relation::Index::Head(const Relation& rel, const Value* vals,
                               size_t hash) const {
  if (groups.empty()) return kNoRow;
  const uint32_t h = static_cast<uint32_t>(hash);
  const size_t mask = groups.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const Group& g = groups[i];
    if (g.head == kNoRow) return kNoRow;
    if (g.hash != h) continue;
    const Value* key = rel.keys_.data() + g.head * rel.arity_;
    size_t k = 0;
    while (k < positions.size() && key[positions[k]] == vals[k]) ++k;
    if (k == positions.size()) return g.head;
  }
}

void Relation::Index::Extend(const Relation& rel) {
  size_t row = next.size();
  next.resize(rel.num_rows_, kNoRow);
  for (; row < rel.num_rows_; ++row) {
    const Value* key = rel.keys_.data() + row * rel.arity_;
    const uint32_t h = static_cast<uint32_t>(ProjectionHash(key, positions));
    // Finds the row's group, or the empty slot where a new group goes.
    auto probe = [&]() -> Group& {
      const size_t mask = groups.size() - 1;
      for (size_t i = h & mask;; i = (i + 1) & mask) {
        Group& g = groups[i];
        if (g.head == kNoRow) return g;
        if (g.hash != h) continue;
        const Value* head = rel.keys_.data() + g.head * rel.arity_;
        size_t k = 0;
        while (k < positions.size() && head[positions[k]] == key[positions[k]]) {
          ++k;
        }
        if (k == positions.size()) return g;
      }
    };
    Group* g = groups.empty() ? nullptr : &probe();
    if (g != nullptr && g->head != kNoRow) {
      next[g->tail] = static_cast<uint32_t>(row);
      g->tail = static_cast<uint32_t>(row);
      continue;
    }
    if (2 * (num_groups + 1) > groups.size()) {
      GrowTable(&groups, Group{0, kNoRow, kNoRow},
                [](const Group& e) { return e.head == kNoRow; });
      g = &probe();
    }
    *g = Group{h, static_cast<uint32_t>(row), static_cast<uint32_t>(row)};
    ++num_groups;
  }
}

int64_t Relation::Index::Bytes() const {
  return static_cast<int64_t>(positions.capacity() * sizeof(int) +
                              groups.capacity() * sizeof(Group) +
                              next.capacity() * sizeof(uint32_t));
}

const Relation::Index& Relation::GetIndex(
    const std::vector<int>& bound_pos) const {
  {
    std::shared_lock<std::shared_mutex> lk(index_mu_);
    for (const auto& index : indexes_) {
      if (index->positions != bound_pos) continue;
      if (index->built_rows() == num_rows_) {
        index_reuses_.fetch_add(1, std::memory_order_relaxed);
        return *index;
      }
      break;
    }
  }
  std::unique_lock<std::shared_mutex> lk(index_mu_);
  Index* index = nullptr;
  for (const auto& candidate : indexes_) {
    if (candidate->positions == bound_pos) index = candidate.get();
  }
  if (index != nullptr && index->built_rows() == num_rows_) {
    // Another reader completed it between the two locks: a reuse, exactly
    // as if this scan had come after it, so the count does not depend on
    // how concurrent readers interleave.
    index_reuses_.fetch_add(1, std::memory_order_relaxed);
    return *index;
  }
  // A new index counts from zero, its position list included.
  const int64_t before = index != nullptr ? index->Bytes() : 0;
  if (index == nullptr) {
    indexes_.push_back(std::make_unique<Index>());
    index = indexes_.back().get();
    index->positions = bound_pos;
  }
  index->Extend(*this);
  approx_bytes_.fetch_add(index->Bytes() - before, std::memory_order_relaxed);
  return *index;
}

void Relation::Scan(
    const std::vector<int>& bound_pos, const Tuple& bound_vals,
    const std::function<void(const Tuple&, const Value&)>& cb) const {
  assert(bound_pos.size() == bound_vals.size());
  Tuple key;
  ForEachMatchingRow(bound_pos, bound_vals.data(), [&](size_t row) {
    KeyRef k = key_at(row);
    key.assign(k.begin(), k.end());
    cb(key, cost_at(row));
  });
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Relation* Database::Unshared(std::shared_ptr<Relation>* slot) {
  if ((*slot)->frozen()) {
    // Shared with a published snapshot: clone before the first write. The
    // clone starts unfrozen, so COW fires at most once per relation per
    // snapshot; the snapshot keeps the old (now immutable) version alive.
    *slot = std::make_shared<Relation>(**slot);
  }
  return slot->get();
}

Relation* Database::GetOrCreate(const PredicateInfo* pred) {
  auto& slot = relations_[pred->id];
  if (!slot) {
    slot = std::make_shared<Relation>(pred);
    return slot.get();
  }
  return Unshared(&slot);
}

const Relation* Database::Find(const PredicateInfo* pred) const {
  auto it = relations_.find(pred->id);
  return it == relations_.end() ? nullptr : it->second.get();
}

Relation* Database::FindMutable(const PredicateInfo* pred) {
  auto it = relations_.find(pred->id);
  return it == relations_.end() ? nullptr : Unshared(&it->second);
}

void Database::Install(std::shared_ptr<Relation> rel) {
  const int id = rel->pred()->id;
  relations_[id] = std::move(rel);
}

std::shared_ptr<Relation> Database::Release(const PredicateInfo* pred) {
  auto it = relations_.find(pred->id);
  if (it == relations_.end()) return nullptr;
  std::shared_ptr<Relation> rel = std::move(it->second);
  relations_.erase(it);
  return rel;
}

Status Database::AddFact(const Fact& fact) {
  Relation* rel = GetOrCreate(fact.pred);
  Value cost;
  if (fact.pred->has_cost) {
    if (!fact.cost.has_value()) {
      return Status::InvalidArgument(StrPrintf(
          "fact for cost predicate '%s' lacks a cost", fact.pred->name.c_str()));
    }
    if (!fact.pred->domain->Contains(*fact.cost)) {
      return Status::InvalidArgument(StrPrintf(
          "fact for '%s': cost %s outside domain %s", fact.pred->name.c_str(),
          fact.cost->ToString().c_str(),
          std::string(fact.pred->domain->name()).c_str()));
    }
    cost = fact.pred->domain->Normalize(*fact.cost);
  }
  rel->Merge(fact.key, cost);
  return Status::OK();
}

Status Database::AddFacts(const Program& program) {
  for (const Fact& f : program.facts()) {
    MAD_RETURN_IF_ERROR(AddFact(f));
  }
  return Status::OK();
}

Database Database::Clone() const {
  Database out;
  for (const auto& [id, rel] : relations_) {
    out.relations_[id] = std::make_shared<Relation>(*rel);
  }
  return out;
}

Database Database::Snapshot() const {
  Database out;
  for (const auto& [id, rel] : relations_) {
    rel->freeze();
    out.relations_[id] = rel;
  }
  return out;
}

Database Database::ShareForRead() const {
  Database out;
  for (const auto& [id, rel] : relations_) {
    // Already-frozen relations are immutable, so sharing the pointer without
    // re-freezing is race-free even when many readers share concurrently.
    // An unfrozen relation (a database that was never published) is deep
    // copied instead — never write cow_frozen_ from a reader thread.
    out.relations_[id] =
        rel->frozen() ? rel : std::make_shared<Relation>(*rel);
  }
  return out;
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& [_, rel] : relations_) n += rel->size();
  return n;
}

int64_t Database::ApproxBytes() const {
  int64_t n = 0;
  for (const auto& [_, rel] : relations_) n += rel->ApproxBytes();
  return n;
}

std::string Database::ToString() const {
  std::vector<std::string> lines;
  for (const auto& [_, rel] : relations_) {
    rel->ForEach([&](const Tuple& key, const Value& cost) {
      std::string line = rel->pred()->name + "(";
      for (size_t i = 0; i < key.size(); ++i) {
        if (i > 0) line += ", ";
        line += key[i].ToString();
      }
      if (rel->pred()->has_cost) {
        if (!key.empty()) line += ", ";
        line += cost.ToString();
      }
      line += ").";
      lines.push_back(std::move(line));
    });
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

}  // namespace datalog
}  // namespace mad
