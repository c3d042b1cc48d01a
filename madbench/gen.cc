#include "gen.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace madbench {

namespace {

/// The family seed every instance is drawn from (see gen.h).
constexpr uint64_t kFamilySeed = 20261016;

/// Renames node i to label[i] in every edge. Fact order stays that of the
/// family instance, so symbols are interned in the same structural order
/// (and hash alike) under every seed.
std::vector<int> Relabel(uint64_t seed, int n, std::vector<Edge>* edges,
                         std::vector<Edge>* fresh) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x1abe1);
  std::vector<int> label(n);
  for (int i = 0; i < n; ++i) label[i] = i;
  for (int i = n - 1; i > 0; --i) std::swap(label[i], label[rng.Below(i + 1)]);
  for (std::vector<Edge>* v : {edges, fresh}) {
    for (Edge& e : *v) {
      e.a = label[e.a];
      e.b = label[e.b];
    }
  }
  return label;
}

}  // namespace

std::string FactText(const char* pred, char prefix, const Edge& e) {
  // units/16 has at most four decimals, so %.4f prints it exactly.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s(%c%d, %c%d, %.4f).", pred, prefix, e.a,
                prefix, e.b, e.units / 16.0);
  return buf;
}

mad::baselines::Graph PathInstance::ToGraph() const {
  mad::baselines::Graph g;
  g.Resize(n);
  for (const Edge& e : arcs) g.AddEdge(e.a, e.b, e.units / 16.0);
  return g;
}

PathInstance MakePathInstance(uint64_t seed, int n, int m, int fresh_count) {
  PathInstance inst;
  inst.n = n;
  Rng rng(kFamilySeed * 0x100000001b3ull + 0x5eed0001);
  std::set<std::pair<int, int>> used;
  auto draw = [&](std::vector<Edge>* out, int count) {
    while (static_cast<int>(out->size()) < count) {
      Edge e;
      e.a = static_cast<int>(rng.Below(n));
      e.b = static_cast<int>(rng.Below(n));
      if (e.a == e.b || !used.insert({e.a, e.b}).second) continue;
      e.units = 16 + static_cast<int>(rng.Below(144));  // [1, 10)
      out->push_back(e);
    }
  };
  draw(&inst.arcs, m);
  draw(&inst.fresh, fresh_count);
  inst.label = Relabel(seed, n, &inst.arcs, &inst.fresh);
  for (const Edge& e : inst.arcs) {
    inst.edb_text += FactText("arc", 'n', e);
    inst.edb_text += '\n';
  }
  return inst;
}

ControlInstance MakeControlInstance(uint64_t seed, int n, int fresh_count) {
  ControlInstance inst;
  inst.n = n;
  Rng rng(kFamilySeed * 0x100000001b3ull + 0x5eed0002);
  std::set<std::pair<int, int>> used;
  for (int y = 1; y < n; ++y) {
    if (rng.Chance(0.7)) {
      inst.shares.push_back({y - 1, y, 9});
      used.insert({y - 1, y});
    }
    // Two minority holders, distinct from each other and from the majority
    // holder when the company has enough predecessors to allow it.
    for (int units : {3, 2}) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        int x = static_cast<int>(rng.Below(y));
        if (used.insert({x, y}).second) {
          inst.shares.push_back({x, y, units});
          break;
        }
      }
    }
  }
  std::vector<int> stakes(n, 0);
  // At most two fresh stakes per company; stop well short of that capacity
  // so rejection sampling stays fast.
  fresh_count = std::min(fresh_count, n);
  while (static_cast<int>(inst.fresh.size()) < fresh_count) {
    int x = static_cast<int>(rng.Below(n));
    int y = static_cast<int>(rng.Below(n));
    if (x == y || stakes[y] >= 2 || !used.insert({x, y}).second) continue;
    ++stakes[y];
    inst.fresh.push_back({x, y, 1});
  }
  inst.label = Relabel(seed, n, &inst.shares, &inst.fresh);
  for (const Edge& e : inst.shares) {
    inst.edb_text += FactText("s", 'c', e);
    inst.edb_text += '\n';
  }
  return inst;
}

}  // namespace madbench
