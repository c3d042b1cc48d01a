#ifndef MADBENCH_GEN_H_
#define MADBENCH_GEN_H_

// Seeded input generators. Everything the engine sees is produced here as
// .mdl text with a self-contained SplitMix64 stream, so one seed yields
// byte-identical inputs on every platform (main.cc records a fingerprint of
// each text). Costs are dyadic fractions (multiples of 1/16), so every sum
// the programs form is exact in binary floating point and the engine's
// answers can be compared exactly against the independent solvers.
//
// Each workload's instance is drawn once from a fixed family seed; the run's
// seed relabels its nodes with a random permutation (and draws the request
// streams). Different seeds therefore give different input bytes over
// isomorphic instances, so runs with different seeds do the same work and
// their spread is the machine's, not the instance generator's.

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/graph.h"

namespace madbench {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }
  /// True with probability p.
  bool Chance(double p) { return (Next() >> 11) * 0x1p-53 < p; }

 private:
  uint64_t state_;
};

/// One EDB fact of a binary cost predicate: pred(<a>, <b>, units/16).
struct Edge {
  int a = 0;
  int b = 0;
  int units = 0;  ///< cost in sixteenths
};

/// Example 2.6 on an Erdős–Rényi digraph: `n` nodes, `m` distinct arcs
/// (no self loops), weights in [1, 10) in steps of 1/16.
struct PathInstance {
  int n = 0;
  std::vector<Edge> arcs;
  /// Arcs absent from `arcs` and from each other, for the insert stream.
  std::vector<Edge> fresh;
  std::string edb_text;
  /// label[i]: the run's name for node i of the family instance.
  std::vector<int> label;

  mad::baselines::Graph ToGraph() const;
};
PathInstance MakePathInstance(uint64_t seed, int n, int m, int fresh_count);

/// Example 2.7 on the sparse ownership network of the demand benchmark:
/// each company y > 0 has a majority holder y-1 (9/16, with probability
/// 0.7) plus two distinct minority holders (3/16 and 2/16) drawn from
/// [0, y). Column sums stay <= 14/16; each company receives at most two
/// fresh 1/16 stakes from the insert stream, so sums stay <= 1 and never
/// equal the 1/2 control threshold exactly.
struct ControlInstance {
  int n = 0;
  std::vector<Edge> shares;
  std::vector<Edge> fresh;
  std::string edb_text;
  std::vector<int> label;  ///< as PathInstance::label
};
ControlInstance MakeControlInstance(uint64_t seed, int n, int fresh_count);

/// "pred(<pa><a>, <pb><b>, <units/16>)." with the cost written exactly.
std::string FactText(const char* pred, char prefix, const Edge& e);

}  // namespace madbench

#endif  // MADBENCH_GEN_H_
