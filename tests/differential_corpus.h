// The differential corpus: one instance set shared by every least-model
// equivalence gate. An accepted program's T_P is monotone, so it has exactly
// one least model whatever the evaluation schedule (Prop 3.3, Tarski); each
// axis of tests/differential_test.cc evaluates these instances its own way
// and must land on that model.
//
// An instance is a program plus its extensional facts as a list, so axes
// that feed facts through Engine::Update can split the EDB as they like.
// Sources: every shipped examples/*.mdl (facts inline in the program text,
// so the EDB list is empty) and seeded instances of the four generator
// families. Generated instance i of family f uses seed
// kSeedBase + 1000 * (f - 1) + i: shortest paths from 1000, ownership from
// 2000, circuits from 3000, parties from 4000.

#ifndef MAD_TESTS_DIFFERENTIAL_CORPUS_H_
#define MAD_TESTS_DIFFERENTIAL_CORPUS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datalog/database.h"
#include "datalog/parser.h"
#include "util/random.h"
#include "workloads/generators.h"
#include "workloads/programs.h"
#include "workloads/to_datalog.h"

#ifndef MAD_SOURCE_DIR
#define MAD_SOURCE_DIR "."
#endif

namespace mad {
namespace corpus {

enum class Family { kExamples, kShortestPath, kOwnership, kCircuit, kParty };

inline constexpr Family kFamilies[] = {Family::kExamples, Family::kShortestPath,
                                       Family::kOwnership, Family::kCircuit,
                                       Family::kParty};

inline const char* FamilyName(Family f) {
  switch (f) {
    case Family::kExamples:
      return "Examples";
    case Family::kShortestPath:
      return "ShortestPath";
    case Family::kOwnership:
      return "Ownership";
    case Family::kCircuit:
      return "Circuit";
    case Family::kParty:
      return "Party";
  }
  return "?";
}

struct Instance {
  Family family = Family::kExamples;
  /// Position within the family; axes rotate their settings by it.
  int index = 0;
  /// Names the instance in failure messages, e.g. "shortest_path/3".
  std::string label;
  std::shared_ptr<const datalog::Program> program;
  /// The extensional facts in a fixed order; rows reference *program.
  std::vector<datalog::Fact> edb;

  datalog::Database Edb() const {
    datalog::Database db;
    for (const datalog::Fact& f : edb) {
      EXPECT_TRUE(db.AddFact(f).ok()) << label;
    }
    return db;
  }
};

inline std::shared_ptr<const datalog::Program> MustParse(
    std::string_view text, const std::string& label) {
  auto p = datalog::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << label << ": " << p.status();
  return std::make_shared<const datalog::Program>(
      p.ok() ? std::move(p).value() : datalog::Program());
}

/// Every row of `db` as a fact, in predicate-id then row order.
inline std::vector<datalog::Fact> FactsOf(const datalog::Database& db) {
  std::vector<datalog::Fact> out;
  for (const auto& [id, rel] : db.relations()) {
    rel->ForEach([&](const datalog::Tuple& key, const datalog::Value& cost) {
      datalog::Fact f;
      f.pred = rel->pred();
      f.key = key;
      if (f.pred->has_cost) f.cost = cost;
      out.push_back(std::move(f));
    });
  }
  return out;
}

/// Every examples/*.mdl, sorted by file name.
inline std::vector<Instance> ExampleInstances() {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const auto& entry :
       fs::directory_iterator(fs::path(MAD_SOURCE_DIR) / "examples")) {
    if (entry.path().extension() == ".mdl") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Instance> out;
  for (const fs::path& path : paths) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Instance instance;
    instance.index = static_cast<int>(out.size());
    instance.label = "examples/" + path.filename().string();
    instance.program = MustParse(text.str(), instance.label);
    out.push_back(std::move(instance));
  }
  return out;
}

/// Instance `i` of a generated family. The shapes span the size ranges the
/// per-axis gates used before they shared this corpus: shortest-path
/// instances 0-19 grow with i and 20-27 sit at fixed medium sizes; the other
/// families alternate a growing shape (even i) with a fixed one (odd i).
inline Status AddGeneratedFacts(Family family, int i,
                                const datalog::Program& program, Random* rng,
                                datalog::Database* db) {
  using namespace workloads;
  switch (family) {
    case Family::kShortestPath: {
      const bool grow = i < 20;
      Graph g;
      switch (i % 4) {
        case 0:
          g = grow ? RandomGraph(10 + i, 3 * (10 + i), {1.0, 9.0}, rng)
                   : RandomGraph(24, 90, {1.0, 10.0}, rng);
          break;
        case 1:
          g = grow ? GridGraph(3 + i / 4, 4, {1.0, 5.0}, rng)
                   : GridGraph(6, 5, {1.0, 10.0}, rng);
          break;
        case 2:
          g = grow ? CycleGraph(8 + i, i, {1.0, 9.0}, rng)
                   : CycleGraph(18, 6, {1.0, 10.0}, rng);
          break;
        default:
          g = grow ? LayeredDag(3, 3 + i / 4, 2, {1.0, 5.0}, rng)
                   : LayeredDag(5, 5, 3, {1.0, 10.0}, rng);
          break;
      }
      return AddGraphFacts(program, g, db);
    }
    case Family::kOwnership:
      return AddOwnershipFacts(
          program,
          i % 2 == 0 ? RandomOwnership(8 + 2 * i, 3, 0.5, rng)
                     : RandomOwnership(20 + i, 3, 0.4, rng),
          db);
    case Family::kCircuit:
      return AddCircuitFacts(
          program,
          i % 2 == 0 ? RandomCircuit(4, 10 + 3 * i, 3, 0.3, rng)
                     : RandomCircuit(5, 20, 3, 0.2, rng),
          db);
    case Family::kParty:
      return AddPartyFacts(
          program,
          i % 2 == 0 ? RandomParty(12 + 3 * i, 3.0, 4, 0.5, rng)
                     : RandomParty(24, 4.0, 3, 0.5, rng),
          db);
    case Family::kExamples:
      break;
  }
  return Status::InvalidArgument("examples are not generated");
}

inline constexpr int kSeedBase = 1000;

/// The instances of `family`, in a fixed order.
inline std::vector<Instance> Build(Family family) {
  if (family == Family::kExamples) return ExampleInstances();
  struct Generated {
    const char* name;
    const char* program;
    int size;
  };
  static const Generated kGenerated[] = {
      {"shortest_path", workloads::kShortestPathProgram, 28},
      {"company_control", workloads::kCompanyControlProgram, 12},
      {"circuit", workloads::kCircuitProgram, 10},
      {"party", workloads::kPartyProgram, 10},
  };
  const int f = static_cast<int>(family) - 1;
  const Generated& gen = kGenerated[f];
  auto program = MustParse(gen.program, gen.name);
  std::vector<Instance> out;
  for (int i = 0; i < gen.size; ++i) {
    Random rng(kSeedBase + 1000 * f + i);
    datalog::Database db;
    EXPECT_TRUE(AddGeneratedFacts(family, i, *program, &rng, &db).ok());
    Instance instance;
    instance.family = family;
    instance.index = i;
    instance.label = std::string(gen.name) + "/" + std::to_string(i);
    instance.program = program;
    instance.edb = FactsOf(db);
    out.push_back(std::move(instance));
  }
  return out;
}

}  // namespace corpus
}  // namespace mad

#endif  // MAD_TESTS_DIFFERENTIAL_CORPUS_H_
