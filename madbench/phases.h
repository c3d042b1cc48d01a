#ifndef MADBENCH_PHASES_H_
#define MADBENCH_PHASES_H_

// The two phases every workload runs: the batch least model (batch.cc) and
// madd serving the same program under an open-loop request stream
// (serve.cc). Workloads differ in the program, the input size, and how the
// run's time budget is split between the phases.

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "datalog/value.h"
#include "gen.h"

namespace madbench {

struct Workload {
  std::string name;
  bool control = false;  ///< Example 2.7 (company control) vs 2.6 (paths)
  int size = 0;          ///< nodes (paths, m = 4n) or companies (control)
  /// Served by madd: setup_s times ServerState::Load + Server::Start + first
  /// ping, and the serving metrics come from the open loop. Otherwise setup_s
  /// times parsing and the serving metrics come from library calls.
  bool served = false;
  // Nominal open-loop rates of a served workload, requests per second.
  double insert_rate = 0;  ///< the writer connection
  double point_rate = 0;   ///< the key-lookup reader connection
  double demand_rate = 0;  ///< the atom-query reader connection
  // Share of the run's --seconds given to each timed part.
  double model_share = 0;    ///< repeated Engine::Run at 1 and 4 threads
  double setup_share = 0;    ///< repeated set-up, between the model runs
  double nominal_share = 0;  ///< serving (nominal rates, or library calls)
  double rung_share = 0;     ///< each of the ladder rungs above nominal
};

/// The named workload ("batch_sp", "batch_cc", "serve_sp"), scaled down to a
/// few seconds' work in smoke mode. Returns false for an unknown name.
bool LookupWorkload(const std::string& name, bool smoke, Workload* out);

/// Atom queries pick their source from this many nodes.
inline constexpr int kHotSources = 16;

/// Ladder rates, as multiples of the nominal rates, after the nominal phase.
inline constexpr double kLadder[] = {1.5, 2.0};

/// The generated input of one run.
struct Inputs {
  const char* rules = nullptr;  ///< the paper's program text
  std::string edb_text;         ///< EDB facts, one per line
  /// One fact per insert request, in the order the writer sends them.
  std::vector<std::string> inserts;
  PathInstance path;        ///< set for path workloads
  ControlInstance control;  ///< set for control workloads
  /// Key pairs for point lookups (`s` for paths, `m` for control).
  std::vector<Edge> point_keys;
  /// The sources atom queries draw from.
  std::vector<int> hot;
};

Inputs MakeInputs(const Workload& wl, uint64_t seed, int max_inserts);

/// Batch phase: Engine::Run at 1 and 4 threads with the set-up timed
/// between the runs, output checks against the baseline solvers, and — when
/// tracing — the per-layer probes of the datalog, analysis and core layers.
void RunBatch(RunContext* ctx, const Workload& wl, const Inputs& in);

/// One served set-up: ServerState::Load + Server::Start on the empty
/// `data_dir` until the first ping answers. Returns its seconds, or a
/// negative value (recorded as a failed check) when the server did not
/// start. Stops the server and removes `data_dir` afterwards.
double TimeServerSetup(RunContext* ctx, const Inputs& in,
                       const std::string& data_dir);

/// Serve phase: an in-process madd on loopback with a durable data dir,
/// driven open-loop at the nominal rates and then up the ladder; checks the
/// final dump against a fresh evaluation.
void RunServe(RunContext* ctx, const Workload& wl, const Inputs& in);

/// Upper bound on the inserts a run sends, so MakeInputs can draw them.
int MaxInserts(const Workload& wl, double seconds);

/// The atom-query text for `source` ("s(n5, Y, C)" or "m(c5, Y, N)").
std::string DemandAtom(const Workload& wl, int source);
/// Canonical "k0,k1=cost" line of one row, for comparing answers.
std::string RowLine(const mad::datalog::Tuple& key,
                    const mad::datalog::Value* cost);

}  // namespace madbench

#endif  // MADBENCH_PHASES_H_
