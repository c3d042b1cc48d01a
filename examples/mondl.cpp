// mondl — a command-line runner for `.mdl` monotonic-aggregation Datalog
// programs.
//
// Usage:
//   mondl [options] program.mdl
//
// Options:
//   --strategy=naive|seminaive|greedy   evaluation strategy (default seminaive)
//   --max-iterations=N                  fixpoint round budget
//   --epsilon=E                         numeric convergence tolerance
//   --threads=N                         evaluation threads (default 1, at
//                                       most 256)
//   --no-validate                       skip the static checks
//   --check                             print the static report and exit
//   --explain                           print the static query plans (per-rule
//                                       adornments, inferred column types and
//                                       join order) and exit; honors --format
//   --join-order=planned|textual        subgoal scheduling (default
//                                       planned; both modes compute the same
//                                       least model)
//   --stats                             print evaluation statistics
//   --format=text|json                  output format (default text)
//   --dump=PRED[,PRED...]               print only these relations
//   --query=ATOM                        answer one point query (e.g.
//                                       --query='s(a, Y, C)') through the
//                                       demand analysis instead of printing
//                                       the model; bound constants select,
//                                       variables project
//   --query-mode=auto|demand|full       auto (default) takes the certified
//                                       magic-sets slice when one applies;
//                                       demand makes a bail-out an error;
//                                       full forces the oracle
//   --query-check                       evaluate every declared .query both
//                                       demand-driven and in full; exit 1
//                                       unless the answers are byte-identical
//
// SIGINT cancels the evaluation cooperatively: for a monotone program the
// interrupted state is still ⊑-below the least model, so mondl prints the
// partial database as a *certified under-approximation* instead of dying
// with nothing (a second SIGINT falls back to default handling).
//
// Example:
//   ./build/examples/mondl --stats examples/shortest_path.mdl

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "server/result_json.h"
#include "util/string_util.h"

using namespace mad;

namespace {

int Usage() {
  std::cerr
      << "usage: mondl [--strategy=naive|seminaive|greedy] "
         "[--max-iterations=N]\n"
         "             [--epsilon=E] [--threads=N] [--no-validate] [--check]\n"
         "             [--explain] [--join-order=planned|textual]\n"
         "             [--stats] [--format=text|json]\n"
         "             [--dump=PRED[,PRED...]] [--query=ATOM]\n"
         "             [--query-mode=auto|demand|full] [--query-check]\n"
         "             program.mdl\n";
  return 2;
}

// Written once before the handler is installed, read from the handler:
// Cancel() is a lock-free atomic store, so this is async-signal-safe.
CancellationToken* g_cancel = nullptr;

void OnSigInt(int) {
  if (g_cancel != nullptr) g_cancel->Cancel();
  // A second ^C should actually kill a run that is stuck outside the
  // evaluator's poll points.
  std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  core::EvalOptions options;
  bool check_only = false;
  bool explain_only = false;
  bool print_stats = false;
  std::string format = "text";
  std::vector<std::string> dump;
  std::string query_atom;
  std::string query_mode = "auto";
  bool query_check = false;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--strategy=", 0) == 0) {
      std::string s = value_of("--strategy=");
      if (s == "naive") {
        options.strategy = core::Strategy::kNaive;
      } else if (s == "seminaive") {
        options.strategy = core::Strategy::kSemiNaive;
      } else if (s == "greedy") {
        options.strategy = core::Strategy::kGreedy;
      } else {
        return Usage();
      }
    } else if (arg.rfind("--max-iterations=", 0) == 0) {
      if (!ParseNumber(value_of("--max-iterations="),
                       &options.max_iterations)) {
        return Usage();
      }
    } else if (arg.rfind("--epsilon=", 0) == 0) {
      if (!ParseNumber(value_of("--epsilon="), &options.epsilon)) {
        return Usage();
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseNumber(value_of("--threads="), &options.num_threads) ||
          options.num_threads < 1 ||
          options.num_threads > core::kMaxThreads) {
        return Usage();
      }
    } else if (arg == "--no-validate") {
      options.validate = false;
    } else if (arg == "--check") {
      check_only = true;
    } else if (arg == "--explain") {
      explain_only = true;
    } else if (arg.rfind("--join-order=", 0) == 0) {
      std::string s = value_of("--join-order=");
      if (s == "planned") {
        options.join_order = core::JoinOrderMode::kPlanned;
      } else if (s == "textual") {
        options.join_order = core::JoinOrderMode::kTextual;
      } else {
        return Usage();
      }
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = value_of("--format=");
      if (format != "text" && format != "json") return Usage();
    } else if (arg.rfind("--dump=", 0) == 0) {
      std::stringstream ss(value_of("--dump="));
      std::string item;
      while (std::getline(ss, item, ',')) dump.push_back(item);
    } else if (arg.rfind("--query=", 0) == 0) {
      query_atom = value_of("--query=");
      if (query_atom.empty()) return Usage();
    } else if (arg.rfind("--query-mode=", 0) == 0) {
      query_mode = value_of("--query-mode=");
      if (query_mode != "auto" && query_mode != "demand" &&
          query_mode != "full") {
        return Usage();
      }
    } else if (arg == "--query-check") {
      query_check = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  std::ifstream in(path);
  if (!in) {
    std::cerr << "mondl: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto program = datalog::ParseProgram(buffer.str());
  if (!program.ok()) {
    std::cerr << "mondl: " << program.status() << "\n";
    return 1;
  }

  if (check_only) {
    analysis::DependencyGraph graph(*program);
    analysis::ProgramCheckResult check =
        analysis::CheckProgram(*program, graph, path);
    std::cout << check.ToString();
    // Mirror the evaluator's decision: errors reject, warnings don't.
    return check.overall().ok() ? 0 : 1;
  }

  if (explain_only) {
    analysis::DependencyGraph graph(*program);
    analysis::plan::PlanReport plans = analysis::plan::PlanProgram(
        *program, graph,
        analysis::plan::CardinalityEstimates::FromProgram(*program));
    std::cout << (format == "json" ? plans.ToJson() + "\n" : plans.ToString());
    return 0;
  }

  auto cancel = std::make_shared<CancellationToken>();
  options.limits.cancellation = cancel;
  g_cancel = cancel.get();
  std::signal(SIGINT, OnSigInt);

  if (query_check) {
    // Differential gate: every declared .query, demand-driven vs the
    // full-evaluation oracle, must agree byte for byte.
    core::Engine engine(*program, options);
    const std::vector<datalog::Atom>& queries = program->queries();
    if (queries.empty()) {
      std::cout << "mondl: " << path << ": no declared .query directives\n";
      return 0;
    }
    int mismatches = 0;
    for (const datalog::Atom& q : queries) {
      core::QueryOptions auto_opts;
      core::QueryOptions full_opts;
      full_opts.mode = core::QueryOptions::Mode::kFull;
      auto answer = engine.Query(q, datalog::Database(), auto_opts);
      auto oracle = engine.Query(q, datalog::Database(), full_opts);
      if (!answer.ok() || !oracle.ok()) {
        std::cerr << "mondl: query failed: "
                  << (answer.ok() ? oracle.status() : answer.status()) << "\n";
        ++mismatches;
        continue;
      }
      const bool same = answer->ToString() == oracle->ToString();
      std::cout << q.pred->name << "^" << answer->adornment << ": "
                << answer->rows.size() << " rows, "
                << (answer->used_demand ? "demand" : "full (bail-out)")
                << (same ? ", matches oracle" : ", MISMATCH") << "\n";
      if (!same) ++mismatches;
    }
    return mismatches == 0 ? 0 : 1;
  }

  if (!query_atom.empty()) {
    auto atom = datalog::ParseQueryAtom(*program, query_atom);
    if (!atom.ok()) {
      std::cerr << "mondl: " << atom.status() << "\n";
      return 1;
    }
    core::QueryOptions qopts;
    if (query_mode == "demand") {
      qopts.mode = core::QueryOptions::Mode::kDemand;
    } else if (query_mode == "full") {
      qopts.mode = core::QueryOptions::Mode::kFull;
    }
    core::Engine engine(*program, options);
    auto result = engine.Query(*atom, datalog::Database(), qopts);
    std::signal(SIGINT, SIG_DFL);
    if (!result.ok()) {
      std::cerr << "mondl: " << result.status() << "\n";
      return 1;
    }
    if (format == "json") {
      server::Json j = server::Json::Object();
      j.Set("pred", server::Json::Str(result->pred->name));
      j.Set("adornment", server::Json::Str(result->adornment));
      j.Set("used_demand", server::Json::Bool(result->used_demand));
      if (!result->bailout_reason.empty()) {
        j.Set("bailout_reason", server::Json::Str(result->bailout_reason));
      }
      if (result->cost_widened) {
        j.Set("cost_widened", server::Json::Bool(true));
      }
      server::Json rows = server::Json::Array();
      for (const datalog::Fact& f : result->rows) {
        server::Json row = server::Json::Object();
        server::Json key = server::Json::Array();
        for (const datalog::Value& v : f.key) key.Push(server::ValueToJson(v));
        row.Set("key", std::move(key));
        if (f.cost.has_value()) row.Set("cost", server::ValueToJson(*f.cost));
        rows.Push(std::move(row));
      }
      j.Set("row_count", server::Json::Int(
                             static_cast<int64_t>(result->rows.size())));
      j.Set("rows", std::move(rows));
      j.Set("stats", server::EvalStatsToJson(result->stats));
      std::cout << j.Dump() << "\n";
    } else {
      std::cout << result->ToString();
    }
    if (print_stats) {
      std::cerr << result->pred->name << "^" << result->adornment
                << (result->used_demand ? " (demand slice)"
                                        : " (full evaluation)")
                << "\n"
                << result->stats.ToString() << "\n";
    }
    return 0;
  }

  core::Engine engine(*program, options);
  auto result = engine.Run(datalog::Database());
  std::signal(SIGINT, SIG_DFL);
  if (!result.ok()) {
    std::cerr << "mondl: " << result.status() << "\n";
    return 1;
  }
  if (result->completeness == core::Completeness::kUnderApproximation) {
    std::cerr << "mondl: evaluation stopped early ("
              << LimitKindName(result->limit_tripped)
              << "); printing a certified under-approximation of the least "
                 "model\n";
  }

  if (format == "json") {
    server::Json j = server::ResultToJson(*program, *result);
    if (!dump.empty()) {
      server::Json filtered = server::Json::Array();
      for (server::Json& rel : j.obj["relations"].arr) {
        for (const std::string& name : dump) {
          if (rel.StrOr("pred", "") == name) {
            filtered.Push(std::move(rel));
            break;
          }
        }
      }
      j.Set("relations", std::move(filtered));
    }
    std::cout << j.Dump() << "\n";
    return 0;
  }

  if (dump.empty()) {
    std::cout << result->db.ToString();
  } else {
    for (const std::string& name : dump) {
      const datalog::PredicateInfo* pred = program->FindPredicate(name);
      const datalog::Relation* rel =
          pred != nullptr ? result->db.Find(pred) : nullptr;
      if (rel == nullptr) {
        std::cerr << "mondl: no relation '" << name << "'\n";
        continue;
      }
      rel->ForEach([&](const datalog::Tuple& key, const datalog::Value& c) {
        std::cout << name << "(";
        for (size_t i = 0; i < key.size(); ++i) {
          if (i > 0) std::cout << ", ";
          std::cout << key[i].ToString();
        }
        if (pred->has_cost) {
          if (!key.empty()) std::cout << ", ";
          std::cout << c.ToString();
        }
        std::cout << ").\n";
      });
    }
  }
  if (print_stats) {
    std::cerr << result->stats.ToString() << "\n";
    if (!result->stats.reached_fixpoint) {
      std::cerr << "mondl: warning: iteration budget exhausted before the "
                   "fixpoint (see --max-iterations / --epsilon)\n";
    }
  }
  return 0;
}
