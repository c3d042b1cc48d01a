// madbench: the repository's regression benchmark. One workload per run:
//
//   madbench --workload <batch_sp|batch_cc|serve_sp> --seed N --seconds S
//            --trace 0|1 [--smoke] [--run-dir DIR] [--git-sha SHA]
//
// Generates the workload's inputs from the seed, runs the batch phase and
// the serve phase, checks every output, and prints one JSON result as the
// last line of stdout: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. The line before it carries the run metadata. Exits
// 1 when any output check failed, 2 on bad arguments. See README.md.

#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "phases.h"
#include "workloads/programs.h"

namespace madbench {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double TailQuantile(size_t n) {
  if (n >= 1000) return 0.99;
  if (n <= 20) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(n);
}

void RunContext::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void RunContext::Count(int64_t n, int64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0) {
    failures.push_back(what);
    std::fprintf(stderr, "madbench: CHECK FAILED: %s\n", what.c_str());
  }
}

std::string Fingerprint(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool LookupWorkload(const std::string& name, bool smoke, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "batch_sp") {
    w.size = smoke ? 48 : 256;
    w.model_share = 0.65;
    w.setup_share = 0.1;
    w.nominal_share = 0.2;
  } else if (name == "batch_cc") {
    w.control = true;
    w.size = smoke ? 600 : 38000;
    w.model_share = 0.65;
    w.setup_share = 0.1;
    w.nominal_share = 0.2;
  } else if (name == "serve_sp") {
    w.size = smoke ? 32 : 128;
    w.served = true;
    w.insert_rate = 4;
    w.point_rate = 400;
    w.demand_rate = 40;
    w.model_share = 0.3;
    w.setup_share = 0.12;
    w.nominal_share = 0.42;
    w.rung_share = 0.07;
  } else {
    return false;
  }
  *out = w;
  return true;
}

Inputs MakeInputs(const Workload& wl, uint64_t seed, int max_inserts) {
  Inputs in;
  if (wl.control) {
    in.rules = mad::workloads::kCompanyControlProgram;
    in.control = MakeControlInstance(seed, wl.size, max_inserts);
    in.edb_text = in.control.edb_text;
    for (const Edge& e : in.control.fresh) in.inserts.push_back(FactText("s", 'c', e));
    // Lookups of m(owner, company) along existing stakes: present rows.
    in.point_keys = in.control.shares;
  } else {
    in.rules = mad::workloads::kShortestPathProgram;
    in.path = MakePathInstance(seed, wl.size, 4 * wl.size, max_inserts);
    in.edb_text = in.path.edb_text;
    for (const Edge& e : in.path.fresh) in.inserts.push_back(FactText("arc", 'n', e));
    // Lookups of s(a, b) over node pairs drawn from the seed.
    Rng rng(seed ^ 0x9017);
    for (int i = 0; i < 4096; ++i) {
      in.point_keys.push_back({static_cast<int>(rng.Below(wl.size)),
                               static_cast<int>(rng.Below(wl.size)), 0});
    }
  }
  // Atom queries start at fixed nodes of the family instance, so every seed
  // asks for the same amount of work.
  const std::vector<int>& label = wl.control ? in.control.label : in.path.label;
  for (int k = 0; k < kHotSources; ++k) {
    in.hot.push_back(label[(static_cast<int64_t>(k) * 7919) % wl.size]);
  }
  return in;
}

namespace {

using mad::server::Json;

int Usage(const char* why) {
  std::fprintf(stderr,
               "madbench: %s\nusage: madbench --workload "
               "batch_sp|batch_cc|serve_sp --seed N --seconds S --trace 0|1 "
               "[--smoke] [--run-dir DIR] [--git-sha SHA]\n",
               why);
  return 2;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Serving figures every run measures but BENCHMARK.json lists with the
/// per-layer metrics, unbounded: on a shared 4-vCPU host they spread by more
/// than a quarter from run to run (microsecond library calls switch between
/// two speeds, tails follow collisions with inserts), too much to gate on.
bool Ungated(const std::string& name) {
  for (const char* n : {"insert_p50_ms", "insert_p99_ms", "point_p50_us",
                        "point_p99_us", "demand_p50_ms", "demand_p99_ms",
                        "sustained_ops_s"}) {
    if (name == n) return true;
  }
  return false;
}

/// The result object. Hand-written so every value keeps all its digits.
std::string ResultLine(const RunContext& ctx) {
  std::map<std::string, Metric> metrics;
  for (const auto& [name, m] : ctx.end_to_end) {
    if (Ungated(name) == ctx.trace) metrics[name] = m;
  }
  if (ctx.trace) metrics.insert(ctx.per_layer.begin(), ctx.per_layer.end());
  std::string out = "{\"correct\": ";
  out += ctx.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ctx.attempted);
  out += ", \"failed\": " + std::to_string(ctx.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    std::string unit;
    mad::server::AppendJsonString(&unit, m.unit);
    out += "\"" + name + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": " + unit + "}";
  }
  out += "}}";
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  RunContext ctx;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      ctx.smoke = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      ctx.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      ctx.seconds = std::atof(v);
    } else if (a == "--trace") {
      ctx.trace = std::string(v) == "1";
    } else if (a == "--run-dir") {
      ctx.run_dir = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  Workload wl;
  if (!have_workload || !have_seed) return Usage("--workload and --seed are required");
  if (!LookupWorkload(ctx.workload, ctx.smoke, &wl)) {
    return Usage(("unknown workload " + ctx.workload).c_str());
  }
  if (!(ctx.seconds > 0)) return Usage("--seconds must be positive");
#ifdef __GLIBC__
  // Allocator policy, set before any thread starts, so that peak RSS does not
  // depend on which thread happened to free what: freed large blocks go back
  // to the system (glibc's default threshold grows with the blocks freed),
  // and threads share two arenas. Served runs use one: madd's threads would
  // otherwise land on either arena at random, and their peak RSS moved by
  // 40% from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_ARENA_MAX, wl.served ? 1 : 2);
#endif
  if (ctx.run_dir.empty()) {
    ctx.run_dir = ".bench_build/runs/" + ctx.workload + "-" +
                  std::to_string(ctx.seed) + "-" + std::to_string(getpid());
  }
  std::filesystem::create_directories(ctx.run_dir);
  ctx.tracer.Enable(ctx.trace);

  const Inputs in = MakeInputs(wl, ctx.seed, MaxInserts(wl, ctx.seconds));
  std::string inserts_text;
  for (const std::string& f : in.inserts) inserts_text += f + "\n";

  RunBatch(&ctx, wl, in);
  if (wl.served || ctx.trace) RunServe(&ctx, wl, in);

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  ctx.E2E("peak_rss_mb", ru.ru_maxrss / 1024.0, "MiB");

  // --- metadata ---------------------------------------------------------------
  const std::string build_type = MADBENCH_BUILD_TYPE;
  Json& meta = ctx.meta;
  meta.Set("workload", Json::Str(ctx.workload));
  meta.Set("seed", Json::Int(static_cast<int64_t>(ctx.seed)));
  meta.Set("seconds", Json::Double(ctx.seconds));
  meta.Set("smoke", Json::Bool(ctx.smoke));
  meta.Set("build_type", Json::Str(build_type));
  meta.Set("optimised_build",
           Json::Bool(build_type == "Release" || build_type == "RelWithDebInfo"));
  meta.Set("compiler", Json::Str(MADBENCH_CXX));
  meta.Set("nproc", Json::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  meta.Set("git_sha", Json::Str(git_sha));
  meta.Set("size", Json::Int(wl.size));
  const bool madd = wl.served || ctx.trace;
  meta.Set("fsync_policy", Json::Str(madd ? "always" : "none (no madd in this run)"));
  meta.Set("checkpoint_policy",
           Json::Str(madd ? "default: every 256 epochs or 16 MiB of WAL"
                          : "none (no madd in this run)"));
  Json hashes = Json::Object();
  hashes.Set("program", Json::Str(Fingerprint(in.rules)));
  hashes.Set("edb", Json::Str(Fingerprint(in.edb_text)));
  hashes.Set("inserts", Json::Str(Fingerprint(inserts_text)));
  meta.Set("input_fnv1a64", std::move(hashes));
  meta.Set("failed_share",
           Json::Double(ctx.attempted > 0
                            ? static_cast<double>(ctx.failed) / ctx.attempted
                            : 1.0));
  if (!ctx.failures.empty()) {
    Json f = Json::Array();
    for (const std::string& s : ctx.failures) f.Push(Json::Str(s));
    meta.Set("failures", std::move(f));
  }

  if (ctx.trace) {
    const std::string path = ctx.run_dir + "/trace.jsonl";
    if (ctx.tracer.WriteJsonl(path)) meta.Set("trace_file", Json::Str(path));
    Json layers = Json::Object();
    for (const auto& [layer, secs] : ctx.tracer.LayerSelfSeconds()) {
      layers.Set(layer, Json::Double(secs));
    }
    meta.Set("layer_self_s", std::move(layers));
    meta.Set("spans", Json::Int(static_cast<int64_t>(ctx.tracer.size())));
  }

  std::printf("madbench-meta %s\n", meta.Dump().c_str());
  std::printf("%s\n", ResultLine(ctx).c_str());
  std::fflush(stdout);
  return ctx.failed == 0 ? 0 : 1;
}

}  // namespace madbench

int main(int argc, char** argv) { return madbench::Main(argc, argv); }
