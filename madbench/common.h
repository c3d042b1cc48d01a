#ifndef MADBENCH_COMMON_H_
#define MADBENCH_COMMON_H_

// Shared plumbing of the madbench binary: the run context every phase
// writes its metrics and failures into, and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "server/json.h"
#include "trace.h"

namespace madbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The time point `seconds` from now.
inline Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Median of `v` (0 for an empty vector). Takes a copy: callers keep order.
double Median(std::vector<double> v);

/// The q-quantile (0 <= q <= 1) by nearest rank over a sorted copy.
double Quantile(std::vector<double> v, double q);

/// The tail percentile a sample of `n` values supports: 0.99 when at least
/// ten samples lie above it, otherwise the highest percentile that still has
/// ten samples above it (0.5 when even that is impossible).
double TailQuantile(size_t n);

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one workload run produces.
struct RunContext {
  // --- options ---------------------------------------------------------------
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string run_dir;  ///< scratch space inside the checkout

  Tracer tracer;

  // --- results ---------------------------------------------------------------
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Run metadata and the bases of every ratio; printed beside the result.
  mad::server::Json meta = mad::server::Json::Object();
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Counts one checked operation; records and reports a mismatch.
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations of which `bad` failed (bulk form of Check).
  void Count(int64_t n, int64_t bad, const std::string& what);
};

/// FNV-1a 64 over `text`, rendered as 16 hex digits: the input fingerprint
/// recorded in the metadata so equal seeds provably give equal inputs.
std::string Fingerprint(const std::string& text);

}  // namespace madbench

#endif  // MADBENCH_COMMON_H_
