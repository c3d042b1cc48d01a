#ifndef MADBENCH_TRACE_H_
#define MADBENCH_TRACE_H_

// In-memory spans recorded by the benchmark around its calls into each
// layer of the engine. Nothing inside the engine is instrumented: a span
// covers one public call (ParseProgram, CheckProgram, Engine::Run,
// Client::Call, ...) as seen from the benchmark. Spans stay in memory until
// the run ends, then are written as JSON lines; a span's self time is its
// duration minus the part of it its child spans cover.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace madbench {

struct SpanRecord {
  int id = 0;
  int parent = -1;       ///< enclosing span on the same thread, or -1
  int64_t request = -1;  ///< serve requests: the request id
  std::string name;      ///< "<layer>.<call>", e.g. "core.Engine::Run"
  int64_t start_ns = 0;  ///< relative to the tracer's origin
  int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII span; a no-op when tracing is off.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, int64_t request = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    SpanRecord rec_;
    int saved_parent_ = -1;
  };

  /// Self time in seconds of every span named `name`, in start order.
  std::vector<double> SelfSeconds(const std::string& name) const;
  /// Total self time per layer (the name's prefix before the first '.').
  std::map<std::string, double> LayerSelfSeconds() const;
  size_t size() const;

  /// Writes one JSON object per span, then a roll-up line per layer.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t NowNs() const;
  void Finish(SpanRecord rec);
  /// Self time (ns) of each span, indexed like spans_.
  std::vector<int64_t> SelfNs() const;

  bool enabled_ = false;
  int64_t origin_ns_ = 0;
  mutable std::mutex mu_;
  int next_id_ = 0;  // guarded by mu_
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

}  // namespace madbench

#endif  // MADBENCH_TRACE_H_
