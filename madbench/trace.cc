#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "server/json.h"

namespace madbench {

namespace {

/// The innermost open span of the calling thread (its children's parent).
thread_local int tls_current_span = -1;

}  // namespace

Tracer::Tracer() : origin_ns_(NowNs()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin_ns_;
}

Tracer::Span::Span(Tracer* tracer, const char* name, int64_t request) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  {
    std::lock_guard<std::mutex> lk(tracer->mu_);
    rec_.id = tracer->next_id_++;
  }
  rec_.parent = tls_current_span;
  rec_.request = request;
  rec_.name = name;
  saved_parent_ = tls_current_span;
  tls_current_span = rec_.id;
  rec_.start_ns = tracer->NowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = tracer_->NowNs();
  tls_current_span = saved_parent_;
  tracer_->Finish(std::move(rec_));
}

void Tracer::Finish(SpanRecord rec) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(rec));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::vector<int64_t> Tracer::SelfNs() const {
  // Children of one span run on its thread, one after another, so the part
  // of the parent they cover is the sum of their durations.
  std::unordered_map<int, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const SpanRecord& s : spans_) {
    auto it = index.find(s.parent);
    if (it != index.end()) self[it->second] -= s.end_ns - s.start_ns;
  }
  return self;
}

std::vector<double> Tracer::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<int64_t> self = SelfNs();
  std::vector<std::pair<int64_t, double>> picked;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      picked.emplace_back(spans_[i].start_ns, self[i] * 1e-9);
    }
  }
  std::sort(picked.begin(), picked.end());
  std::vector<double> out;
  for (const auto& [_, s] : picked) out.push_back(s);
  return out;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<int64_t> self = SelfNs();
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& n = spans_[i].name;
    layers[n.substr(0, n.find('.'))] += self[i] * 1e-9;
  }
  return layers;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  using mad::server::Json;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::map<std::string, double> layers = LayerSelfSeconds();
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<int64_t> self = SelfNs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      Json j = Json::Object();
      j.Set("span", Json::Int(s.id));
      j.Set("parent", Json::Int(s.parent));
      if (s.request >= 0) j.Set("request", Json::Int(s.request));
      j.Set("name", Json::Str(s.name));
      j.Set("start_ns", Json::Int(s.start_ns));
      j.Set("end_ns", Json::Int(s.end_ns));
      j.Set("self_ns", Json::Int(self[i]));
      std::fprintf(f, "%s\n", j.Dump().c_str());
    }
  }
  for (const auto& [layer, secs] : layers) {
    Json j = Json::Object();
    j.Set("layer", Json::Str(layer));
    j.Set("self_s", Json::Double(secs));
    std::fprintf(f, "%s\n", j.Dump().c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace madbench
