// Serve phase: an in-process madd on loopback, durable (fresh data dir,
// fsync=always, default checkpoint policy), driven open-loop from this
// process over three connections — one writer, two readers — first at the
// nominal rates, then up the ladder.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datalog/parser.h"
#include "phases.h"
#include "server/client.h"
#include "server/server.h"
#include "server/state.h"
#include "server/wal.h"

namespace madbench {

namespace {

using mad::server::Client;
using mad::server::Json;

enum Kind { kInsert = 0, kPoint = 1, kDemand = 2 };

// The server probe of the batch workloads' traced runs.
constexpr double kProbeInsertRate = 1;
constexpr double kProbeReadRate = 20;
constexpr double kProbeSeconds = 3;
/// How long a stream may run past its phase before unsent requests drop.
constexpr double kGraceSeconds = 1;
constexpr const char* kKindName[] = {"insert", "point", "demand"};
/// The p99 latency of each kind, in seconds, that a ladder rung must meet to
/// count as sustained. serve_sp's entry in BENCHMARK.json states them.
constexpr double kTailLimit[] = {0.5, 0.5, 0.5};

/// One request of the open loop. Times are seconds since the phase start.
struct Req {
  Kind kind = kPoint;
  double due = 0;   ///< when the schedule says it is sent
  double sent = 0;  ///< when it was sent
  double done = 0;  ///< when its response arrived
  double gen_late = 0;  ///< lateness the generator itself added
  bool ok = false;
  bool memo_hit = false;
  bool used_demand = false;
  int64_t derivations = 0;
  std::string insert_text; ///< inserts: the facts acknowledged
  std::string error;        ///< why the request failed, if it did
  double latency() const { return ok ? done - due : 1e9; }
};

/// The result of one open-loop phase (nominal or a ladder rung).
struct Phase {
  double multiplier = 1;
  std::vector<Req> reqs;
  /// Requests never sent: their stream was still behind schedule when the
  /// phase's grace period ran out. Any drop means the rate was not sustained.
  int64_t dropped = 0;
  std::vector<Json> sampled;  ///< response bodies kept for the JSON probe

  std::vector<double> Latencies(Kind k) const {
    std::vector<double> v;
    for (const Req& r : reqs) {
      if (r.kind == k) v.push_back(r.latency());
    }
    return v;
  }
  /// Requests still unanswered or answered late at the end: the lateness of
  /// each stream's last send. A backlog that grows shows up here.
  double FinalSendLag(Kind k) const {
    double lag = 0;
    for (const Req& r : reqs) {
      if (r.kind == k) lag = r.sent - r.due;
    }
    return lag;
  }
};

Json PointRequest(const Workload& wl, const Edge& e) {
  Json j = Json::Object();
  j.Set("verb", Json::Str("query"));
  j.Set("pred", Json::Str(wl.control ? "m" : "s"));
  Json key = Json::Array();
  char p = wl.control ? 'c' : 'n';
  key.Push(Json::Str(p + std::to_string(e.a)));
  key.Push(Json::Str(p + std::to_string(e.b)));
  j.Set("key", std::move(key));
  return j;
}

struct Serving {
  std::unique_ptr<mad::server::Server> server;
  int port = 0;
};

mad::StatusOr<Serving> StartServer(RunContext* ctx, const std::string& text,
                                   const std::string& data_dir) {
  mad::server::ServerState::LoadOptions opts;
  opts.durability.data_dir = data_dir;  // fsync=always, default checkpoints
  mad::StatusOr<std::unique_ptr<mad::server::ServerState>> state =
      mad::Status::Internal("");
  {
    Tracer::Span span(&ctx->tracer, "server.ServerState::Load");
    state = mad::server::ServerState::Load(text, opts);
  }
  if (!state.ok()) return state.status();
  Serving s;
  {
    Tracer::Span span(&ctx->tracer, "server.Server::Start");
    auto server = mad::server::Server::Start(std::move(state).value(), {});
    if (!server.ok()) return server.status();
    s.server = std::move(server).value();
  }
  s.port = s.server->port();
  return s;
}

void StopServer(Serving* s) {
  if (s->server == nullptr) return;
  s->server->RequestShutdown();
  s->server->Wait();
  s->server.reset();
}

/// Runs one open-loop phase: each connection at its workload rate * mult,
/// for `seconds`. Each connection sends its requests
/// on a fixed schedule; a request whose predecessor is still in flight is
/// sent late and its latency is charged from its due time.
Phase RunPhase(RunContext* ctx, const Workload& wl, const Inputs& in, int port,
               double mult, double seconds, size_t* next_insert,
               int64_t* next_request, uint64_t stream_seed) {
  Phase phase;
  phase.multiplier = mult;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  // Request ids and inserts are pre-assigned per stream so streams need no
  // shared state while running.
  const double rate[3] = {wl.insert_rate * mult, wl.point_rate * mult,
                          wl.demand_rate * mult};
  int64_t count[3], first_id[3];
  for (int k = 0; k < 3; ++k) {
    count[k] = static_cast<int64_t>(rate[k] * seconds);
    first_id[k] = *next_request;
    *next_request += count[k];
  }
  const size_t insert_base = *next_insert;
  *next_insert += static_cast<size_t>(count[kInsert]);

  std::vector<std::vector<Req>> out(3);
  std::vector<int64_t> dropped(3, 0);
  const auto give_up = at(seconds + kGraceSeconds);
  std::vector<std::vector<Json>> samples(3);
  // One connection per request kind: the writer, a key-lookup reader and
  // an atom-query reader.
  auto stream = [&](int which) {
    auto client = Client::Connect("127.0.0.1", port);
    const Kind kind = static_cast<Kind>(which);
    const double period = 1.0 / rate[which];
    Rng rng(stream_seed * 31 + which);
    double prev_done = 0;
    for (int64_t i = 0; i < count[which]; ++i) {
      if (Clock::now() > give_up) {
        dropped[which] = count[which] - i;
        break;
      }
      Req r;
      r.kind = kind;
      r.due = (i + which / 3.0) * period;
      Json request;
      if (kind == kInsert) {
        size_t k = insert_base + static_cast<size_t>(i);
        r.insert_text = k < in.inserts.size() ? in.inserts[k] : "";
        request = Json::Object();
        request.Set("verb", Json::Str("insert"));
        request.Set("facts", Json::Str(r.insert_text));
      } else if (kind == kDemand) {
        request = Json::Object();
        request.Set("verb", Json::Str("query"));
        request.Set("atom", Json::Str(DemandAtom(
                                wl, in.hot[rng.Below(static_cast<int64_t>(in.hot.size()))])));
      } else {
        request = PointRequest(
            wl, in.point_keys[rng.Below(static_cast<int64_t>(in.point_keys.size()))]);
      }
      // Sleep to just short of the due time, then spin: a plain sleep
      // overshoots by the timer slack, which would be charged as latency.
      const auto due = at(r.due);
      std::this_thread::sleep_until(due - std::chrono::microseconds(300));
      while (Clock::now() < due) std::this_thread::yield();
      auto sent = Clock::now();
      r.sent = since(sent);
      r.gen_late = std::max(0.0, r.sent - std::max(r.due, prev_done));
      mad::StatusOr<Json> resp = mad::Status::Internal("not connected");
      if (client.ok()) {
        Tracer::Span span(&ctx->tracer, "server.Client::Call",
                          first_id[which] + i);
        resp = client->Call(request);
      }
      r.done = since(Clock::now());
      prev_done = r.done;
      if (!resp.ok()) {
        r.error = resp.status().ToString();
      } else if (!resp->At("ok").is_bool() || !resp->At("ok").boolean) {
        r.error = resp->At("error").Dump();
      } else {
        r.ok = true;
        if (r.kind == kInsert) {
          r.ok = !r.insert_text.empty();
        } else if (r.kind == kDemand) {
          r.memo_hit = resp->At("memo_hit").is_bool();
          r.used_demand = resp->At("used_demand").boolean;
          r.derivations = resp->At("stats").At("derivations").AsInt();
        } else {
          r.ok = resp->At("row_count").AsInt() <= 1;
        }
        if (samples[which].size() < 200 && i % 4 == 0) {
          samples[which].push_back(std::move(resp).value());
        }
      }
      out[which].push_back(std::move(r));
    }
  };
  std::vector<std::thread> threads;
  for (int which = 0; which < 3; ++which) threads.emplace_back(stream, which);
  for (auto& t : threads) t.join();
  for (int which = 0; which < 3; ++which) {
    phase.dropped += dropped[which];
    for (Req& r : out[which]) phase.reqs.push_back(std::move(r));
    for (Json& j : samples[which]) phase.sampled.push_back(std::move(j));
  }
  return phase;
}

/// True when every stream's tail latency meets its limit and no stream
/// ended the phase with a backlog longer than its limit.
bool Sustained(const Phase& p) {
  if (p.dropped > 0) return false;
  for (Kind k : {kInsert, kPoint, kDemand}) {
    std::vector<double> lat = p.Latencies(k);
    if (lat.empty()) continue;
    if (Quantile(lat, TailQuantile(lat.size())) > kTailLimit[k]) return false;
    if (p.FinalSendLag(k) > kTailLimit[k]) return false;
  }
  return true;
}

/// Completed requests per second, from the phase start (the first due
/// time) to the last response.
double Achieved(const Phase& p) {
  int64_t ok = 0;
  double last = 0;
  for (const Req& r : p.reqs) {
    ok += r.ok ? 1 : 0;
    last = std::max(last, r.done);
  }
  return last > 0 ? ok / last : 0;
}

/// Canonical "k0,k1=cost" line for a JSON row of a query response.
std::string JsonRowLine(const Json& row) {
  std::string line;
  for (const Json& k : row.At("key").arr) {
    if (!line.empty()) line += ',';
    line += k.is_string() ? k.str : k.Dump();
  }
  if (row.Has("cost")) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%.17g", row.At("cost").AsDouble());
    line += buf;
  }
  return line;
}

/// Final-state checks: the served dump against a fresh Engine::Run over the
/// program plus every acknowledged insert, and sampled atom answers against
/// the fresh model's restriction.
void CheckFinalState(RunContext* ctx, const Workload& wl, const Inputs& in,
                     Client* client, const std::vector<std::string>& acked) {
  std::string text = std::string(in.rules) + in.edb_text;
  for (const std::string& f : acked) text += f + "\n";
  auto program = mad::datalog::ParseProgram(text);
  if (!program.ok()) {
    ctx->Check(false, "oracle ParseProgram: " + program.status().ToString());
    return;
  }
  mad::core::Engine engine(*program, {});
  auto fresh = engine.Run();
  if (!fresh.ok()) {
    ctx->Check(false, "oracle Engine::Run: " + fresh.status().ToString());
    return;
  }
  auto dump = client->Dump();
  ctx->Check(dump.ok() && dump->At("model").is_string() &&
                 dump->At("model").str == fresh->db.ToString(),
             "final dump differs from a fresh Engine::Run over program + " +
                 std::to_string(acked.size()) + " acknowledged inserts");
  const auto* pred = program->FindPredicate(wl.control ? "m" : "s");
  const auto* rel = pred != nullptr ? fresh->db.Find(pred) : nullptr;
  for (size_t k = 0; k < std::min<size_t>(in.hot.size(), 8); ++k) {
    const int source = in.hot[k];
    Json request = Json::Object();
    request.Set("verb", Json::Str("query"));
    request.Set("atom", Json::Str(DemandAtom(wl, source)));
    auto resp = client->Call(request);
    std::vector<std::string> got, want;
    if (resp.ok()) {
      for (const Json& row : resp->At("rows").arr) got.push_back(JsonRowLine(row));
    }
    const std::string prefix = (wl.control ? "c" : "n") + std::to_string(source);
    if (rel != nullptr) {
      rel->ForEach([&](const mad::datalog::Tuple& key,
                       const mad::datalog::Value& cost) {
        if (key[0].ToString() == prefix) want.push_back(RowLine(key, &cost));
      });
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ctx->Check(resp.ok() && got == want,
               "atom answer for " + DemandAtom(wl, source) +
                   " differs from the full model's restriction");
  }
}

/// Engine::Update timed in-process over the acknowledged insert texts, one
/// at a time on a fresh least model: the core share of an insert ack (the
/// ack itself carries no Update wall time).
void ReplayUpdates(RunContext* ctx, const Inputs& in,
                   const std::vector<std::string>& acked) {
  auto program =
      mad::datalog::ParseProgram(std::string(in.rules) + in.edb_text);
  if (!program.ok()) return;
  mad::core::Engine engine(*program, {});
  auto model = engine.Run();
  if (!model.ok()) return;
  std::vector<double> ms;
  int64_t derivations = 0;
  for (size_t i = 0; i < acked.size() && i < 400; ++i) {
    auto facts = mad::datalog::ParseFacts(&*program, acked[i]);
    if (!facts.ok()) break;
    mad::StatusOr<mad::core::EvalStats> st = mad::Status::Internal("");
    {
      Tracer::Span span(&ctx->tracer, "core.Engine::Update");
      auto t0 = Clock::now();
      st = engine.Update(&*model, *facts);
      ms.push_back(SecondsSince(t0) * 1e3);
    }
    ctx->Check(st.ok(), "Engine::Update replay failed");
    if (!st.ok()) break;
    derivations += st->derivations;
  }
  ctx->Layer("core.update_ms", Median(ms), "ms");
  ctx->Layer("core.update_derivations",
             ms.empty() ? 0 : static_cast<double>(derivations) / ms.size(),
             "count");
}

/// The serving end-to-end metrics: latency percentiles at the nominal rate
/// and the highest ladder rate that met the limits.
void ReportServing(RunContext* ctx, const Workload& wl,
                   const std::vector<Phase>& phases) {
  const Phase& nominal = phases[0];
  Json counts = Json::Object();
  auto tail = [&](Kind k, const char* p50, const char* p99, double scale,
                  const char* unit) {
    std::vector<double> lat = nominal.Latencies(k);
    const double q = TailQuantile(lat.size());
    ctx->E2E(p50, Quantile(lat, 0.5) * scale, unit);
    ctx->E2E(p99, Quantile(lat, q) * scale, unit);
    Json c = Json::Object();
    c.Set("samples", Json::Int(static_cast<int64_t>(lat.size())));
    c.Set("tail_percentile", Json::Double(q * 100));
    c.Set("samples_above_tail",
          Json::Int(static_cast<int64_t>(lat.size()) -
                    static_cast<int64_t>(std::ceil(q * lat.size()))));
    counts.Set(kKindName[k], std::move(c));
  };
  tail(kInsert, "insert_p50_ms", "insert_p99_ms", 1e3, "ms");
  tail(kPoint, "point_p50_us", "point_p99_us", 1e6, "us");
  tail(kDemand, "demand_p50_ms", "demand_p99_ms", 1e3, "ms");
  ctx->meta.Set("nominal_samples", std::move(counts));

  double sustained = 0;
  Json ladder = Json::Array();
  for (const Phase& p : phases) {
    const bool ok = Sustained(p);
    Json rung = Json::Object();
    rung.Set("multiplier", Json::Double(p.multiplier));
    rung.Set("offered_ops_s",
             Json::Double((wl.insert_rate + wl.point_rate + wl.demand_rate) *
                          p.multiplier));
    rung.Set("achieved_ops_s", Json::Double(Achieved(p)));
    rung.Set("sustained", Json::Bool(ok));
    rung.Set("dropped", Json::Int(p.dropped));
    for (Kind k : {kInsert, kPoint, kDemand}) {
      std::vector<double> lat = p.Latencies(k);
      rung.Set(std::string(kKindName[k]) + "_tail_ms",
               Json::Double(Quantile(lat, TailQuantile(lat.size())) * 1e3));
      rung.Set(std::string(kKindName[k]) + "_final_lag_ms",
               Json::Double(p.FinalSendLag(k) * 1e3));
    }
    ladder.Push(std::move(rung));
    if (ok) sustained = std::max(sustained, Achieved(p));
  }
  if (sustained == 0) {
    // Not even the nominal rate met the limits: report what it achieved and
    // say so, rather than a zero no bound can be taken of.
    sustained = Achieved(nominal);
    ctx->meta.Set("nominal_rate_not_sustained", Json::Bool(true));
  }
  ctx->E2E("sustained_ops_s", sustained, "ops/s");
  ctx->meta.Set("ladder", std::move(ladder));
  char limits[128];
  std::snprintf(limits, sizeof(limits), "insert %g ms, point %g us, demand %g ms",
                kTailLimit[kInsert] * 1e3, kTailLimit[kPoint] * 1e6,
                kTailLimit[kDemand] * 1e3);
  ctx->meta.Set("latency_limits_p99", Json::Str(limits));
}

}  // namespace

std::string DemandAtom(const Workload& wl, int source) {
  return wl.control ? "m(c" + std::to_string(source) + ", Y, N)"
                    : "s(n" + std::to_string(source) + ", Y, C)";
}

std::string RowLine(const mad::datalog::Tuple& key,
                    const mad::datalog::Value* cost) {
  std::string line;
  for (const auto& v : key) {
    if (!line.empty()) line += ',';
    line += v.ToString();
  }
  if (cost != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%.17g", cost->AsDouble());
    line += buf;
  }
  return line;
}

double TimeServerSetup(RunContext* ctx, const Inputs& in,
                       const std::string& data_dir) {
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  std::filesystem::create_directories(
      std::filesystem::path(data_dir).parent_path(), ec);
  const std::string program_text = std::string(in.rules) + in.edb_text;
  auto t0 = Clock::now();
  auto started = StartServer(ctx, program_text, data_dir);
  if (!started.ok()) {
    ctx->Check(false, "madd start: " + started.status().ToString());
    return -1;
  }
  auto client = Client::Connect("127.0.0.1", started->port);
  bool pinged = false;
  if (client.ok()) {
    Tracer::Span span(&ctx->tracer, "server.Client::Call");
    pinged = client->Ping().ok();
  }
  const double seconds = SecondsSince(t0);
  ctx->Check(pinged, "first ping failed");
  if (client.ok()) client->Close();
  StopServer(&*started);
  std::filesystem::remove_all(data_dir, ec);
  return pinged ? seconds : -1;
}

int MaxInserts(const Workload& wl, double seconds) {
  // Batch workloads insert through the library, up to 2000 calls.
  if (!wl.served) return 2000;
  double total = wl.nominal_share;
  for (double m : kLadder) total += m * wl.rung_share;
  return static_cast<int>(wl.insert_rate * seconds * total) + 16;
}

void RunServe(RunContext* ctx, const Workload& wl, const Inputs& in) {
  namespace fs = std::filesystem;
  const std::string base = ctx->run_dir + "/serve";
  std::error_code ec;
  fs::remove_all(base, ec);
  fs::create_directories(base, ec);
  const std::string program_text = std::string(in.rules) + in.edb_text;
  // On the batch workloads this phase only runs in traced runs, as a short
  // probe of the server layer over the large model at low fixed rates.
  const bool probe = !wl.served;
  Workload rates = wl;
  if (probe) {
    rates.insert_rate = kProbeInsertRate;
    rates.point_rate = kProbeReadRate;
    rates.demand_rate = kProbeReadRate;
  }

  // serve_sp's set-up is timed in the batch phase (TimeServerSetup).
  auto started = StartServer(ctx, program_text, base + "/data");
  if (!started.ok()) {
    ctx->Check(false, "madd start: " + started.status().ToString());
    return;
  }
  Serving serving = std::move(started).value();
  auto control = Client::Connect("127.0.0.1", serving.port);
  if (!control.ok()) {
    ctx->Check(false, "connect: " + control.status().ToString());
    StopServer(&serving);
    return;
  }
  // Closed-loop pings: the wire + JSON + thread hop with no work behind it.
  std::vector<double> ping_us;
  for (int i = 0; i < 200; ++i) {
    auto t0 = Clock::now();
    bool ok = control->Ping().ok();
    ping_us.push_back(SecondsSince(t0) * 1e6);
    ctx->Check(ok, "ping failed");
  }

  // --- nominal phase, then the ladder ----------------------------------------
  size_t next_insert = 0;
  int64_t next_request = 0;
  std::vector<Phase> phases;
  {
    Tracer::Span span(&ctx->tracer, "bench.serve_nominal");
    phases.push_back(RunPhase(
        ctx, rates, in, serving.port, 1.0,
        probe ? kProbeSeconds : ctx->seconds * wl.nominal_share, &next_insert,
        &next_request, ctx->seed * 1000 + 1));
  }  for (size_t i = 0; i < std::size(kLadder) && !probe; ++i) {
    Tracer::Span span(&ctx->tracer, "bench.serve_ladder");
    phases.push_back(RunPhase(ctx, wl, in, serving.port, kLadder[i],
                              ctx->seconds * wl.rung_share, &next_insert,
                              &next_request, ctx->seed * 1000 + 2 + i));
  }
  const Phase& nominal = phases[0];

  std::vector<std::string> acked;
  int64_t failed_requests = 0, requests = 0;
  std::string first_error;
  for (const Phase& p : phases) {
    for (const Req& r : p.reqs) {
      ++requests;
      if (!r.ok) ++failed_requests;
      if (!r.ok && first_error.empty()) {
        first_error = std::string(kKindName[r.kind]) + ": " + r.error;
      }
      if (r.kind == kInsert && r.ok) acked.push_back(r.insert_text);
    }
  }
  ctx->Count(requests, failed_requests,
             "serve requests failed or refused, first: " + first_error);
  if (!probe) ReportServing(ctx, wl, phases);

  // --- per-layer numbers that need the live server ---------------------------
  auto stats = control->Stats();
  ctx->Check(stats.ok(), "stats verb failed");
  CheckFinalState(ctx, wl, in, &*control, acked);  control->Close();
  StopServer(&serving);

  if (!ctx->trace) return;

  std::vector<double> gen_late;
  double query_derivs = 0;
  int64_t computed = 0, demands = 0, memo_hits = 0, used = 0;
  for (const Req& r : nominal.reqs) {
    gen_late.push_back(r.gen_late * 1e3);
    if (!r.ok) continue;
    if (r.kind == kDemand) {
      ++demands;
      if (r.memo_hit) {
        ++memo_hits;
      } else {
        ++computed;
        query_derivs += r.derivations;
        used += r.used_demand ? 1 : 0;
      }
    }
  }
  Json bases = ctx->meta.At("ratio_bases");
  if (!probe) {
    // The batch workloads report these from their own library calls.
    ReplayUpdates(ctx, in, acked);
    ctx->Layer("core.query_derivations",
               computed > 0 ? query_derivs / computed : 0, "count");
  }
  ctx->Layer("server.ping_us", Median(ping_us), "us");
  const Json& verbs = stats.ok() ? stats->At("verbs") : Json::Null();
  const double handle_insert_us = verbs.At("insert").At("p50_us").AsDouble();
  ctx->Layer("server.handle_insert_us", handle_insert_us, "us");
  ctx->Layer("server.handle_query_us",
             verbs.At("query").At("p50_us").AsDouble(), "us");
  ctx->Layer("server.insert_wait_us",
             Quantile(nominal.Latencies(kInsert), 0.5) * 1e6 - handle_insert_us,
             "us");
  const Json& dur = stats.ok() ? stats->At("durability") : Json::Null();
  ctx->Layer("server.checkpoints",
             static_cast<double>(dur.At("checkpoints_written").AsInt()),
             "count");
  ctx->Layer("server.memo_hit_ratio",
             demands > 0 ? static_cast<double>(memo_hits) / demands : 0,
             "ratio");
  bases.Set("server.memo_hit_ratio",
            Json::Str("memo hits / atom queries at the nominal rate = " +
                      std::to_string(memo_hits) + " / " +
                      std::to_string(demands)));
  ctx->Layer("server.demand_used_ratio",
             computed > 0 ? static_cast<double>(used) / computed : 0, "ratio");
  bases.Set("server.demand_used_ratio",
            Json::Str("answers computed by the demand rewrite / computed "
                      "(non-memo) atom answers = " +
                      std::to_string(used) + " / " + std::to_string(computed)));
  ctx->Layer("bench.gen_late_p99_ms",
             Quantile(gen_late, TailQuantile(gen_late.size())), "ms");

  // WAL append cost for the same batch texts, same filesystem, fsync=always.
  {
    const std::string dir = base + "/wal-probe";
    fs::create_directories(dir, ec);
    auto wal = mad::server::WalWriter::Create(
        dir, 1, mad::server::FsyncPolicy::kAlways, nullptr);
    std::vector<double> append_us;
    int64_t user_bytes = 0;
    if (wal.ok()) {
      for (size_t i = 0; i < acked.size() && i < 256; ++i) {
        mad::server::WalRecord rec;
        rec.epoch = static_cast<int64_t>(i) + 1;
        rec.facts_text = acked[i];
        Tracer::Span span(&ctx->tracer, "server.WalWriter::Append");
        auto t0 = Clock::now();
        ctx->Check(wal->Append(rec).ok(), "WalWriter::Append failed");
        append_us.push_back(SecondsSince(t0) * 1e6);
        user_bytes += static_cast<int64_t>(acked[i].size());
      }
      ctx->Layer("server.wal_append_us", Median(append_us), "us");
      const double header = static_cast<double>(mad::server::kWalMagicBytes);
      ctx->Layer("server.wal_bytes_per_user_byte",
                 user_bytes > 0 ? (wal->bytes() - header) / user_bytes : 0,
                 "ratio");
      bases.Set("server.wal_bytes_per_user_byte",
                Json::Str("WAL record bytes / fact-text bytes over " +
                          std::to_string(append_us.size()) +
                          " acknowledged insert batches"));
    } else {
      ctx->Check(false, "WalWriter::Create: " + wal.status().ToString());
    }
  }

  // JSON encode/decode cost of the recorded response bodies, per KiB.
  {
    std::vector<std::string> bodies;
    double bytes = 0;
    for (const Phase& p : phases) {
      for (const Json& j : p.sampled) {
        bodies.push_back(j.Dump());
        bytes += static_cast<double>(bodies.back().size());
      }
    }
    std::vector<double> per_kib;
    for (int rep = 0; rep < 5 && bytes > 0; ++rep) {
      auto t0 = Clock::now();
      size_t sink = 0;
      for (const std::string& b : bodies) {
        auto parsed = mad::server::ParseJson(b);
        if (parsed.has_value()) sink += parsed->Dump().size();
      }
      per_kib.push_back(SecondsSince(t0) * 1e6 / (bytes / 1024));
      ctx->Check(sink == static_cast<size_t>(bytes),
                 "response JSON does not round-trip");
    }
    ctx->Layer("server.json_us", Median(per_kib), "us/KiB");
  }
  ctx->meta.Set("ratio_bases", std::move(bases));
}

}  // namespace madbench
