#include "server/state.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/admissibility.h"
#include "datalog/parser.h"
#include "server/replication/wal_cursor.h"
#include "server/result_json.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace mad {
namespace server {

using datalog::PredicateInfo;
using datalog::Relation;
using datalog::Tuple;
using datalog::Value;

// ---------------------------------------------------------------------------
// LatencyRecorder
// ---------------------------------------------------------------------------

void LatencyRecorder::Record(const std::string& verb, double micros) {
  std::lock_guard<std::mutex> lk(mu_);
  PerVerb& pv = verbs_[verb];
  ++pv.count;
  pv.total_us += micros;
  if (pv.recent.size() < kReservoir) {
    pv.recent.push_back(micros);
  } else {
    pv.recent[pv.next] = micros;
    pv.next = (pv.next + 1) % kReservoir;
  }
}

namespace {

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted->size() - 1));
  return (*sorted)[idx];
}

}  // namespace

Json LatencyRecorder::ToJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  Json out = Json::Object();
  for (const auto& [verb, pv] : verbs_) {
    std::vector<double> samples = pv.recent;
    std::sort(samples.begin(), samples.end());
    Json v = Json::Object();
    v.Set("count", Json::Int(pv.count));
    v.Set("mean_us",
          Json::Double(pv.count > 0 ? pv.total_us / static_cast<double>(pv.count)
                                    : 0));
    v.Set("p50_us", Json::Double(Percentile(&samples, 0.50)));
    v.Set("p95_us", Json::Double(Percentile(&samples, 0.95)));
    v.Set("p99_us", Json::Double(Percentile(&samples, 0.99)));
    out.Set(verb, std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ServerState
// ---------------------------------------------------------------------------

namespace {

Json ErrorResponse(const std::string& verb, const Status& status) {
  Json j = Json::Object();
  j.Set("ok", Json::Bool(false));
  j.Set("verb", Json::Str(verb));
  Json err = Json::Object();
  err.Set("code", Json::Str(StatusCodeName(status.code())));
  err.Set("message", Json::Str(status.message()));
  j.Set("error", std::move(err));
  return j;
}

Json OkResponse(const std::string& verb, int64_t epoch) {
  Json j = Json::Object();
  j.Set("ok", Json::Bool(true));
  j.Set("verb", Json::Str(verb));
  j.Set("epoch", Json::Int(epoch));
  return j;
}

/// Default and ceiling for how long a min_epoch read (or a long-polled
/// repl_frames request) may block. The ceiling keeps a bad token from
/// parking a connection thread forever.
constexpr int64_t kDefaultMinEpochWaitMs = 2000;
constexpr int64_t kMaxWaitMs = 60 * 1000;

/// Ceiling for a request's limits.deadline_ms: about 35 years, far past any
/// useful deadline and far inside the int64 nanosecond range.
constexpr int64_t kMaxDeadlineMs = int64_t{1} << 40;

constexpr int64_t kDefaultFrameRecords = 256;
constexpr int64_t kDefaultFrameBytes = 4 << 20;

}  // namespace

StatusOr<std::unique_ptr<ServerState>> ServerState::Load(
    std::string_view program_text, LoadOptions options) {
  MAD_ASSIGN_OR_RETURN(datalog::Program parsed,
                       datalog::ParseProgram(program_text));
  // The unique_ptr dance: Engine keeps a Program*, so give the program a
  // stable address before constructing the engine.
  auto state = std::unique_ptr<ServerState>(new ServerState());
  state->program_ = std::make_unique<datalog::Program>(std::move(parsed));
  state->program_text_ = std::string(program_text);
  state->cancellation_ = options.cancellation;
  state->durability_ = std::move(options.durability);
  state->replica_ = std::move(options.replica);
  if (state->replica_.enabled && !state->durability_.data_dir.empty()) {
    return Status::InvalidArgument(
        "replica mode and a data dir are mutually exclusive: the primary's "
        "WAL is the log of record, and a restarted replica re-bootstraps "
        "from the primary");
  }
  if (state->cancellation_ != nullptr &&
      options.eval.limits.cancellation == nullptr) {
    options.eval.limits.cancellation = state->cancellation_;
  }
  state->engine_ =
      std::make_unique<core::Engine>(*state->program_, options.eval);

  // The check-and-certify pipeline runs inside Run (validate=true): a
  // rejected program returns an error here and never serves.
  MAD_ASSIGN_OR_RETURN(state->work_, state->engine_->Run(datalog::Database()));

  state->updates_safe_ =
      analysis::AnalyzeUpdateSafety(*state->program_).basic.ok();
  for (const auto& verdict : state->work_.check.components) {
    if (!state->certificate_summary_.empty()) {
      state->certificate_summary_.push_back(' ');
    }
    state->certificate_summary_ += StrPrintf(
        "c%d:%s", verdict.index,
        analysis::absint::CertificateKindName(verdict.certificate));
  }

  if (!state->durability_.data_dir.empty()) {
    MAD_RETURN_IF_ERROR(state->RecoverAndOpenWal());
  }

  // The demand-query base: program facts plus the full accepted insert
  // history (cumulative_facts_ is exactly that after recovery — checkpoint
  // facts plus WAL replay). Live inserts append to it under writer_mu_.
  MAD_RETURN_IF_ERROR(state->base_facts_.AddFacts(*state->program_));
  if (!state->cumulative_facts_.empty()) {
    MAD_ASSIGN_OR_RETURN(
        std::vector<datalog::Fact> history,
        datalog::ParseFacts(state->program_.get(), state->cumulative_facts_));
    for (const datalog::Fact& f : history) {
      MAD_RETURN_IF_ERROR(state->base_facts_.AddFact(f));
    }
  }

  // Build the frozen name map only after recovery: WAL replay may implicitly
  // declare cost-free predicates exactly like live inserts do, and those
  // must be queryable.
  for (const auto& pred : state->program_->predicates()) {
    state->preds_.emplace(pred->name, pred.get());
  }
  state->start_ = std::chrono::steady_clock::now();
  state->Publish();
  return state;
}

Status ServerState::RecoverAndOpenWal() {
  const auto t0 = std::chrono::steady_clock::now();
  MAD_ASSIGN_OR_RETURN(RecoveryPlan plan, PlanRecovery(durability_.data_dir));

  if (plan.checkpoint.has_value()) {
    const CheckpointData& ckpt = *plan.checkpoint;
    // The least model is a function of program AND insert history; a WAL
    // written under a different program must not be silently replayed.
    if (ckpt.program_text != program_text_) {
      return Status::InvalidArgument(StrPrintf(
          "data dir '%s' holds a checkpoint for a different program; refusing "
          "to recover (move the data dir aside or restore the original .mdl)",
          durability_.data_dir.c_str()));
    }
    MAD_RETURN_IF_ERROR(RestoreRelations(ckpt, program_.get(), &work_.db));
    epoch_ = ckpt.epoch;
    cumulative_facts_ = ckpt.facts_text;
    history_bytes_.store(static_cast<int64_t>(cumulative_facts_.size()),
                         std::memory_order_relaxed);
  }

  int64_t replayed = 0;
  for (const WalRecord& rec : plan.replay) {
    auto facts = datalog::ParseFacts(program_.get(), rec.facts_text);
    if (!facts.ok()) {
      return Status::Internal(StrPrintf(
          "WAL replay: the batch for epoch %lld no longer parses against the "
          "program: %s",
          static_cast<long long>(rec.epoch), facts.status().message().c_str()));
    }
    ResourceLimits limits;
    limits.cancellation = cancellation_;
    auto stats = engine_->Update(&work_, *facts, limits);
    if (!stats.ok()) {
      return Status::Internal(StrPrintf(
          "WAL replay failed applying the batch for epoch %lld: %s",
          static_cast<long long>(rec.epoch), stats.status().message().c_str()));
    }
    epoch_ = rec.epoch;
    cumulative_facts_.append(rec.facts_text);
    cumulative_facts_.push_back('\n');
    history_bytes_.store(static_cast<int64_t>(cumulative_facts_.size()),
                         std::memory_order_relaxed);
    ++replayed;
  }

  if (durability_.verify_recovery &&
      (plan.checkpoint.has_value() || replayed > 0)) {
    MAD_RETURN_IF_ERROR(VerifyRecoveredState());
  }

  // Always rotate: recovery never appends to a segment it read, so a torn
  // tail stays frozen in place instead of being overwritten.
  MAD_ASSIGN_OR_RETURN(
      WalWriter wal,
      WalWriter::Create(durability_.data_dir, plan.next_segment_seq,
                        durability_.fsync, hooks()));
  wal_ = std::make_unique<WalWriter>(std::move(wal));

  std::lock_guard<std::mutex> lk(dur_mu_);
  dur_.durable_epoch = epoch_;
  dur_.wal_seq = wal_->seq();
  dur_.last_checkpoint_epoch =
      plan.checkpoint.has_value() ? plan.checkpoint->epoch : 0;
  dur_.replayed_records = replayed;
  dur_.truncated_tail_records = plan.truncated_tail_records;
  dur_.skipped_aborted_batches = plan.skipped_aborted_batches;
  dur_.invalid_checkpoints = plan.invalid_checkpoints;
  dur_.recovery_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  return Status::OK();
}

Status ServerState::VerifyRecoveredState() {
  // Differential oracle: the recovered model must equal a from-scratch
  // evaluation of program + full insert history. Confluence of lattice joins
  // makes the history order-insensitive, so one bulk Update of the
  // concatenated batches reaches the same least model the incremental
  // sequence did — and ToString() is sorted, so equality is byte-equality.
  MAD_ASSIGN_OR_RETURN(core::EvalResult fresh,
                       engine_->Run(datalog::Database()));
  if (!cumulative_facts_.empty()) {
    MAD_ASSIGN_OR_RETURN(std::vector<datalog::Fact> facts,
                         datalog::ParseFacts(program_.get(), cumulative_facts_));
    ResourceLimits limits;
    limits.cancellation = cancellation_;
    auto stats = engine_->Update(&fresh, facts, limits);
    if (!stats.ok()) return stats.status();
  }
  if (fresh.db.ToString() != work_.db.ToString()) {
    return Status::Internal(
        "recovery certification failed: the replayed state differs from a "
        "from-scratch evaluation of program + insert history (corrupt "
        "checkpoint or non-deterministic evaluation)");
  }
  return Status::OK();
}

void ServerState::SyncDurabilityCounters() {
  if (wal_ == nullptr) return;
  std::lock_guard<std::mutex> lk(dur_mu_);
  dur_.wal_seq = wal_->seq();
  dur_.wal_records = wal_->records();
  dur_.wal_bytes = wal_->bytes();
}

void ServerState::MaybeCheckpoint(bool force) {
  if (wal_ == nullptr) return;
  // Only exact least models are checkpointed: a limit-degraded working set
  // is sound but not the state the differential verifier would reproduce.
  if (work_.completeness != core::Completeness::kLeastModel) return;
  if (!force) {
    int64_t last = 0;
    {
      std::lock_guard<std::mutex> lk(dur_mu_);
      last = dur_.last_checkpoint_epoch;
    }
    const bool by_epochs = durability_.checkpoint_every_epochs > 0 &&
                           epoch_ - last >= durability_.checkpoint_every_epochs;
    const bool by_bytes = durability_.checkpoint_every_bytes > 0 &&
                          wal_->bytes() >= durability_.checkpoint_every_bytes;
    if (!by_epochs && !by_bytes) return;
  }

  CheckpointData ckpt;
  ckpt.epoch = epoch_;
  ckpt.program_text = program_text_;
  ckpt.facts_text = cumulative_facts_;
  ckpt.completeness = core::CompletenessName(work_.completeness);
  ckpt.certificate_summary = certificate_summary_;
  DumpRelations(work_.db, &ckpt);

  // Failures here are counted, never fatal: the WAL remains authoritative
  // and a later attempt (or restart) can still checkpoint.
  Status written = WriteCheckpoint(durability_.data_dir, ckpt, hooks());
  if (written.ok()) {
    auto rotated = WalWriter::Create(durability_.data_dir, wal_->seq() + 1,
                                     durability_.fsync, hooks());
    if (rotated.ok()) {
      *wal_ = std::move(rotated).value();
      (void)PruneDataDir(durability_.data_dir, wal_->seq(), epoch_);
      std::lock_guard<std::mutex> lk(dur_mu_);
      dur_.last_checkpoint_epoch = epoch_;
      ++dur_.checkpoints_written;
      return;
    }
  }
  std::lock_guard<std::mutex> lk(dur_mu_);
  ++dur_.checkpoint_failures;
}

void ServerState::Publish() {
  auto snap = std::make_shared<ServingSnapshot>();
  snap->epoch = epoch_;
  snap->db = work_.db.Snapshot();
  snap->base = base_facts_.Snapshot();
  snap->stats = work_.stats;
  snap->completeness = work_.completeness;
  snap->limit_tripped = work_.limit_tripped;
  std::lock_guard<std::mutex> lk(snap_mu_);
  snapshot_ = std::move(snap);
  snap_cv_.notify_all();
}

bool ServerState::WaitForEpoch(int64_t min_epoch,
                               std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lk(snap_mu_);
  return snap_cv_.wait_for(lk, timeout, [&] {
    return snapshot_ != nullptr && snapshot_->epoch >= min_epoch;
  });
}

std::shared_ptr<const ServingSnapshot> ServerState::Pin() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return snapshot_;
}

int64_t ServerState::epoch() const { return Pin()->epoch; }

ResourceLimits ServerState::RequestResourceLimits(const Json& request) const {
  ResourceLimits limits;
  const Json& l = request.At("limits");
  // Clamped: an untrusted deadline of up to 2^63 ms would overflow the
  // nanosecond duration (and the time point it is added to).
  const int64_t deadline_ms =
      std::min<int64_t>(l.IntOr("deadline_ms", 0), kMaxDeadlineMs);
  if (deadline_ms > 0) {
    limits.deadline = std::chrono::milliseconds(deadline_ms);
  }
  int64_t max_tuples = l.IntOr("max_tuples", 0);
  if (max_tuples > 0) limits.max_derived_tuples = max_tuples;
  limits.cancellation = cancellation_;
  return limits;
}

Json ServerState::Handle(const Json& request) {
  const std::string verb = request.StrOr("verb", "");
  const auto t0 = std::chrono::steady_clock::now();

  // Read-your-writes: a read carrying a min_epoch token (the epoch an
  // insert acknowledgment returned) must never be served from an older
  // snapshot. A primary satisfies the bar trivially; a lagging replica
  // blocks until the shipped log catches up or the deadline expires, then
  // reports structured lag instead of silently answering stale.
  const bool is_read = verb == "query" || verb == "dump" || verb == "stats";
  const int64_t min_epoch = request.IntOr("min_epoch", 0);
  bool lagging = false;
  if (is_read && min_epoch > 0) {
    const int64_t wait_ms = std::clamp<int64_t>(
        request.IntOr("min_epoch_wait_ms", kDefaultMinEpochWaitMs), 0,
        kMaxWaitMs);
    lagging = !WaitForEpoch(min_epoch, std::chrono::milliseconds(wait_ms));
  }

  Json response;
  if (lagging) {
    const int64_t have = epoch();
    response = ErrorResponse(
        verb, Status::ReplicaLagging(StrPrintf(
                  "read requires epoch >= %lld but only %lld is applied "
                  "here; retry, raise min_epoch_wait_ms, or read the primary",
                  static_cast<long long>(min_epoch),
                  static_cast<long long>(have))));
    response.Set("epoch", Json::Int(have));
    response.Set("min_epoch", Json::Int(min_epoch));
  } else if (verb == "ping") {
    response = HandlePing();
  } else if (verb == "query") {
    response = HandleQuery(request);
  } else if (verb == "insert") {
    response = replica_.enabled ? NotPrimaryResponse(verb)
                                : HandleInsert(request);
  } else if (verb == "dump") {
    response = HandleDump();
  } else if (verb == "stats") {
    response = HandleStats();
  } else if (verb == "sync") {
    response = replica_.enabled ? NotPrimaryResponse(verb)
                                : HandleSync(request);
  } else if (verb == "recover") {
    response = replica_.enabled ? NotPrimaryResponse(verb) : HandleRecover();
  } else if (verb == "repl_subscribe") {
    // Replica chaining is not supported; the redirect sends second-tier
    // subscribers to the primary.
    response = replica_.enabled ? NotPrimaryResponse(verb)
                                : HandleReplSubscribe(request);
  } else if (verb == "repl_frames") {
    response = replica_.enabled ? NotPrimaryResponse(verb)
                                : HandleReplFrames(request);
  } else if (verb == "shutdown") {
    // Transport-level: the server loop sees this verb and starts draining;
    // the response acknowledges the request against the final epoch.
    response = OkResponse("shutdown", epoch());
  } else {
    response = ErrorResponse(verb, Status::InvalidArgument(StrPrintf(
                                       "unknown verb '%s'", verb.c_str())));
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  latency_.Record(verb.empty() ? "<none>" : verb, us);
  return response;
}

Json ServerState::HandlePing() {
  auto snap = Pin();
  Json j = OkResponse("ping", snap->epoch);
  j.Set("completeness", Json::Str(core::CompletenessName(snap->completeness)));
  j.Set("role", Json::Str(replica_.enabled ? "replica" : "primary"));
  return j;
}

Json ServerState::HandleQuery(const Json& request) {
  if (request.At("atom").is_string()) return HandleDemandQuery(request);
  auto snap = Pin();
  const std::string pred_name = request.StrOr("pred", "");
  auto it = preds_.find(pred_name);
  if (it == preds_.end()) {
    return ErrorResponse("query", Status::NotFound(StrPrintf(
                                      "no predicate '%s'", pred_name.c_str())));
  }
  const PredicateInfo* pred = it->second;

  // "key": array of key_arity entries, null = unbound. Missing key = full
  // scan.
  std::vector<int> bound_pos;
  Tuple bound_vals;
  const Json& key = request.At("key");
  if (key.is_array()) {
    if (static_cast<int>(key.arr.size()) != pred->key_arity()) {
      return ErrorResponse(
          "query", Status::InvalidArgument(StrPrintf(
                       "'%s' takes %d key arguments, got %zu",
                       pred_name.c_str(), pred->key_arity(), key.arr.size())));
    }
    for (size_t i = 0; i < key.arr.size(); ++i) {
      if (key.arr[i].is_null()) continue;
      std::optional<Value> v = JsonToValue(key.arr[i]);
      if (!v.has_value()) {
        return ErrorResponse("query",
                             Status::InvalidArgument(StrPrintf(
                                 "key position %zu is not a ground value", i)));
      }
      bound_pos.push_back(static_cast<int>(i));
      bound_vals.push_back(*v);
    }
  } else if (!key.is_null()) {
    return ErrorResponse(
        "query", Status::InvalidArgument("'key' must be an array or absent"));
  }

  ResourceGuard guard(RequestResourceLimits(request));
  const int64_t max_rows = request.At("limits").IntOr("max_rows", 0);

  Json rows = Json::Array();
  int64_t matched = 0;
  bool truncated = false;
  const Relation* rel = snap->db.Find(pred);
  if (rel != nullptr) {
    rel->Scan(bound_pos, bound_vals, [&](const Tuple& k, const Value& cost) {
      ++matched;
      if (truncated) return;
      if (max_rows > 0 && static_cast<int64_t>(rows.arr.size()) >= max_rows) {
        truncated = true;
        return;
      }
      if (guard.active() && (matched & 127) == 0 &&
          guard.Poll() != LimitKind::kNone) {
        truncated = true;
        return;
      }
      Json row = Json::Object();
      Json key_arr = Json::Array();
      for (const Value& v : k) key_arr.Push(ValueToJson(v));
      row.Set("key", std::move(key_arr));
      if (pred->has_cost) row.Set("cost", ValueToJson(cost));
      rows.Push(std::move(row));
    });
  }
  // Default-value cost predicates: a fully-bound miss still has a defined
  // answer — the lattice bottom (Section 2.3.2).
  bool defaulted = false;
  if (rows.arr.empty() && pred->has_default &&
      static_cast<int>(bound_pos.size()) == pred->key_arity()) {
    Json row = Json::Object();
    Json key_arr = Json::Array();
    for (const Value& v : bound_vals) key_arr.Push(ValueToJson(v));
    row.Set("key", std::move(key_arr));
    row.Set("cost", ValueToJson(pred->domain->Bottom()));
    rows.Push(std::move(row));
    defaulted = true;
  }

  Json j = OkResponse("query", snap->epoch);
  j.Set("pred", Json::Str(pred_name));
  j.Set("row_count", Json::Int(static_cast<int64_t>(rows.arr.size())));
  j.Set("rows", std::move(rows));
  // A truncated enumeration is still certified: every returned row is in the
  // snapshot's least model, which is itself ⊑ the live least model.
  j.Set("complete", Json::Bool(!truncated));
  if (defaulted) j.Set("defaulted", Json::Bool(true));
  j.Set("completeness", Json::Str(core::CompletenessName(snap->completeness)));
  if (guard.tripped() != LimitKind::kNone) {
    j.Set("limit_tripped", Json::Str(LimitKindName(guard.tripped())));
  }
  return j;
}

Json ServerState::HandleDemandQuery(const Json& request) {
  auto snap = Pin();
  const std::string atom_text = request.StrOr("atom", "");
  const std::string mode_name = request.StrOr("mode", "auto");
  core::QueryOptions qopts;
  if (mode_name == "auto") {
    qopts.mode = core::QueryOptions::Mode::kAuto;
  } else if (mode_name == "demand") {
    qopts.mode = core::QueryOptions::Mode::kDemand;
  } else if (mode_name == "full") {
    qopts.mode = core::QueryOptions::Mode::kFull;
  } else {
    return ErrorResponse(
        "query", Status::InvalidArgument(StrPrintf(
                     "unknown mode '%s' (want auto, demand or full)",
                     mode_name.c_str())));
  }

  // Answers are a pure function of (snapshot, atom, mode); requests with
  // per-call limits are excluded (their truncation is request-specific).
  const bool memoizable = request.At("limits").is_null();
  const std::string memo_key = atom_text + "|" + mode_name;
  if (memoizable) {
    std::lock_guard<std::mutex> lk(memo_mu_);
    if (memo_epoch_ == snap->epoch) {
      auto it = demand_memo_.find(memo_key);
      if (it != demand_memo_.end()) {
        Json hit = it->second;
        hit.Set("memo_hit", Json::Bool(true));
        return hit;
      }
    }
  }

  // Parse under writer_mu_: the insert path may be implicitly declaring
  // predicates on the Program concurrently, and the parser reads its
  // declaration table. The critical section is the parse only — the
  // evaluation below runs lock-free against the pinned snapshot.
  StatusOr<datalog::Atom> atom = Status::Internal("unparsed");
  {
    std::lock_guard<std::mutex> lk(writer_mu_);
    atom = datalog::ParseQueryAtom(*program_, atom_text);
  }
  if (!atom.ok()) return ErrorResponse("query", atom.status());

  ResourceLimits limits = RequestResourceLimits(request);
  qopts.limits = &limits;
  auto result = engine_->Query(*atom, snap->base.ShareForRead(), qopts);
  if (!result.ok()) return ErrorResponse("query", result.status());

  Json rows = Json::Array();
  for (const datalog::Fact& f : result->rows) {
    Json row = Json::Object();
    Json key_arr = Json::Array();
    for (const Value& v : f.key) key_arr.Push(ValueToJson(v));
    row.Set("key", std::move(key_arr));
    if (f.cost.has_value()) row.Set("cost", ValueToJson(*f.cost));
    rows.Push(std::move(row));
  }

  Json j = OkResponse("query", snap->epoch);
  j.Set("pred", Json::Str(result->pred->name));
  j.Set("mode", Json::Str(mode_name));
  j.Set("adornment", Json::Str(result->adornment));
  j.Set("used_demand", Json::Bool(result->used_demand));
  if (!result->bailout_reason.empty()) {
    j.Set("bailout_reason", Json::Str(result->bailout_reason));
  }
  if (result->cost_widened) j.Set("cost_widened", Json::Bool(true));
  j.Set("row_count", Json::Int(static_cast<int64_t>(rows.arr.size())));
  j.Set("rows", std::move(rows));
  j.Set("stats", EvalStatsToJson(result->stats));
  j.Set("completeness",
        Json::Str(core::CompletenessName(result->completeness)));

  if (memoizable && result->completeness == core::Completeness::kLeastModel) {
    std::lock_guard<std::mutex> lk(memo_mu_);
    if (memo_epoch_ != snap->epoch) {
      demand_memo_.clear();
      memo_epoch_ = snap->epoch;
    }
    demand_memo_[memo_key] = j;
  }
  return j;
}

Json ServerState::HandleInsert(const Json& request) {
  const Json& facts_field = request.At("facts");
  if (!facts_field.is_string()) {
    return ErrorResponse("insert", Status::InvalidArgument(
                                       "'facts' must be a string of fact "
                                       "clauses in .mdl syntax"));
  }
  if (!updates_safe_) {
    return ErrorResponse(
        "insert",
        Status::InvalidArgument(
            "program is not update-safe (negation or pseudo-monotonic "
            "aggregates): incremental inserts are disabled"));
  }

  std::lock_guard<std::mutex> lk(writer_mu_);
  if (poisoned_.load(std::memory_order_acquire)) {
    return ErrorResponse(
        "insert", Status::Internal(
                      "a previous insert failed mid-merge; the working set "
                      "is no longer a certified model — send the 'recover' "
                      "verb to rebuild the writer from the last published "
                      "snapshot, or restart the server"));
  }
  if (degraded_.load(std::memory_order_acquire)) {
    return ErrorResponse(
        "insert",
        Status::DurabilityDegraded(
            "the write-ahead log can no longer persist writes (disk full or "
            "I/O error); writes are refused while reads keep serving — free "
            "space and send the 'recover' verb"));
  }
  // Parsing may implicitly declare unknown predicates on the Program, but
  // readers resolve names against the load-time frozen map, so this is
  // writer-private state.
  auto facts = datalog::ParseFacts(program_.get(), facts_field.str);
  if (!facts.ok()) return ErrorResponse("insert", facts.status());

  // Write-ahead: the batch must be on stable storage before the model moves.
  // An append/fsync failure degrades the server instead of acknowledging a
  // write that a crash could silently lose.
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kInsert;
    rec.epoch = epoch_ + 1;
    rec.facts_text = facts_field.str;
    Status appended = wal_->Append(rec);
    if (!appended.ok()) {
      degraded_.store(true, std::memory_order_release);
      SyncDurabilityCounters();
      return ErrorResponse(
          "insert", Status::DurabilityDegraded(StrPrintf(
                        "WAL append failed (%s); writes are refused while "
                        "reads keep serving — free space and send 'recover'",
                        appended.message().c_str())));
    }
  }

  auto stats =
      engine_->Update(&work_, *facts, RequestResourceLimits(request));
  if (!stats.ok()) {
    // Update merges facts before closing over them, so a failure here can
    // leave the working set under-closed. Refuse further writes; reads keep
    // serving the last published (still sound) snapshot. The abort record
    // tells replay to skip the logged batch — if logging the abort itself
    // fails, recovery replays an unacknowledged batch, which is monotone-
    // sound (at-least-once for failed writes).
    poisoned_.store(true, std::memory_order_release);
    if (wal_ != nullptr) {
      WalRecord abort;
      abort.type = WalRecordType::kAbort;
      abort.epoch = epoch_ + 1;
      Status aborted = wal_->Append(abort);
      if (!aborted.ok()) degraded_.store(true, std::memory_order_release);
      SyncDurabilityCounters();
    }
    return ErrorResponse("insert", stats.status());
  }
  ++epoch_;
  cumulative_facts_.append(facts_field.str);
  cumulative_facts_.push_back('\n');
  history_bytes_.store(static_cast<int64_t>(cumulative_facts_.size()),
                       std::memory_order_relaxed);
  // ParseFacts already validated these against the declarations, so the
  // merge into the demand base cannot fail.
  for (const datalog::Fact& f : *facts) (void)base_facts_.AddFact(f);
  Publish();
  if (wal_ != nullptr) {
    MaybeCheckpoint(/*force=*/false);
    SyncDurabilityCounters();
    if (durability_.fsync == FsyncPolicy::kAlways) {
      std::lock_guard<std::mutex> dlk(dur_mu_);
      dur_.durable_epoch = epoch_;
    }
  }

  Json j = OkResponse("insert", epoch_);
  j.Set("facts_parsed", Json::Int(static_cast<int64_t>(facts->size())));
  j.Set("stats", EvalStatsToJson(*stats));
  j.Set("completeness",
        Json::Str(core::CompletenessName(work_.completeness)));
  if (wal_ != nullptr) {
    j.Set("durable",
          Json::Bool(durability_.fsync == FsyncPolicy::kAlways));
  }
  return j;
}

Json ServerState::HandleSync(const Json& request) {
  std::lock_guard<std::mutex> lk(writer_mu_);
  if (wal_ == nullptr) {
    Json j = OkResponse("sync", epoch_);
    j.Set("durability_enabled", Json::Bool(false));
    return j;
  }
  Status synced = wal_->Sync();
  if (!synced.ok()) {
    degraded_.store(true, std::memory_order_release);
    return ErrorResponse(
        "sync", Status::DurabilityDegraded(StrPrintf(
                    "fsync failed (%s); writes are refused while reads keep "
                    "serving", synced.message().c_str())));
  }
  {
    std::lock_guard<std::mutex> dlk(dur_mu_);
    dur_.durable_epoch = epoch_;
  }
  const Json& ckpt = request.At("checkpoint");
  if (ckpt.is_bool() && ckpt.boolean) MaybeCheckpoint(/*force=*/true);
  SyncDurabilityCounters();
  Json j = OkResponse("sync", epoch_);
  j.Set("durability_enabled", Json::Bool(true));
  j.Set("durable_epoch", Json::Int(epoch_));
  return j;
}

Json ServerState::HandleRecover() {
  std::lock_guard<std::mutex> lk(writer_mu_);
  bool poison_cleared = false;
  bool wal_restored = false;

  if (poisoned_.load(std::memory_order_acquire)) {
    // The published snapshot is exactly the least model of every acknowledged
    // batch (the poisoning batch was never published), so cloning it rebuilds
    // a certified writer state. Clone, not Snapshot: the writer needs its own
    // mutable relations, detached from what readers are pinning.
    auto snap = Pin();
    work_.db = snap->db.Clone();
    work_.completeness = snap->completeness;
    work_.limit_tripped = snap->limit_tripped;
    poisoned_.store(false, std::memory_order_release);
    poison_cleared = true;
  }

  if (degraded_.load(std::memory_order_acquire) && wal_ != nullptr) {
    // The old segment keeps every acknowledged batch (its tail may be torn;
    // recovery truncates that). Rotate to a fresh segment — if the disk is
    // still full this fails and the server stays degraded.
    auto rotated = WalWriter::Create(durability_.data_dir, wal_->seq() + 1,
                                     durability_.fsync, hooks());
    if (rotated.ok()) {
      *wal_ = std::move(rotated).value();
      degraded_.store(false, std::memory_order_release);
      wal_restored = true;
    }
  }
  SyncDurabilityCounters();

  Json j = OkResponse("recover", epoch_);
  j.Set("poison_cleared", Json::Bool(poison_cleared));
  j.Set("wal_restored", Json::Bool(wal_restored));
  j.Set("poisoned", Json::Bool(poisoned_.load(std::memory_order_acquire)));
  j.Set("degraded", Json::Bool(degraded_.load(std::memory_order_acquire)));
  return j;
}

Json ServerState::NotPrimaryResponse(const std::string& verb) const {
  Json j = ErrorResponse(
      verb, Status::NotPrimary(StrPrintf(
                "this node is a read replica of %s:%d; send writes to the "
                "primary",
                replica_.primary_host.c_str(), replica_.primary_port)));
  Json redirect = Json::Object();
  redirect.Set("host", Json::Str(replica_.primary_host));
  redirect.Set("port", Json::Int(replica_.primary_port));
  j.Set("redirect", std::move(redirect));
  return j;
}

Json ServerState::HandleReplSubscribe(const Json& request) {
  if (wal_ == nullptr) {
    return ErrorResponse(
        "repl_subscribe",
        Status::InvalidArgument("replication requires durability: start the "
                                "primary with --data-dir"));
  }
  const int64_t have_epoch = request.IntOr("have_epoch", 0);
  // A probe wants the program and the committed epoch only (madd
  // --replica-of fetches the program this way before it can subscribe for
  // real); skip the gap check so no bootstrap payload is assembled.
  const Json& probe = request.At("probe");
  const bool probe_only = probe.is_bool() && probe.boolean;

  // Does the retained WAL still cover every acknowledged epoch past
  // have_epoch? Acknowledged epochs are dense, so it suffices that the
  // earliest replayable epoch past have_epoch is exactly have_epoch + 1.
  // Otherwise checkpointing pruned part of the gap and the subscriber needs
  // a full-history bootstrap (over-sending is always safe: joins are
  // idempotent). The scan runs *outside* writer_mu_ — it is O(retained
  // history) of disk I/O and must not stall inserts. That makes the verdict
  // racy against a concurrent checkpoint prune, which is why the response
  // anchors streaming to the CONCRETE oldest segment this cursor saw
  // (stream_seq) instead of the floating "oldest available" position {0,0}:
  // a prune that could invalidate the verdict also removes that segment, so
  // the subscriber's next repl_frames reports position_pruned and it comes
  // back here for a fresh verdict, rather than silently resuming past a
  // hole in the stream.
  //
  // The scan must also run BEFORE the (epoch_, cumulative_facts_) snapshot
  // below: the snapshot epoch then upper-bounds every record the scan could
  // have seen, so a record absent from the anchored stream is either old
  // (covered by the bootstrap facts) or was appended after the snapshot (at
  // the tail, position >= stream_seq). The reverse order could prune a
  // post-snapshot record out of both the bootstrap and the stream.
  bool need_bootstrap = false;
  uint64_t stream_seq = 0;
  if (!probe_only) {
    auto cursor = WalCursor::Open(durability_.data_dir);
    if (!cursor.ok()) return ErrorResponse("repl_subscribe", cursor.status());
    if (!cursor->empty()) stream_seq = cursor->segment_seqs().front();
    if (epoch() > have_epoch) {
      auto scan = cursor->Scan(WalPosition{}, 0, 0);
      if (!scan.ok()) return ErrorResponse("repl_subscribe", scan.status());
      ReplaySelection sel =
          SelectReplayRecords(std::move(scan->records), have_epoch);
      need_bootstrap =
          sel.replay.empty() || sel.replay.front().epoch != have_epoch + 1;
    }
  }

  // Under writer_mu_ the (epoch_, cumulative_facts_) pair is mutually
  // consistent; copy both and serialize outside the lock so a large history
  // blocks the writer lane for a memcpy, not for JSON encoding.
  int64_t committed_epoch = 0;
  std::string bootstrap_facts;
  {
    std::lock_guard<std::mutex> lk(writer_mu_);
    committed_epoch = epoch_;
    if (need_bootstrap) bootstrap_facts = cumulative_facts_;
  }

  Json j = OkResponse("repl_subscribe", committed_epoch);
  j.Set("program", Json::Str(program_text_));
  j.Set("program_crc",
        Json::Int(static_cast<int64_t>(util::Crc32c(program_text_))));
  j.Set("fsync_policy", Json::Str(FsyncPolicyName(durability_.fsync)));
  if (need_bootstrap) {
    Json b = Json::Object();
    b.Set("epoch", Json::Int(committed_epoch));
    b.Set("facts", Json::Str(std::move(bootstrap_facts)));
    j.Set("bootstrap", std::move(b));
  }
  // Streaming starts at the oldest segment retained when the gap was
  // checked: re-shipping batches the subscriber already holds is a
  // lattice-join no-op (and the replica's epoch filter drops them without
  // re-deriving), so the position-based protocol needs no epoch-to-offset
  // index. Naming the segment — rather than the symbolic {0,0} start, which
  // can never report position_pruned — turns a prune that races this
  // response into an explicit re-subscribe instead of a silent skip.
  j.Set("seq", Json::Int(static_cast<int64_t>(stream_seq)));
  j.Set("offset", Json::Int(0));

  std::lock_guard<std::mutex> rlk(repl_mu_);
  ++subscribes_served_;
  if (need_bootstrap) ++bootstraps_served_;
  return j;
}

Json ServerState::HandleReplFrames(const Json& request) {
  if (wal_ == nullptr) {
    return ErrorResponse(
        "repl_frames",
        Status::InvalidArgument("replication requires durability: start the "
                                "primary with --data-dir"));
  }
  WalPosition from;
  from.seq = static_cast<uint64_t>(std::max<int64_t>(0, request.IntOr("seq", 0)));
  from.offset = std::max<int64_t>(0, request.IntOr("offset", 0));
  int64_t max_records = request.IntOr("max_records", kDefaultFrameRecords);
  if (max_records <= 0) max_records = kDefaultFrameRecords;
  // Leaves room for the one-record overscan below.
  max_records = std::min(max_records, std::numeric_limits<int64_t>::max() - 1);
  int64_t max_bytes = request.IntOr("max_bytes", kDefaultFrameBytes);
  if (max_bytes <= 0) max_bytes = kDefaultFrameBytes;
  const int64_t wait_ms =
      std::clamp<int64_t>(request.IntOr("wait_ms", 0), 0, kMaxWaitMs);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(wait_ms);

  for (;;) {
    // The committed gate: the log runs ahead of the model (write-ahead), so
    // only records at or below the *published* epoch are shippable — those
    // are exactly the acknowledged batches.
    const int64_t committed = epoch();
    auto cursor = WalCursor::Open(durability_.data_dir);
    if (!cursor.ok()) return ErrorResponse("repl_frames", cursor.status());
    // One-record overscan so the selection's abort-lookahead rule can decide
    // the window-final insert instead of stalling at the cap.
    auto scan = cursor->Scan(from, max_records + 1, max_bytes);
    if (!scan.ok()) return ErrorResponse("repl_frames", scan.status());
    if (scan->position_pruned) {
      // The subscriber's segment was checkpointed away; it must re-subscribe
      // (and typically bootstrap). Never ship from a different position —
      // that would silently skip interior history.
      Json j = OkResponse("repl_frames", committed);
      j.Set("position_pruned", Json::Bool(true));
      return j;
    }
    ShipSelection sel = SelectShippableRecords(*scan, from, committed);

    const bool advanced =
        sel.next.seq != from.seq || sel.next.offset != from.offset;
    if (!sel.records.empty() || advanced || wait_ms == 0 ||
        std::chrono::steady_clock::now() >= deadline) {
      Json records = Json::Array();
      for (const WalRecord& rec : sel.records) {
        Json r = Json::Object();
        r.Set("epoch", Json::Int(rec.epoch));
        r.Set("facts", Json::Str(rec.facts_text));
        r.Set("crc", Json::Int(static_cast<int64_t>(rec.crc)));
        records.Push(std::move(r));
      }
      const int64_t count = static_cast<int64_t>(sel.records.size());
      Json j = OkResponse("repl_frames", committed);
      j.Set("count", Json::Int(count));
      j.Set("records", std::move(records));
      j.Set("seq", Json::Int(static_cast<int64_t>(sel.next.seq)));
      j.Set("offset", Json::Int(sel.next.offset));
      std::lock_guard<std::mutex> rlk(repl_mu_);
      ++frames_served_;
      records_shipped_ += count;
      return j;
    }
    // Long poll: nothing shippable yet. Block until the next publish (or
    // the deadline) instead of making the replica busy-poll an idle log.
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) continue;  // loops once more, then returns
    WaitForEpoch(committed + 1, remaining);
  }
}

Status ServerState::ApplyReplicated(int64_t epoch, const std::string& facts_text) {
  return ApplyShipped(epoch, facts_text, /*bootstrap=*/false);
}

Status ServerState::ApplyBootstrap(int64_t epoch, const std::string& facts_text) {
  return ApplyShipped(epoch, facts_text, /*bootstrap=*/true);
}

Status ServerState::ApplyShipped(int64_t epoch, const std::string& facts_text,
                                 bool bootstrap) {
  if (!replica_.enabled) {
    return Status::InvalidArgument(
        "not a replica: shipped batches are only applied in replica mode");
  }
  std::lock_guard<std::mutex> lk(writer_mu_);
  if (poisoned_.load(std::memory_order_acquire)) {
    return Status::Internal(
        "a previous shipped batch failed mid-merge; the replica's working "
        "set is no longer certified — restart the replica to re-bootstrap");
  }
  // Every reconnect re-streams the whole retained WAL (repl_subscribe hands
  // out no resume position), so already-covered batches arrive again on
  // each session. Committed epochs are dense and never reused, so a batch
  // at or below our epoch is already joined into the model AND recorded in
  // cumulative_facts_: re-applying would be a no-op, but re-appending would
  // grow the history copy without bound. Skip the whole batch.
  if (!bootstrap && epoch <= epoch_) return Status::OK();
  auto facts = datalog::ParseFacts(program_.get(), facts_text);
  if (!facts.ok()) return facts.status();
  ResourceLimits limits;
  limits.cancellation = cancellation_;
  auto stats = engine_->Update(&work_, *facts, limits);
  if (!stats.ok()) {
    // Same discipline as a primary-side mid-merge failure: the working set
    // may be under-closed, so stop applying; reads keep serving the last
    // sound snapshot.
    poisoned_.store(true, std::memory_order_release);
    return stats.status();
  }
  if (epoch > epoch_) epoch_ = epoch;
  if (bootstrap) {
    // The bootstrap IS the full accepted history; stream records past it
    // append below, records at or below its epoch are skipped above.
    cumulative_facts_ = facts_text;
  } else {
    cumulative_facts_.append(facts_text);
    cumulative_facts_.push_back('\n');
  }
  history_bytes_.store(static_cast<int64_t>(cumulative_facts_.size()),
                       std::memory_order_relaxed);
  for (const datalog::Fact& f : *facts) (void)base_facts_.AddFact(f);
  Publish();
  return Status::OK();
}

void ServerState::ReportReplication(const ReplicationProgress& progress) {
  std::lock_guard<std::mutex> lk(repl_mu_);
  repl_ = progress;
}

ServerState::ReplicationProgress ServerState::replication_progress() const {
  std::lock_guard<std::mutex> lk(repl_mu_);
  return repl_;
}

Json ServerState::HandleDump() {
  auto snap = Pin();
  Json j = OkResponse("dump", snap->epoch);
  j.Set("model", Json::Str(snap->db.ToString()));
  j.Set("completeness", Json::Str(core::CompletenessName(snap->completeness)));
  return j;
}

Json ServerState::HandleStats() {
  auto snap = Pin();
  Json j = OkResponse("stats", snap->epoch);
  j.Set("completeness", Json::Str(core::CompletenessName(snap->completeness)));
  j.Set("limit_tripped", Json::Str(LimitKindName(snap->limit_tripped)));
  j.Set("stats", EvalStatsToJson(snap->stats));
  j.Set("total_rows", Json::Int(static_cast<int64_t>(snap->db.TotalRows())));
  j.Set("approx_bytes", Json::Int(snap->db.ApproxBytes()));
  j.Set("strategy",
        Json::Str(core::StrategyName(engine_->options().strategy)));
  j.Set("num_threads", Json::Int(engine_->options().num_threads));
  j.Set("uptime_seconds",
        Json::Double(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count()));
  j.Set("poisoned", Json::Bool(poisoned_.load(std::memory_order_acquire)));
  j.Set("role", Json::Str(replica_.enabled ? "replica" : "primary"));
  j.Set("verbs", latency_.ToJson());

  Json r = Json::Object();
  // Size of the retained insert history (the bootstrap payload). On a
  // replica this must track the primary's, not grow with reconnects.
  r.Set("history_bytes",
        Json::Int(history_bytes_.load(std::memory_order_relaxed)));
  if (replica_.enabled) {
    r.Set("role", Json::Str("replica"));
    r.Set("primary", Json::Str(StrPrintf("%s:%d", replica_.primary_host.c_str(),
                                         replica_.primary_port)));
    std::lock_guard<std::mutex> rlk(repl_mu_);
    r.Set("connected", Json::Bool(repl_.connected));
    r.Set("broken", Json::Bool(repl_.broken));
    r.Set("primary_epoch", Json::Int(repl_.primary_epoch));
    r.Set("lag_epochs",
          Json::Int(std::max<int64_t>(0, repl_.primary_epoch - snap->epoch)));
    r.Set("reconnects", Json::Int(repl_.reconnects));
    r.Set("bootstraps", Json::Int(repl_.bootstraps));
    r.Set("frames_applied", Json::Int(repl_.frames));
    r.Set("records_applied", Json::Int(repl_.records_applied));
    r.Set("crc_failures", Json::Int(repl_.crc_failures));
    if (!repl_.last_error.empty()) {
      r.Set("last_error", Json::Str(repl_.last_error));
    }
  } else {
    r.Set("role", Json::Str("primary"));
    std::lock_guard<std::mutex> rlk(repl_mu_);
    r.Set("subscribes_served", Json::Int(subscribes_served_));
    r.Set("bootstraps_served", Json::Int(bootstraps_served_));
    r.Set("frames_served", Json::Int(frames_served_));
    r.Set("records_shipped", Json::Int(records_shipped_));
  }
  j.Set("replication", std::move(r));

  Json d = Json::Object();
  const bool enabled = !durability_.data_dir.empty();
  d.Set("enabled", Json::Bool(enabled));
  if (enabled) {
    d.Set("data_dir", Json::Str(durability_.data_dir));
    d.Set("fsync_policy", Json::Str(FsyncPolicyName(durability_.fsync)));
    d.Set("degraded", Json::Bool(degraded_.load(std::memory_order_acquire)));
    std::lock_guard<std::mutex> dlk(dur_mu_);
    d.Set("durable_epoch", Json::Int(dur_.durable_epoch));
    d.Set("wal_segment_seq", Json::Int(static_cast<int64_t>(dur_.wal_seq)));
    d.Set("wal_records", Json::Int(dur_.wal_records));
    d.Set("wal_bytes", Json::Int(dur_.wal_bytes));
    d.Set("last_checkpoint_epoch", Json::Int(dur_.last_checkpoint_epoch));
    d.Set("checkpoints_written", Json::Int(dur_.checkpoints_written));
    d.Set("checkpoint_failures", Json::Int(dur_.checkpoint_failures));
    d.Set("replayed_records", Json::Int(dur_.replayed_records));
    d.Set("truncated_tail_records", Json::Int(dur_.truncated_tail_records));
    d.Set("skipped_aborted_batches", Json::Int(dur_.skipped_aborted_batches));
    d.Set("invalid_checkpoints", Json::Int(dur_.invalid_checkpoints));
    d.Set("recovery_seconds", Json::Double(dur_.recovery_seconds));
  }
  j.Set("durability", std::move(d));
  return j;
}

}  // namespace server
}  // namespace mad
