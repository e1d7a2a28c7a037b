#include "decorr/server/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/server/session.h"

namespace decorr {

Server::Server(ServerOptions options)
    : Server(std::move(options), std::make_shared<Catalog>()) {}

Server::Server(ServerOptions options, std::shared_ptr<Catalog> catalog)
    : options_(std::move(options)),
      db_(std::move(catalog)),
      plan_cache_(options_.plan_cache_entries, options_.plan_cache_shards) {
  if (options_.max_concurrent_queries < 1) {
    options_.max_concurrent_queries = 1;
  }
  if (options_.max_queued_queries < 0) options_.max_queued_queries = 0;
  total_memory_.set_scope("server memory");
  if (options_.memory_budget_bytes > 0) {
    total_memory_.set_budget(options_.memory_budget_bytes);
  }
}

std::shared_ptr<Session> Server::Connect(std::string name) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  // Disconnected (expired) sessions age out of the registry here.
  sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                 [](const std::weak_ptr<Session>& weak) {
                                   return weak.expired();
                                 }),
                  sessions_.end());
  std::shared_ptr<Session> session(
      new Session(this, next_session_id_++, std::move(name)));
  sessions_.push_back(session);
  return session;
}

Status Server::Mutate(const std::function<Status(Database&)>& fn) {
  std::unique_lock<std::shared_mutex> lock(data_mu_);
  const std::vector<std::string> tables_before = db_.catalog().TableNames();
  Status st = fn(db_);
  if (db_.catalog().TableNames() != tables_before) {
    // DDL: cached plans pin TablePtrs of the old table set. Epoch checks
    // don't cover creation/drop, so clear wholesale.
    plan_cache_.Clear();
  }
  return st;
}

Status Server::Admit(ResourceGuard* guard) {
  DECORR_FAULT_POINT("server.admit");
  std::unique_lock<std::mutex> lock(admit_mu_);
  if (active_ < options_.max_concurrent_queries) {
    ++active_;
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  if (waiting_ >= options_.max_queued_queries) {
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(StrFormat(
        "admission queue full: %d active, %d queued (limits %d/%d)", active_,
        waiting_, options_.max_concurrent_queries,
        options_.max_queued_queries));
  }
  ++waiting_;
  queued_.fetch_add(1, std::memory_order_relaxed);
  Status st;
  while (active_ >= options_.max_concurrent_queries) {
    // Deadline-aware wait: poll the guard each wakeup so a queued query
    // rejects with its ordinary kDeadlineExceeded/kCancelled code instead
    // of starting late. CheckNow is unstrided — the stride sampler would
    // let a deadline slip by kDeadlineStride wakeups here.
    admit_cv_.wait_for(lock, std::chrono::milliseconds(1));
    st = guard->CheckNow();
    if (!st.ok()) break;
  }
  --waiting_;
  if (!st.ok()) {
    rejected_while_queued_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  ++active_;
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Server::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    --active_;
  }
  admit_cv_.notify_one();
}

Status Server::RefreshStaleStats() {
  bool any_stale = false;
  {
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    for (const std::string& name : db_.catalog().TableNames()) {
      if (db_.catalog().StatsStale(name)) {
        any_stale = true;
        break;
      }
    }
  }
  if (!any_stale) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(data_mu_);
  for (const std::string& name : db_.catalog().TableNames()) {
    if (!db_.catalog().StatsStale(name)) continue;
    DECORR_RETURN_IF_ERROR(db_.catalog().RefreshStats(name));
  }
  return Status::OK();
}

Result<QueryResult> Server::RunForSession(Session* session,
                                          const std::string& sql,
                                          QueryOptions options, RunMode mode) {
  if (mode == RunMode::kExplainAnalyze) options.profile = true;
  const bool execute = mode != RunMode::kExplain;

  ResourceGuard guard;
  // Armed before admission: the deadline covers queue time.
  ArmGuard(options.limits, &guard);
  if (!options.limits.cancel) guard.set_cancel(session->cancel_token());
  guard.memory().set_parent(&total_memory_);
  DECORR_RETURN_IF_ERROR(guard.CheckNow());

  Status admitted = Admit(&guard);
  if (!admitted.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return admitted;
  }
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (options.strategy == Strategy::kAuto) {
      DECORR_RETURN_IF_ERROR(RefreshStaleStats());
    }
    // The snapshot: data is immutable for the rest of this query.
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    return RunAdmitted(sql, options, execute, &guard);
  }();
  ReleaseSlot();
  (result.ok() ? completed_ : failed_).fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<QueryResult> Server::RunAdmitted(const std::string& sql,
                                        const QueryOptions& options,
                                        bool execute, ResourceGuard* guard) {
  // QGM captures are recorded at prepare time only; serving them from a hit
  // would be fine, but a *cold* capture differs (it reflects this run), so
  // the debug path simply bypasses the cache.
  const bool cacheable =
      options_.plan_cache_entries > 0 && !options.capture_qgm;
  bool plan_ready = false;
  bool was_hit = false;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (cacheable) {
      // The epoch is frozen while we hold the shared lock: stats refreshes
      // only happen under the exclusive lock.
      const uint64_t epoch = db_.catalog().stats_epoch();
      const std::string key = PlanFingerprint(sql, options);
      DECORR_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> hit,
                              plan_cache_.Lookup(key, epoch));
      if (hit != nullptr) {
        was_hit = true;
        // Planning destroys its input graph, so every execution gets a
        // private clone; the cached entry itself is immutable and shared.
        PreparedQuery run = hit->Clone();
        // The front-end phases genuinely did not run for this query.
        run.parse_nanos = 0;
        run.bind_nanos = 0;
        run.rewrite_nanos = 0;
        return db_.RunPrepared(std::move(run), options, execute, guard,
                               /*plan_cache_hit=*/true, &plan_ready);
      }
      DECORR_ASSIGN_OR_RETURN(
          PreparedQuery pq,
          db_.Prepare(sql, options, guard, /*refresh_stale_stats=*/false));
      // Insert before running (even EXPLAIN warms the cache); the entry
      // keeps the original, the run consumes a clone. pq.stats_epoch ==
      // epoch here — see the freeze note above.
      DECORR_RETURN_IF_ERROR(
          plan_cache_.Insert(key, pq.stats_epoch, pq.Clone()));
      return db_.RunPrepared(std::move(pq), options, execute, guard,
                             /*plan_cache_hit=*/false, &plan_ready);
    }
    DECORR_ASSIGN_OR_RETURN(
        PreparedQuery pq,
        db_.Prepare(sql, options, guard, /*refresh_stale_stats=*/false));
    return db_.RunPrepared(std::move(pq), options, execute, guard,
                           /*plan_cache_hit=*/false, &plan_ready);
  }();
  // Transparent NI fallback, mirroring Database::Run: prepare-phase
  // failures only, never after the plan was verified, and never from a hit
  // (a cached plan already prepared cleanly once). Fallback results are not
  // cached — the cache must hold what the fingerprinted options ask for.
  if (!result.ok() && options.fallback && !plan_ready && !was_hit &&
      options.strategy != Strategy::kNestedIteration &&
      NiFallbackEligible(result.status())) {
    const Status failure = result.status();
    ni_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    QueryOptions ni = options;
    ni.strategy = Strategy::kNestedIteration;
    auto retry = [&]() -> Result<QueryResult> {
      DECORR_ASSIGN_OR_RETURN(
          PreparedQuery pq,
          db_.Prepare(sql, ni, guard, /*refresh_stale_stats=*/false));
      return db_.RunPrepared(std::move(pq), ni, execute, guard,
                             /*plan_cache_hit=*/false);
    };
    result = retry();
    if (result.ok()) {
      result->fallback_reason = NiFallbackReason(options.strategy, failure);
    }
  }
  if (result.ok()) RecordGuardUsage(*guard, &result->stats);
  return result;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.queued = queued_.load(std::memory_order_relaxed);
  s.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_while_queued =
      rejected_while_queued_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.ni_fallbacks = ni_fallbacks_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    s.active_queries = active_;
    s.queued_queries = waiting_;
  }
  s.aggregate_memory_peak = total_memory_.peak();
  s.plan_cache = plan_cache_.counters();
  return s;
}

std::string Server::DescribeSessions() const {
  std::string out;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const std::weak_ptr<Session>& weak : sessions_) {
    std::shared_ptr<Session> session = weak.lock();
    if (!session) continue;
    const std::string err = session->last_error();
    out += StrFormat(
        "session %d%s%s%s: %lld queries (%d active), %lld errors%s%s\n",
        session->id(), session->name().empty() ? "" : " [",
        session->name().c_str(), session->name().empty() ? "" : "]",
        (long long)session->queries(), session->active(),
        (long long)session->errors(), err.empty() ? "" : ", last: ",
        err.c_str());
  }
  if (out.empty()) out = "no sessions\n";
  return out;
}

std::string Server::DescribePlanCache() const { return plan_cache_.ToString(); }

}  // namespace decorr
