// The serving layer (DESIGN.md §15): a Server façade over one Database that
// admits N concurrent sessions.
//
// Three pieces:
//   * Admission controller — at most max_concurrent_queries execute at
//     once; up to max_queued_queries wait on a condition variable, polling
//     their own deadline/cancellation so a queued query rejects with the
//     ordinary kDeadlineExceeded/kCancelled codes rather than running late.
//     A full queue rejects immediately with kResourceExhausted. Every
//     per-query MemoryTracker chains into one server-wide tracker, so an
//     aggregate memory budget trips collectively.
//   * Shared plan cache (plan_cache.h) — fingerprinted SQL+options ->
//     PreparedQuery, invalidated by catalog stats-epoch bumps. A hit skips
//     parse/bind/rewrite/cost entirely: the cached graph is cloned and goes
//     straight to the planner.
//   * Snapshot-stable reads — queries hold a shared lock on the data for
//     their whole run; Mutate (loads, DDL, ANALYZE) takes it exclusively.
//     Readers never block readers, and no query observes a half-applied
//     mutation.
#ifndef DECORR_SERVER_SERVER_H_
#define DECORR_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "decorr/runtime/database.h"
#include "decorr/server/plan_cache.h"

namespace decorr {

class Session;

struct ServerOptions {
  // Queries executing at once; admissions past this wait in the queue.
  int max_concurrent_queries = 8;
  // Queries waiting for a slot; past this, admission rejects immediately
  // with kResourceExhausted.
  int max_queued_queries = 32;
  // Aggregate memory budget across every concurrently executing query
  // (0 = unlimited). Trips surface as kResourceExhausted ("server memory
  // budget exceeded") inside whichever query tips the total over.
  int64_t memory_budget_bytes = 0;
  // Plan cache capacity in entries (0 disables caching) and shard count.
  int64_t plan_cache_entries = 256;
  int plan_cache_shards = 8;
};

struct ServerStats {
  int64_t admitted = 0;  // queries that got a slot (incl. after queueing)
  int64_t queued = 0;    // admissions that had to wait for a slot
  int64_t rejected_queue_full = 0;
  int64_t rejected_while_queued = 0;  // deadline/cancel tripped in the queue
  int64_t completed = 0;
  int64_t failed = 0;
  // Queries whose rewrite failed before execution and were re-run under
  // nested iteration (QueryOptions::fallback); counted whether or not the
  // re-run then succeeded.
  int64_t ni_fallbacks = 0;
  int active_queries = 0;
  int queued_queries = 0;
  int64_t aggregate_memory_peak = 0;
  PlanCacheCounters plan_cache;
};

// How a session runs one statement; mirrors the Database entry points.
enum class RunMode { kExecute, kExplain, kExplainAnalyze };

class Server {
 public:
  // Serves a fresh, empty Database (load via Mutate).
  explicit Server(ServerOptions options = {});
  // Serves an existing catalog (e.g. Database::shared_catalog() of an
  // already-loaded instance).
  Server(ServerOptions options, std::shared_ptr<Catalog> catalog);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Opens a session. Sessions are shared_ptr so client threads own their
  // lifetime; the server tracks them weakly for \sessions. Sessions must
  // not outlive the server. `name` is display-only.
  std::shared_ptr<Session> Connect(std::string name = "");

  // Exclusive access for loads / DDL / ANALYZE: waits for every in-flight
  // query to finish, runs `fn` against the underlying Database, then
  // resumes. When `fn` changed the set of tables the plan cache is cleared
  // wholesale (cached plans pin TablePtrs); statistics-only changes are
  // invalidated lazily, per entry, by the stats-epoch check.
  Status Mutate(const std::function<Status(Database&)>& fn);

  const Catalog& catalog() const { return db_.catalog(); }

  ServerStats stats() const;
  std::string DescribeSessions() const;   // the shell's \sessions
  std::string DescribePlanCache() const;  // the shell's \plancache

 private:
  friend class Session;

  // The full per-query path: guard setup, admission, kAuto stats
  // pre-refresh, shared-lock snapshot, cached or cold execution, NI
  // fallback, slot release.
  Result<QueryResult> RunForSession(Session* session, const std::string& sql,
                                    QueryOptions options, RunMode mode);

  // Cache-aware execution; runs under the shared data lock with an
  // admission slot held.
  Result<QueryResult> RunAdmitted(const std::string& sql,
                                  const QueryOptions& options, bool execute,
                                  ResourceGuard* guard);

  // Blocks until a slot frees (or the guard's deadline/cancellation trips),
  // rejecting immediately when the wait queue is full.
  Status Admit(ResourceGuard* guard);
  void ReleaseSlot();

  // kAuto prices plans from statistics; refreshing them mutates the
  // catalog, so it happens under the exclusive lock *before* the query
  // takes its read snapshot (Prepare then runs with
  // refresh_stale_stats=false and stays read-only).
  Status RefreshStaleStats();

  ServerOptions options_;
  Database db_;
  PlanCache plan_cache_;

  // Admission controller state.
  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  int active_ = 0;
  int waiting_ = 0;

  // Queries shared, Mutate exclusive.
  mutable std::shared_mutex data_mu_;

  // Aggregate memory accounting; budget from options_.
  MemoryTracker total_memory_;

  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> queued_{0};
  std::atomic<int64_t> rejected_queue_full_{0};
  std::atomic<int64_t> rejected_while_queued_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> ni_fallbacks_{0};

  mutable std::mutex sessions_mu_;
  std::vector<std::weak_ptr<Session>> sessions_;
  int next_session_id_ = 1;
};

}  // namespace decorr

#endif  // DECORR_SERVER_SERVER_H_
