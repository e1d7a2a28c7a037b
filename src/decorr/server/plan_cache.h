// Shared query->prepared-plan cache for the serving layer (DESIGN.md §15).
//
// Keyed by a normalized fingerprint: the SQL text (whitespace-collapsed,
// lowercased outside string literals, trailing semicolons stripped) plus
// exactly the QueryOptions that Database::Prepare reads: strategy, the
// decorrelation knobs, prune_dedup, subquery_cache_bytes (kAuto prices the
// cache) and verify (capture_qgm, also read there, bypasses the cache).
// Everything else is read only after Prepare — planner options, execution
// limits, spill, profile — and every hit is planned and run with the
// caller's own options, so keying on them would only turn hits into
// misses.
//
// Entries store the bound + rewritten + costed PreparedQuery together with
// the catalog statistics epoch that priced it. A lookup at a different epoch
// removes the entry and counts an invalidation, so a kAuto pick never
// outlives the statistics it was costed on. Mutex-sharded by key hash:
// sessions hashing to different shards never contend.
#ifndef DECORR_SERVER_PLAN_CACHE_H_
#define DECORR_SERVER_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "decorr/runtime/database.h"

namespace decorr {

// Counter snapshot for ServerStats, the shell's \plancache and tests.
struct PlanCacheCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;      // capacity-driven LRU evictions
  int64_t invalidations = 0;  // entries dropped on a stats-epoch mismatch
  int64_t entries = 0;        // currently resident
};

// Builds the normalized cache key for `sql` under `options` (rules above).
std::string PlanFingerprint(const std::string& sql,
                            const QueryOptions& options);

class PlanCache {
 public:
  // `max_entries` caps the cache as a whole (0 disables: every lookup
  // misses and inserts are dropped); capacity splits evenly across
  // `shards`, one entry per shard minimum.
  explicit PlanCache(int64_t max_entries, int shards = 8);

  // The cached plan for `key` valid at `epoch`, or nullptr on a miss. An
  // entry priced at a different epoch is removed and counted as an
  // invalidation (and the lookup is a miss — the caller re-prepares and
  // re-inserts). Non-OK only under fault injection
  // ("server.plancache.lookup").
  Result<std::shared_ptr<const PreparedQuery>> Lookup(const std::string& key,
                                                      uint64_t epoch);

  // Inserts (or replaces) `key` -> `plan` prepared at `epoch`, evicting the
  // shard's least-recently-used entry when over capacity. Non-OK only under
  // fault injection ("server.plancache.insert").
  Status Insert(const std::string& key, uint64_t epoch, PreparedQuery plan);

  // Drops every entry (DDL: the table set changed under the plans).
  void Clear();

  PlanCacheCounters counters() const;

  // Human-readable rendering for the shell's \plancache.
  std::string ToString() const;

 private:
  struct Entry {
    std::shared_ptr<const PreparedQuery> plan;
    uint64_t epoch = 0;
    uint64_t last_used = 0;  // shard-local LRU tick
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Entry> entries;
    uint64_t tick = 0;
  };

  Shard& ShardFor(const std::string& key);

  int64_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
};

}  // namespace decorr

#endif  // DECORR_SERVER_PLAN_CACHE_H_
