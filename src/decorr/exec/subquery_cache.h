// Per-query memoization of correlated subquery results (the NI+C baseline
// of Guravannavar & Sudarshan): ApplyOp and LateralJoinOp key each inner
// invocation on the tuple of bound correlation values and replay the
// materialized inner result when the same binding recurs, instead of
// re-opening the inner plan.
//
// Key semantics match HashJoinOp's null-safe (<=>) equality: keys hash and
// compare with Value::Hash/Equals, so NULL bindings collide with NULL
// bindings (NULL == NULL for memoization purposes — the inner plan would
// produce the identical result either way) and INT64 4 matches DOUBLE 4.0.
//
// Memory: every entry is charged against the query's MemoryTracker and
// counted against the cache's own byte budget; inserting past the budget
// evicts least-recently-used entries first. Entries hand out
// shared_ptr<const vector<Row>> so an eviction can never invalidate rows a
// caller is still iterating. One cache instance belongs to one operator,
// and a query runs on one thread — no cross-thread sharing, no locks.
#ifndef DECORR_EXEC_SUBQUERY_CACHE_H_
#define DECORR_EXEC_SUBQUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "decorr/common/resource.h"
#include "decorr/common/status.h"
#include "decorr/common/value.h"
#include "decorr/exec/metrics.h"

namespace decorr {

// LRU map from a correlation-binding key to a materialized inner result
// set. `budget_bytes` <= 0 disables the cache entirely (every Lookup
// misses, every Insert declines).
class BindingKeyCache {
 public:
  // `guard` (optional) is charged for every resident entry and released on
  // eviction / Clear / destruction. `metrics` (optional) receives
  // cache_hits / cache_misses / cache_evictions increments.
  BindingKeyCache(int64_t budget_bytes, ResourceGuard* guard,
                  OperatorMetrics* metrics);
  ~BindingKeyCache();

  BindingKeyCache(const BindingKeyCache&) = delete;
  BindingKeyCache& operator=(const BindingKeyCache&) = delete;

  // Sets *out to the cached result set for `key` (marking it most recently
  // used), or to nullptr on a miss. Non-OK only under fault injection.
  Status Lookup(const Row& key, std::shared_ptr<const std::vector<Row>>* out);

  // Takes ownership of `rows` and of `charged_bytes` already charged to the
  // guard for them (the CollectRows charge-transfer pattern). Always hands
  // the rows back through *out for immediate use; whether they were actually
  // retained depends on the budget — an entry larger than the whole budget,
  // or one whose additional key charge trips the query memory budget, is
  // declined (its charge released immediately, *out still valid). Evicts
  // LRU entries until the new entry fits. Non-OK only under fault injection
  // (the charge is released and nothing is retained, so a failed insert can
  // never leave a partial entry behind).
  Status Insert(const Row& key, std::vector<Row> rows, int64_t charged_bytes,
                std::shared_ptr<const std::vector<Row>>* out);

  // Drops every entry and releases all guard charges.
  void Clear();

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }
  int64_t entries() const { return static_cast<int64_t>(map_.size()); }
  int64_t bytes_used() const { return bytes_used_; }
  int64_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Entry {
    Row key;
    std::shared_ptr<const std::vector<Row>> rows;
    int64_t bytes = 0;  // rows charge + key charge, released on eviction
  };

  void EvictOne();

  int64_t budget_bytes_;
  ResourceGuard* guard_;
  OperatorMetrics* metrics_;

  // Front of the list = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<Row, std::list<Entry>::iterator, RowHash, RowEq> map_;
  int64_t bytes_used_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace decorr

#endif  // DECORR_EXEC_SUBQUERY_CACHE_H_
