#include "decorr/server/plan_cache.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <utility>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"

namespace decorr {

namespace {

// Whitespace-collapses and lowercases `sql` outside single-quoted string
// literals, and strips trailing semicolons — "SELECT 1;" and "select  1"
// fingerprint identically, while 'BRASS' and 'brass' stay distinct.
std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (char c : sql) {
    if (in_string) {
      out.push_back(c);
      if (c == '\'') in_string = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    if (c == '\'') {
      in_string = true;
      out.push_back(c);
      continue;
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

}  // namespace

std::string PlanFingerprint(const std::string& sql,
                            const QueryOptions& options) {
  // 0x1f separates the SQL from the option block so no SQL text can collide
  // with an option spelling.
  return NormalizeSql(sql) +
         StrFormat("\x1f"
                   "s=%s|prune=%d|cache=%lld|verify=%d|oj=%d|ex=%d",
                   StrategyName(options.strategy),
                   options.prune_dedup ? 1 : 0,
                   (long long)options.subquery_cache_bytes,
                   options.verify ? 1 : 0,
                   options.decorr.use_outer_join ? 1 : 0,
                   options.decorr.decorrelate_existentials ? 1 : 0);
}

PlanCache::PlanCache(int64_t max_entries, int shards) {
  if (shards < 1) shards = 1;
  if (max_entries > 0) {
    per_shard_capacity_ =
        std::max<int64_t>(1, max_entries / shards);
    shards_.reserve(static_cast<size_t>(shards));
    for (int i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

Result<std::shared_ptr<const PreparedQuery>> PlanCache::Lookup(
    const std::string& key, uint64_t epoch) {
  DECORR_FAULT_POINT("server.plancache.lookup");
  if (shards_.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<const PreparedQuery>();
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<const PreparedQuery>();
  }
  if (it->second.epoch != epoch) {
    // The statistics moved under the plan: a kAuto pick (or any costed
    // annotation) may be stale. Drop it; the caller re-prepares.
    shard.entries.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<const PreparedQuery>();
  }
  it->second.last_used = ++shard.tick;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const PreparedQuery>(it->second.plan);
}

Status PlanCache::Insert(const std::string& key, uint64_t epoch,
                         PreparedQuery plan) {
  DECORR_FAULT_POINT("server.plancache.insert");
  if (shards_.empty()) return Status::OK();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = shard.entries[key];
  entry.plan = std::make_shared<const PreparedQuery>(std::move(plan));
  entry.epoch = epoch;
  entry.last_used = ++shard.tick;
  while (static_cast<int64_t>(shard.entries.size()) > per_shard_capacity_) {
    auto victim = shard.entries.begin();
    for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    shard.entries.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void PlanCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
  }
}

PlanCacheCounters PlanCache::counters() const {
  PlanCacheCounters out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.entries += static_cast<int64_t>(shard->entries.size());
  }
  return out;
}

std::string PlanCache::ToString() const {
  const PlanCacheCounters c = counters();
  std::string out = StrFormat(
      "plan cache: %lld entries, %lld hits, %lld misses, %lld evictions, "
      "%lld invalidations\n",
      (long long)c.entries, (long long)c.hits, (long long)c.misses,
      (long long)c.evictions, (long long)c.invalidations);
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    for (const auto& [key, entry] : shards_[i]->entries) {
      const size_t cut = key.find('\x1f');
      std::string sql = key.substr(0, cut);
      if (sql.size() > 60) sql = sql.substr(0, 57) + "...";
      out += StrFormat("  [shard %zu] epoch %llu, %s: %s\n", i,
                       (unsigned long long)entry.epoch,
                       StrategyName(entry.plan->effective), sql.c_str());
    }
  }
  return out;
}

}  // namespace decorr
