// The serving-layer battery (DESIGN.md §15): session lifecycle, the
// admission controller's three outcomes (run now, queue, reject), the
// aggregate memory budget, the shared plan cache's hit/miss/evict/invalidate
// counters against hand-computed expectations, stats-epoch invalidation of
// kAuto plans, the front-end-skip contract on cache hits, and the
// concurrency stress sweep: N sessions racing the randomized property-diff
// corpus through one Server, every result multiset-identical to
// single-session nested iteration. Runs in the ASan and TSan CI lanes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "decorr/common/fault.h"
#include "decorr/runtime/database.h"
#include "decorr/server/server.h"
#include "decorr/server/session.h"
#include "tests/property_diff_corpus.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

// Polls `pred` for up to `timeout_ms`; true as soon as it holds.
bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// Loads a table whose triple self-join runs long enough (27M nested-loop
// probes) that the admission tests can observe a query mid-flight and then
// cancel it; every use cancels, so no test actually pays the full runtime.
Status LoadBigTable(Database& db) {
  DECORR_RETURN_IF_ERROR(db.CreateTable(TableSchema(
      "big", {{"id", TypeId::kInt64, false}, {"v", TypeId::kInt64, false}},
      /*primary_key=*/{0})));
  std::vector<Row> rows;
  for (int64_t i = 0; i < 300; ++i) rows.push_back({I(i), I(i % 97)});
  DECORR_RETURN_IF_ERROR(db.Insert("big", rows));
  return db.AnalyzeAll();
}

// Non-equi joins keep the planner on nested loops: ~300^3 probes.
constexpr const char* kLongQuery =
    "SELECT COUNT(*) FROM big a, big b, big c "
    "WHERE a.v < b.v AND b.v < c.v AND a.v + b.v + c.v < 0";

TEST(ServerTest, SessionLifecycleAndCounters) {
  Server server({}, MakeEmpDeptCatalog());
  auto alice = server.Connect("alice");
  auto bob = server.Connect("bob");
  EXPECT_EQ(alice->id(), 1);
  EXPECT_EQ(bob->id(), 2);

  alice->options().strategy = Strategy::kMagic;
  auto r = alice->Execute(kPaperExampleQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> names;
  for (const Row& row : r->rows) names.emplace_back(row[0].string_value());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, PaperExampleAnswers());

  auto bad = bob->Execute("SELECT nonsense FROM nowhere");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(alice->queries(), 1);
  EXPECT_EQ(alice->errors(), 0);
  EXPECT_EQ(bob->queries(), 1);
  EXPECT_EQ(bob->errors(), 1);
  EXPECT_FALSE(bob->last_error().empty());

  const std::string sessions = server.DescribeSessions();
  EXPECT_NE(sessions.find("session 1 [alice]: 1 queries"), std::string::npos)
      << sessions;
  EXPECT_NE(sessions.find("session 2 [bob]"), std::string::npos) << sessions;

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.active_queries, 0);

  // Disconnect: a dropped session ages out of the registry.
  bob.reset();
  EXPECT_EQ(server.DescribeSessions().find("bob"), std::string::npos);
}

TEST(ServerTest, PreparedStatementsRideTheSharedPlanCache) {
  Server server({}, MakeEmpDeptCatalog());
  auto session = server.Connect();
  session->options().strategy = Strategy::kMagic;

  ASSERT_TRUE(session->Prepare("paper", kPaperExampleQuery).ok());
  EXPECT_EQ(session->PreparedNames(), std::vector<std::string>{"paper"});
  // Prepare planned (EXPLAIN) and seeded the shared cache; executing the
  // statement is a pure hit.
  const int64_t hits_before = server.stats().plan_cache.hits;
  auto r = session->ExecutePrepared("paper");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);
  EXPECT_TRUE(r->profile.plan_cache_hit);
  EXPECT_EQ(server.stats().plan_cache.hits, hits_before + 1);

  auto missing = session->ExecutePrepared("nope");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // A malformed statement fails at Prepare and is not registered.
  EXPECT_FALSE(session->Prepare("bad", "SELECT FROM FROM").ok());
  EXPECT_EQ(session->PreparedNames(), std::vector<std::string>{"paper"});
}

TEST(ServerTest, AdmissionQueuesBeyondConcurrencyLimit) {
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 4;
  Server server(options);
  ASSERT_TRUE(
      server.Mutate([](Database& db) { return LoadBigTable(db); }).ok());

  auto slow = server.Connect("slow");
  auto fast = server.Connect("fast");
  Status slow_status = Status::OK();
  std::thread holder([&] {
    auto r = slow->Execute(kLongQuery);
    slow_status = r.status();
  });
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_queries == 1; }));

  Status fast_status = Status::OK();
  std::thread waiter([&] {
    auto r = fast->Execute("SELECT COUNT(*) FROM big");
    fast_status = r.status();
  });
  // The second query must queue behind the held slot, not run.
  ASSERT_TRUE(WaitFor([&] { return server.stats().queued_queries == 1; }));
  EXPECT_EQ(server.stats().active_queries, 1);

  slow->Cancel();
  holder.join();
  waiter.join();
  EXPECT_EQ(slow_status.code(), StatusCode::kCancelled)
      << slow_status.ToString();
  ASSERT_TRUE(fast_status.ok()) << fast_status.ToString();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queued, 1);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.rejected_queue_full, 0);
  EXPECT_EQ(stats.rejected_while_queued, 0);
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.queued_queries, 0);
}

TEST(ServerTest, AdmissionRejectsWhenQueueFull) {
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 0;  // no waiting room at all
  Server server(options);
  ASSERT_TRUE(
      server.Mutate([](Database& db) { return LoadBigTable(db); }).ok());

  auto slow = server.Connect();
  auto fast = server.Connect();
  std::thread holder([&] { (void)slow->Execute(kLongQuery); });
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_queries == 1; }));

  auto rejected = fast->Execute("SELECT COUNT(*) FROM big");
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("admission queue full"),
            std::string::npos)
      << rejected.status().ToString();

  slow->Cancel();
  holder.join();
  EXPECT_EQ(server.stats().rejected_queue_full, 1);
  EXPECT_EQ(fast->errors(), 1);
}

TEST(ServerTest, QueuedQueryHonorsItsDeadline) {
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 4;
  Server server(options);
  ASSERT_TRUE(
      server.Mutate([](Database& db) { return LoadBigTable(db); }).ok());

  auto slow = server.Connect();
  auto fast = server.Connect();
  std::thread holder([&] { (void)slow->Execute(kLongQuery); });
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_queries == 1; }));

  // The deadline starts before admission, so it covers queue time: this
  // query times out while waiting and never runs.
  QueryOptions bounded;
  bounded.limits.timeout_micros = 50 * 1000;
  auto expired = fast->Execute("SELECT COUNT(*) FROM big", bounded);
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded)
      << expired.status().ToString();

  slow->Cancel();
  holder.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_while_queued, 1);
  EXPECT_EQ(stats.queued, 1);
  EXPECT_EQ(stats.admitted, 1);  // only the holder ever got the slot
}

TEST(ServerTest, AggregateMemoryBudgetTripsCollectively) {
  // A 1-byte server-wide budget trips on the first charge of any query even
  // though the query itself sets no per-query limit — the per-query tracker
  // chains into the server tracker, whose scope labels the error.
  ServerOptions options;
  options.memory_budget_bytes = 1;
  Server server(options, MakeEmpDeptCatalog());
  auto session = server.Connect();
  auto r = session->Execute(
      "SELECT COUNT(*) FROM (SELECT DISTINCT building FROM emp) AS t(b)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("server memory budget exceeded"),
            std::string::npos)
      << r.status().ToString();

  // The same query on an unbudgeted server is fine, and a per-query trip
  // keeps its per-query wording — the two failure modes stay tellable.
  Server unbudgeted({}, MakeEmpDeptCatalog());
  auto s2 = unbudgeted.Connect();
  auto ok = s2->Execute(
      "SELECT COUNT(*) FROM (SELECT DISTINCT building FROM emp) AS t(b)");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  QueryOptions tight;
  tight.limits.memory_budget_bytes = 1;
  auto per_query = s2->Execute(
      "SELECT COUNT(*) FROM (SELECT DISTINCT building FROM emp) AS t(b)",
      tight);
  ASSERT_FALSE(per_query.ok());
  EXPECT_NE(per_query.status().message().find("memory budget exceeded"),
            std::string::npos);
  EXPECT_EQ(per_query.status().message().find("server memory"),
            std::string::npos)
      << per_query.status().ToString();
}

TEST(ServerTest, PlanCacheCountersMatchHandComputedExpectations) {
  ServerOptions options;
  options.plan_cache_entries = 2;
  options.plan_cache_shards = 1;  // single shard: LRU order is global
  Server server(options, MakeEmpDeptCatalog());
  auto session = server.Connect();
  session->options().strategy = Strategy::kMagic;

  const std::string q1 = "SELECT name FROM dept WHERE budget > 1000";
  const std::string q2 = "SELECT name FROM emp WHERE salary > 50";
  const std::string q3 = "SELECT COUNT(*) FROM emp";
  auto counters = [&] { return server.stats().plan_cache; };

  ASSERT_TRUE(session->Execute(q1).ok());  // miss, insert q1      (tick 1)
  ASSERT_TRUE(session->Execute(q1).ok());  // hit                  (tick 2)
  // Normalization: case and whitespace changes outside string literals
  // fingerprint identically — this is still q1.
  ASSERT_TRUE(
      session->Execute("select  NAME from DEPT\nwhere budget > 1000;").ok());
  EXPECT_EQ(counters().hits, 2);
  EXPECT_EQ(counters().misses, 1);
  EXPECT_EQ(counters().entries, 1);

  ASSERT_TRUE(session->Execute(q2).ok());  // miss, insert q2      (tick 4)
  EXPECT_EQ(counters().entries, 2);
  ASSERT_TRUE(session->Execute(q3).ok());  // miss; evicts q1 (LRU, tick 3)
  EXPECT_EQ(counters().evictions, 1);
  EXPECT_EQ(counters().entries, 2);
  ASSERT_TRUE(session->Execute(q1).ok());  // miss again; evicts q2 (tick 4)
  EXPECT_EQ(counters().misses, 4);
  EXPECT_EQ(counters().evictions, 2);
  ASSERT_TRUE(session->Execute(q3).ok());  // q3 survived: hit
  EXPECT_EQ(counters().hits, 3);

  // Different relevant options -> different fingerprint, not a hit.
  QueryOptions unpruned = session->options();
  unpruned.prune_dedup = !unpruned.prune_dedup;
  ASSERT_TRUE(session->Execute(q3, unpruned).ok());
  EXPECT_EQ(counters().hits, 3);
  EXPECT_EQ(counters().misses, 5);

  const std::string rendered = server.DescribePlanCache();
  EXPECT_NE(rendered.find("plan cache: 2 entries"), std::string::npos)
      << rendered;
}

TEST(ServerTest, PlannerOptionsShareOnePreparedQuery) {
  // Prepare never reads the planner options, and every hit is planned with
  // the caller's own: a run that differs only in one must hit, and still
  // get that option's plan.
  Server server({}, MakeEmpDeptCatalog());
  auto session = server.Connect();
  QueryOptions recompute;
  recompute.strategy = Strategy::kMagic;
  QueryOptions materialize = recompute;
  materialize.planner.materialize_common_subexpressions = true;
  auto cold = session->Explain(kPaperExampleQuery, recompute);
  auto hit = session->Explain(kPaperExampleQuery, materialize);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_FALSE(cold->profile.plan_cache_hit);
  EXPECT_TRUE(hit->profile.plan_cache_hit);
  EXPECT_EQ(server.stats().plan_cache.hits, 1);
  EXPECT_EQ(server.stats().plan_cache.entries, 1);
  EXPECT_EQ(cold->plan_text.find("CachedMaterialize"), std::string::npos)
      << cold->plan_text;
  Database db(MakeEmpDeptCatalog());
  auto uncached = db.Explain(kPaperExampleQuery, materialize);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_NE(uncached->plan_text.find("CachedMaterialize"), std::string::npos)
      << uncached->plan_text;
  EXPECT_EQ(hit->plan_text, uncached->plan_text);
}

TEST(ServerTest, FinishedQueriesHandTheirMemoryBackToTheServer) {
  // OptMag's shared subplan holds its rows' charge until the query ends,
  // and a failed Open leaves the charges of the operators opened before it;
  // neither may stay on the server's aggregate tracker once the query is
  // over, so repeated runs peak where the first one did.
  QueryOptions optmag;
  optmag.strategy = Strategy::kOptMagic;
  {
    Server server({}, MakeEmpDeptCatalog());
    auto session = server.Connect();
    ASSERT_TRUE(session->Execute(kPaperExampleQuery, optmag).ok());
    const int64_t first_peak = server.stats().aggregate_memory_peak;
    ASSERT_GT(first_peak, 0);
    for (int run = 0; run < 9; ++run) {
      auto r = session->Execute(kPaperExampleQuery, optmag);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    EXPECT_EQ(server.stats().aggregate_memory_peak, first_peak);
  }
  QueryOptions mag;
  mag.strategy = Strategy::kMagic;
  mag.fallback = false;
  Server server({}, MakeEmpDeptCatalog());
  auto session = server.Connect();
  ASSERT_TRUE(session->Execute(kPaperExampleQuery, mag).ok());
  const int64_t first_peak = server.stats().aggregate_memory_peak;
  ASSERT_GT(first_peak, 0);
  FaultInjector::Global().Arm("exec.aggregate.open",
                              Status::Internal("injected"));
  auto failed = session->Execute(kPaperExampleQuery, mag);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(failed.ok());
  for (int run = 0; run < 3; ++run) {
    auto r = session->Execute(kPaperExampleQuery, mag);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(server.stats().aggregate_memory_peak, first_peak);
}

TEST(ServerTest, FallbackResultsAreNeverCached) {
  Server server({}, MakeEmpDeptCatalog());
  auto session = server.Connect();
  // Kim only handles aggregate comparisons: it declines EXISTS with
  // kNotImplemented, and the fallback re-runs under NI. Neither the failed
  // prepare nor the NI fallback may land in the cache under Kim's key.
  QueryOptions kim;
  kim.strategy = Strategy::kKim;
  const std::string sql =
      "SELECT d.name FROM dept d WHERE EXISTS "
      "(SELECT 1 FROM emp e WHERE e.building = d.building)";
  for (int pass = 0; pass < 2; ++pass) {
    auto r = session->Execute(sql, kim);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->fallback_reason.empty());
    EXPECT_FALSE(r->profile.plan_cache_hit);
  }
  EXPECT_EQ(server.stats().plan_cache.hits, 0);
  EXPECT_EQ(server.stats().plan_cache.misses, 2);
  EXPECT_EQ(server.stats().plan_cache.entries, 0);
}

TEST(ServerTest, ResultsReportTheStrategyThatRanAndFallbacksAreCounted) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Reset();
  Server server({}, MakeEmpDeptCatalog());
  auto session = server.Connect();
  QueryOptions automatic;
  automatic.strategy = Strategy::kAuto;  // fallback defaults on
  // An Auto query reports its pick, the strategy EXPLAIN's note names.
  auto picked = session->Execute(kPaperExampleQuery, automatic);
  ASSERT_TRUE(picked.ok()) << picked.status().ToString();
  EXPECT_NE(picked->effective_strategy, Strategy::kAuto);
  EXPECT_NE(picked->plan_text.find(
                std::string("auto strategy: ") +
                StrategyName(picked->effective_strategy) + " "),
            std::string::npos)
      << picked->plan_text;
  EXPECT_TRUE(picked->fallback_reason.empty());
  EXPECT_EQ(server.stats().ni_fallbacks, 0);

  // A selector failure on a fresh text (a plan-cache miss) falls back: the
  // result reports NI, and the server counts the fallback.
  fi.Arm("rewrite.auto.select", Status::Internal("injected: selector"));
  auto fell_back = session->Execute(
      "SELECT d.name FROM dept d WHERE EXISTS "
      "(SELECT 1 FROM emp e WHERE e.building = d.building)",
      automatic);
  fi.Reset();
  ASSERT_TRUE(fell_back.ok()) << fell_back.status().ToString();
  EXPECT_EQ(fell_back->effective_strategy, Strategy::kNestedIteration);
  EXPECT_FALSE(fell_back->fallback_reason.empty());
  EXPECT_EQ(server.stats().ni_fallbacks, 1);
}

TEST(ServerTest, StatsEpochBumpInvalidatesStaleAutoPlan) {
  Server server;
  ASSERT_TRUE(server
                  .Mutate([](Database& db) {
                    DECORR_RETURN_IF_ERROR(db.CreateTable(TableSchema(
                        "dept",
                        {{"name", TypeId::kString, false},
                         {"budget", TypeId::kInt64, false},
                         {"num_emps", TypeId::kInt64, false},
                         {"building", TypeId::kInt64, false}},
                        {0})));
                    DECORR_RETURN_IF_ERROR(db.CreateTable(TableSchema(
                        "emp",
                        {{"emp_id", TypeId::kInt64, false},
                         {"name", TypeId::kString, false},
                         {"building", TypeId::kInt64, false},
                         {"salary", TypeId::kInt64, false}},
                        {0})));
                    DECORR_RETURN_IF_ERROR(db.Insert(
                        "dept", {{S("math"), I(5000), I(4), I(10)},
                                 {S("physics"), I(500), I(1), I(30)}}));
                    DECORR_RETURN_IF_ERROR(
                        db.Insert("emp", {{I(1), S("ann"), I(10), I(50)},
                                          {I(2), S("bob"), I(10), I(60)}}));
                    return db.AnalyzeAll();
                  })
                  .ok());
  auto session = server.Connect();
  QueryOptions automatic;
  automatic.strategy = Strategy::kAuto;
  automatic.fallback = false;

  // EXPLAIN carries the selector's "auto stats epoch: N" note, which a
  // cache hit serves from the cached plan — so a *changed* note proves the
  // plan was genuinely re-costed, not replayed.
  auto epoch_note = [](const QueryResult& r) {
    const std::string prefix = "auto stats epoch: ";
    const size_t at = r.plan_text.find(prefix);
    EXPECT_NE(at, std::string::npos) << r.plan_text;
    if (at == std::string::npos) return std::string();
    const size_t from = at + prefix.size();
    return r.plan_text.substr(from, r.plan_text.find('\n', from) - from);
  };

  auto cold = session->Execute(kPaperExampleQuery, automatic);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string cold_epoch = epoch_note(*cold);
  auto warm = session->Execute(kPaperExampleQuery, automatic);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->profile.plan_cache_hit);
  EXPECT_EQ(epoch_note(*warm), cold_epoch);

  // New data, no ANALYZE: statistics go stale. The next kAuto query
  // pre-refreshes them under the exclusive lock, which bumps the epoch and
  // must invalidate the cached plan — a stale kAuto pick never survives.
  ASSERT_TRUE(server
                  .Mutate([](Database& db) {
                    std::vector<Row> rows;
                    for (int64_t i = 0; i < 200; ++i) {
                      rows.push_back(
                          {I(100 + i), S("x"), I(10), I(40 + i % 50)});
                    }
                    return db.Insert("emp", rows);
                  })
                  .ok());
  const int64_t invalidations_before =
      server.stats().plan_cache.invalidations;
  auto recosted = session->Execute(kPaperExampleQuery, automatic);
  ASSERT_TRUE(recosted.ok()) << recosted.status().ToString();
  EXPECT_FALSE(recosted->profile.plan_cache_hit);
  EXPECT_EQ(server.stats().plan_cache.invalidations,
            invalidations_before + 1);
  EXPECT_NE(epoch_note(*recosted), cold_epoch);
  // math now has 202 emps in building 10: the answer legitimately changed.
  ASSERT_EQ(recosted->rows.size(), 1u);
  EXPECT_EQ(recosted->rows[0][0].string_value(), "physics");

  // And the re-costed plan re-caches: hits resume at the new epoch.
  auto rewarmed = session->Execute(kPaperExampleQuery, automatic);
  ASSERT_TRUE(rewarmed.ok()) << rewarmed.status().ToString();
  EXPECT_TRUE(rewarmed->profile.plan_cache_hit);
}

TEST(ServerTest, TableSetChangeClearsCacheWholesale) {
  Server server({}, MakeEmpDeptCatalog());
  auto session = server.Connect();
  ASSERT_TRUE(session->Execute("SELECT COUNT(*) FROM emp").ok());
  EXPECT_EQ(server.stats().plan_cache.entries, 1);
  // DDL: cached plans pin TablePtrs, so any table-set change clears all.
  ASSERT_TRUE(server
                  .Mutate([](Database& db) {
                    return db.CreateTable(TableSchema(
                        "extra", {{"x", TypeId::kInt64, false}}, {0}));
                  })
                  .ok());
  EXPECT_EQ(server.stats().plan_cache.entries, 0);
  auto r = session->Execute("SELECT COUNT(*) FROM emp");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->profile.plan_cache_hit);
}

TEST(ServerTest, CacheHitSkipsTheEntireFrontEnd) {
  Server server({}, MakeEmpDeptCatalog());
  auto session = server.Connect();
  session->options().strategy = Strategy::kMagic;

  auto cold = session->Execute(kPaperExampleQuery);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->profile.plan_cache_hit);
  EXPECT_GT(cold->profile.parse_nanos, 0);
  EXPECT_GT(cold->profile.bind_nanos, 0);
  EXPECT_GT(cold->profile.rewrite_nanos, 0);

  // The hit path never runs parse/bind/rewrite, so their timings are
  // exactly zero — the fingerprint lookup is the only front-end cost left.
  auto warm = session->Execute(kPaperExampleQuery);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->profile.plan_cache_hit);
  EXPECT_EQ(warm->profile.parse_nanos, 0);
  EXPECT_EQ(warm->profile.bind_nanos, 0);
  EXPECT_EQ(warm->profile.rewrite_nanos, 0);
  EXPECT_GT(warm->profile.plan_nanos, 0);  // planning still runs per query
  EXPECT_EQ(Canon(*warm), Canon(*cold));

  // EXPLAIN ANALYZE is where the hit is allowed to show: the phase summary
  // gains the annotation, and only there.
  auto analyzed = session->ExplainAnalyze(kPaperExampleQuery);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->analyze_text.find("plan cache: hit"),
            std::string::npos)
      << analyzed->analyze_text;
  EXPECT_EQ(analyzed->plan_text.find("plan cache"), std::string::npos);
}

TEST(ServerTest, RedundantAnalyzeDoesNotBumpEpochOrEvictPlans) {
  // The latent-issue fix: RefreshStats on fresh statistics must be a no-op
  // — no recompute, no epoch bump — so periodic ANALYZE sweeps don't wipe
  // the plan cache, and per-query kAuto front-ends stay read-only.
  Server server;
  ASSERT_TRUE(server
                  .Mutate([](Database& db) {
                    DECORR_RETURN_IF_ERROR(db.CreateTable(TableSchema(
                        "t", {{"x", TypeId::kInt64, false}}, {0})));
                    DECORR_RETURN_IF_ERROR(
                        db.Insert("t", {{I(1)}, {I(2)}, {I(3)}}));
                    return db.AnalyzeAll();
                  })
                  .ok());
  const uint64_t epoch = server.catalog().stats_epoch();
  // Nothing changed since the load's AnalyzeAll: this one is redundant.
  ASSERT_TRUE(
      server.Mutate([](Database& db) { return db.AnalyzeAll(); }).ok());
  EXPECT_EQ(server.catalog().stats_epoch(), epoch);

  auto session = server.Connect();
  QueryOptions automatic;
  automatic.strategy = Strategy::kAuto;
  ASSERT_TRUE(session->Execute("SELECT COUNT(*) FROM t", automatic).ok());
  ASSERT_TRUE(
      server.Mutate([](Database& db) { return db.AnalyzeAll(); }).ok());
  auto warm = session->Execute("SELECT COUNT(*) FROM t", automatic);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->profile.plan_cache_hit);
  EXPECT_EQ(server.stats().plan_cache.invalidations, 0);
  EXPECT_EQ(server.catalog().stats_epoch(), epoch);
}

// The concurrency stress gate: four sessions race the randomized
// property-diff corpus (the same seeded queries the single-session sweeps
// certify) through one Server per database, under a concurrency limit low
// enough to force queueing, with strategies rotated so every family runs
// (Kim excluded: its sanctioned COUNT bug diverges from NI by design).
// Every row set must be multiset-identical to a single-session nested-
// iteration run, and the second pass over the corpus must hit the shared
// plan cache. The TSan CI lane runs this to certify the locking.
TEST(ServerTest, ConcurrentSweepMatchesSingleSessionExecution) {
  constexpr uint64_t kDatabases = 8;
  constexpr int kQueriesPerDatabase = 30;  // the 240-query corpus
  constexpr int kThreads = 4;
  constexpr int kPasses = 2;  // pass 2 re-runs pass 1: plan-cache hits
  static const Strategy kStrategies[] = {
      Strategy::kNestedIteration, Strategy::kNestedIterationCached,
      Strategy::kDayal,           Strategy::kGanskiWong,
      Strategy::kMagic,           Strategy::kOptMagic,
      Strategy::kAuto};
  int64_t total_hits = 0;
  int64_t total_queued = 0;

  for (uint64_t seed = 1; seed <= kDatabases; ++seed) {
    auto catalog = MakeNullHeavyCatalog(seed);
    Rng rng(seed * 7919);  // identical stream -> identical query text
    DiffQueryGen gen(&rng);
    std::vector<std::string> queries;
    std::vector<std::vector<std::string>> truth;
    {
      // Single-session ground truth, computed before the server exists.
      Database db(catalog);
      for (int q = 0; q < kQueriesPerDatabase; ++q) {
        queries.push_back(gen.RandomQuery());
        QueryOptions ni;
        ni.strategy = Strategy::kNestedIteration;
        auto r = db.Execute(queries.back(), ni);
        ASSERT_TRUE(r.ok()) << "NI failed (seed " << seed << " q" << q
                            << "): " << r.status().ToString();
        truth.push_back(Canon(*r));
      }
    }

    ServerOptions options;
    options.max_concurrent_queries = 2;  // half the threads: forces queueing
    Server server(options, catalog);
    std::vector<std::thread> threads;
    std::vector<std::vector<std::string>> failures(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto session = server.Connect(StrFormat("worker-%d", t));
        for (int pass = 0; pass < kPasses; ++pass) {
          for (int q = 0; q < kQueriesPerDatabase; ++q) {
            QueryOptions opts;
            // Rotate strategies so every (query, family) pair shows up
            // across the thread pool; fallback stays on, so a declined
            // rewrite degrades to NI and still must match.
            opts.strategy = kStrategies[(t * 31 + q) % 7];
            auto r = session->Execute(queries[q], opts);
            if (!r.ok()) {
              failures[t].push_back(StrFormat(
                  "seed %llu q%d t%d pass%d [%s]: %s",
                  (unsigned long long)seed, q, t, pass,
                  StrategyName(opts.strategy),
                  r.status().ToString().c_str()));
              continue;
            }
            if (Canon(*r) != truth[q]) {
              failures[t].push_back(StrFormat(
                  "seed %llu q%d t%d pass%d [%s]: rows diverged\n%s",
                  (unsigned long long)seed, q, t, pass,
                  StrategyName(opts.strategy), queries[q].c_str()));
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      for (const std::string& failure : failures[t]) {
        ADD_FAILURE() << failure;
      }
    }
    const ServerStats stats = server.stats();
    total_hits += stats.plan_cache.hits;
    total_queued += stats.queued;
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.completed,
              int64_t{kThreads} * kPasses * kQueriesPerDatabase);
  }
  // The sweep is vacuous unless the shared cache actually served plans and
  // the admission controller actually queued someone.
  EXPECT_GT(total_hits, 0);
  EXPECT_GT(total_queued, 0);
}

TEST(ServerTest, SnapshotReadsNeverObserveHalfAppliedMutations) {
  Server server;
  auto load = [](Database& db) -> Status {
    DECORR_RETURN_IF_ERROR(db.CreateTable(
        TableSchema("t", {{"x", TypeId::kInt64, false}}, {0})));
    std::vector<Row> rows;
    for (int64_t i = 0; i < 200; ++i) rows.push_back({I(i)});
    DECORR_RETURN_IF_ERROR(db.Insert("t", rows));
    return db.AnalyzeAll();
  };
  ASSERT_TRUE(server.Mutate(load).ok());

  // Readers spin on COUNT(*) while the writer appends in 200-row batches:
  // every observed count must be a committed size, never a torn one.
  std::atomic<bool> done{false};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  std::vector<std::vector<std::string>> bad(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto session = server.Connect();
      while (!done.load(std::memory_order_relaxed)) {
        auto r = session->Execute("SELECT COUNT(*) FROM t");
        if (!r.ok()) {
          bad[t].push_back(r.status().ToString());
          return;
        }
        const int64_t count = r->rows[0][0].int64_value();
        if (count % 200 != 0 || count < 200 || count > 800) {
          bad[t].push_back(StrFormat("torn count: %lld", (long long)count));
        }
      }
    });
  }
  for (int batch = 0; batch < 3; ++batch) {
    ASSERT_TRUE(server
                    .Mutate([batch](Database& db) {
                      std::vector<Row> rows;
                      for (int64_t i = 0; i < 200; ++i) {
                        rows.push_back({I(1000 * (batch + 1) + i)});
                      }
                      DECORR_RETURN_IF_ERROR(db.Insert("t", rows));
                      return db.AnalyzeAll();
                    })
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < kReaders; ++t) {
    for (const std::string& failure : bad[t]) ADD_FAILURE() << failure;
  }
  auto session = server.Connect();
  auto final_count = session->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows[0][0].int64_value(), 800);
}

}  // namespace
}  // namespace decorr
