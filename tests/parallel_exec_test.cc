// The parallel execution layer, unit by unit: WorkerPool lifecycle and
// error capture, hash partitioning (NULL keys co-locate, partitions
// round-trip), exchange operators against their serial counterparts
// (ParallelScan order-identical to SeqScan, Gather order-identical to
// UnionAll, partitioned join/aggregate row-identical as sorted multisets),
// metrics merging across worker clones, and end-to-end dop>1 queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "decorr/common/fault.h"
#include "decorr/exec/exchange.h"
#include "decorr/exec/join.h"
#include "decorr/exec/metrics.h"
#include "decorr/exec/misc_ops.h"
#include "decorr/exec/scan.h"
#include "decorr/exec/worker_pool.h"
#include "decorr/runtime/database.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

// Sorted copy under the Value total order: the canonical multiset form the
// differential comparisons use (NULL sorts deterministically too).
std::vector<Row> Canon(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const int cmp = a[i].Compare(b[i]);
      if (cmp != 0) return cmp < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

// Value has no operator==; compare row vectors via the total order.
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].Compare(b[i][j]) != 0) return false;
    }
  }
  return true;
}

std::vector<Row> Drain(Operator* op, ExecContext* ctx) {
  auto collected = CollectRows(op, ctx);
  EXPECT_TRUE(collected.ok()) << collected.status().ToString();
  return collected.ok() ? collected.MoveValue() : std::vector<Row>{};
}

OperatorPtr RowsScan(std::vector<Row> rows, int width) {
  return std::make_unique<RowsScanOp>(
      std::make_shared<const std::vector<Row>>(std::move(rows)), width);
}

// ---- WorkerPool ----

TEST(WorkerPoolTest, ShutdownRunsPendingWork) {
  // Zero threads: nothing drains the queue until Shutdown does.
  WorkerPool pool(0);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 0);
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(pool.tasks_executed(), 16);
}

TEST(WorkerPoolTest, ShutdownIsIdempotentAndRejectsLateSubmits) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op
  pool.Submit([&ran] { ran.fetch_add(1); });  // dropped
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerPoolTest, TasksRunOnPoolThreads) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  const auto self = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
      ran.fetch_add(1);
    });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 8);
  // With two live workers at least some tasks ran off the test thread
  // (Shutdown may drain stragglers itself, so not necessarily all).
  EXPECT_GT(off_thread.load(), 0);
}

TEST(ParallelRunTest, AllTasksExecuteAndFirstErrorWins) {
  WorkerPool pool(2);
  std::vector<std::function<Status()>> tasks;
  std::atomic<int> ran{0};
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([i, &ran]() -> Status {
      ran.fetch_add(1);
      if (i == 4) return Status::Internal("task four failed");
      if (i == 2) return Status::Cancelled("task two failed");
      return Status::OK();
    });
  }
  Status st = ParallelRun(&pool, std::move(tasks));
  // Every task ran (all workers drain) and the lowest-indexed failure is
  // the one reported.
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("task two"), std::string::npos);
}

TEST(ParallelRunTest, CallerDrainsBatchWithZeroThreadPool) {
  WorkerPool pool(0);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&ran]() -> Status {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(ParallelRun(&pool, std::move(tasks)).ok());
  EXPECT_EQ(ran.load(), 5);
}

TEST(ParallelRunTest, ExceptionBecomesInternalStatus) {
  WorkerPool pool(1);
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([]() -> Status { return Status::OK(); });
  tasks.push_back([]() -> Status { throw std::runtime_error("boom"); });
  Status st = ParallelRun(&pool, std::move(tasks));
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
}

// ---- hash partitioning ----

TEST(HashPartitionTest, RoundTripPreservesMultisetAndColocatesKeys) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back({I(i % 17), I(i)});
  std::vector<ExprPtr> keys;
  keys.push_back(MakeSlotRef(0, TypeId::kInt64));

  std::vector<std::vector<Row>> parts;
  ASSERT_TRUE(
      HashPartitionRows(rows, keys, nullptr, 4, &parts).ok());
  ASSERT_EQ(parts.size(), 4u);

  std::vector<Row> reunited;
  for (const auto& p : parts) {
    for (const Row& r : p) reunited.push_back(r);
  }
  EXPECT_TRUE(SameRows(Canon(std::move(reunited)), Canon(rows)));

  // Co-location: each key value appears in exactly one partition.
  for (int64_t k = 0; k < 17; ++k) {
    int seen_in = 0;
    for (const auto& p : parts) {
      if (std::any_of(p.begin(), p.end(), [k](const Row& r) {
            return !r[0].is_null() && r[0].int64_value() == k;
          })) {
        ++seen_in;
      }
    }
    EXPECT_EQ(seen_in, 1) << "key " << k << " split across partitions";
  }
}

TEST(HashPartitionTest, NullKeysColocateForNullSafeJoins) {
  // kNullEq treats NULL = NULL as a match, so every NULL-keyed row must
  // land in the same partition or a partitioned binding join would lose
  // matches.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 50; ++i) {
    rows.push_back({i % 3 == 0 ? N() : I(i % 5), I(i)});
  }
  std::vector<ExprPtr> keys;
  keys.push_back(MakeSlotRef(0, TypeId::kInt64));
  std::vector<std::vector<Row>> parts;
  ASSERT_TRUE(HashPartitionRows(rows, keys, nullptr, 8, &parts).ok());
  int partitions_with_nulls = 0;
  for (const auto& p : parts) {
    if (std::any_of(p.begin(), p.end(),
                    [](const Row& r) { return r[0].is_null(); })) {
      ++partitions_with_nulls;
    }
  }
  EXPECT_EQ(partitions_with_nulls, 1);
}

// ---- exchange operators vs their serial counterparts ----

class ExchangeOpTest : public ::testing::Test {
 protected:
  ExecContext MakeCtx() {
    ExecContext ctx;
    ctx.stats = &stats_;
    ctx.guard = &guard_;
    return ctx;
  }
  ExecStats stats_;
  ResourceGuard guard_;
};

TEST_F(ExchangeOpTest, ParallelScanOrderIdenticalToSeqScan) {
  // > 2 morsels so the morsel-ordered concatenation is actually exercised.
  TableSchema schema("t", {{"k", TypeId::kInt64, false},
                           {"v", TypeId::kInt64, false}},
                     {0});
  auto table = std::make_shared<Table>(schema);
  const int64_t n = static_cast<int64_t>(ParallelScanOp::kMorselRows) * 3 + 77;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table->AppendRow({I(i), I(i % 13)}).ok());
  }
  auto filter = [] {
    return MakeComparison(BinaryOp::kLt, MakeSlotRef(1, TypeId::kInt64),
                          MakeConstant(I(9)));
  };
  std::vector<int> projection = {0, 1};

  SeqScanOp serial(table, projection, filter());
  ExecContext sctx = MakeCtx();
  std::vector<Row> expect = Drain(&serial, &sctx);

  for (int dop : {2, 4, 8}) {
    ParallelScanOp parallel(table, projection, filter(), dop);
    ExecStats pstats;
    ResourceGuard pguard;
    ExecContext pctx;
    pctx.stats = &pstats;
    pctx.guard = &pguard;
    std::vector<Row> got = Drain(&parallel, &pctx);
    EXPECT_TRUE(SameRows(got, expect))
        << "dop=" << dop;  // exact order, not just multiset
    EXPECT_EQ(pstats.rows_scanned, n) << "dop=" << dop;
  }
}

TEST_F(ExchangeOpTest, GatherOrderIdenticalToUnionAll) {
  auto make_children = [] {
    std::vector<OperatorPtr> children;
    for (int64_t c = 0; c < 3; ++c) {
      std::vector<Row> rows;
      for (int64_t i = 0; i < 10; ++i) rows.push_back({I(c), I(i)});
      children.push_back(RowsScan(std::move(rows), 2));
    }
    return children;
  };
  UnionAllOp serial(make_children());
  ExecContext sctx = MakeCtx();
  std::vector<Row> expect;
  {
    auto collected = CollectRows(&serial, &sctx);
    ASSERT_TRUE(collected.ok());
    expect = collected.MoveValue();
  }
  GatherOp parallel(make_children());
  ExecStats pstats;
  ResourceGuard pguard;
  ExecContext pctx;
  pctx.stats = &pstats;
  pctx.guard = &pguard;
  std::vector<Row> got = Drain(&parallel, &pctx);
  EXPECT_TRUE(SameRows(got, expect));  // child-order concatenation is deterministic
}

// Builds matching serial/parallel hash joins over the same input multisets
// (with NULL keys sprinkled in) and compares results as sorted multisets.
TEST_F(ExchangeOpTest, PartitionedHashJoinMatchesSerial) {
  std::vector<Row> left_rows, right_rows;
  for (int64_t i = 0; i < 120; ++i) {
    left_rows.push_back({i % 11 == 0 ? N() : I(i % 7), I(i)});
  }
  for (int64_t i = 0; i < 90; ++i) {
    right_rows.push_back({i % 13 == 0 ? N() : I(i % 9), I(1000 + i)});
  }
  for (JoinType jt : {JoinType::kInner, JoinType::kLeftOuter}) {
    for (bool null_safe : {false, true}) {
      auto keys = [] {
        std::vector<ExprPtr> k;
        k.push_back(MakeSlotRef(0, TypeId::kInt64));
        return k;
      };
      HashJoinOp serial(RowsScan(left_rows, 2), RowsScan(right_rows, 2),
                        keys(), keys(), nullptr, jt, {null_safe});
      ExecStats st1;
      ResourceGuard g1;
      ExecContext c1;
      c1.stats = &st1;
      c1.guard = &g1;
      std::vector<Row> expect = Canon(Drain(&serial, &c1));
      ASSERT_FALSE(expect.empty());

      for (int dop : {2, 4}) {
        ParallelHashJoinOp parallel(RowsScan(left_rows, 2),
                                    RowsScan(right_rows, 2), keys(), keys(),
                                    nullptr, jt, {null_safe}, dop);
        ExecStats st2;
        ResourceGuard g2;
        ExecContext c2;
        c2.stats = &st2;
        c2.guard = &g2;
        std::vector<Row> got = Canon(Drain(&parallel, &c2));
        EXPECT_TRUE(SameRows(got, expect))
            << "jt=" << static_cast<int>(jt) << " null_safe=" << null_safe
            << " dop=" << dop;
      }
    }
  }
}

TEST_F(ExchangeOpTest, PartitionedAggregateMatchesSerial) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back({i % 23 == 0 ? N() : I(i % 10), I(i)});
  }
  auto group_keys = [] {
    std::vector<ExprPtr> k;
    k.push_back(MakeSlotRef(0, TypeId::kInt64));
    return k;
  };
  auto aggs = [] {
    std::vector<AggSpec> specs;
    AggSpec count;
    count.kind = AggKind::kCountStar;
    specs.push_back(std::move(count));
    AggSpec sum;
    sum.kind = AggKind::kSum;
    sum.arg = MakeSlotRef(1, TypeId::kInt64);
    specs.push_back(std::move(sum));
    return specs;
  };
  HashAggregateOp serial(RowsScan(rows, 2), group_keys(), aggs());
  ExecStats st1;
  ResourceGuard g1;
  ExecContext c1;
  c1.stats = &st1;
  c1.guard = &g1;
  std::vector<Row> expect = Canon(Drain(&serial, &c1));
  ASSERT_EQ(expect.size(), 11u);  // 10 key values + the NULL group

  for (int dop : {2, 4}) {
    ParallelHashAggregateOp parallel(RowsScan(rows, 2), group_keys(), aggs(),
                                     dop);
    ExecStats st2;
    ResourceGuard g2;
    ExecContext c2;
    c2.stats = &st2;
    c2.guard = &g2;
    EXPECT_TRUE(SameRows(Canon(Drain(&parallel, &c2)), expect))
        << "dop=" << dop;
  }
}

TEST_F(ExchangeOpTest, WorkerCloneMetricsMergeIntoOneTree) {
  std::vector<Row> left_rows, right_rows;
  for (int64_t i = 0; i < 64; ++i) left_rows.push_back({I(i % 8), I(i)});
  for (int64_t i = 0; i < 64; ++i) right_rows.push_back({I(i % 8), I(i)});
  auto keys = [] {
    std::vector<ExprPtr> k;
    k.push_back(MakeSlotRef(0, TypeId::kInt64));
    return k;
  };
  ParallelHashJoinOp join(RowsScan(left_rows, 2), RowsScan(right_rows, 2),
                          keys(), keys(), nullptr, JoinType::kInner, {}, 4);
  ExecContext ctx = MakeCtx();
  std::vector<Row> rows = Drain(&join, &ctx);
  ASSERT_EQ(rows.size(), 512u);  // 8 groups x 8 x 8

  MetricsNode tree = CollectMetricsTree(join);
  EXPECT_EQ(tree.rows_out, 512);
  // The worker child aggregates all four clones: its rows_out must cover
  // every joined row even though each clone only produced its partition.
  const MetricsNode* worker = nullptr;
  for (const MetricsNode& child : tree.children) {
    if (child.role == "worker") worker = &child;
  }
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->rows_out, 512);
  EXPECT_EQ(worker->build_rows, 64);  // all partitions' build rows summed
}

// ---- end to end ----

TEST(ParallelEndToEndTest, PaperQueryIdenticalAcrossDopsAndStrategies) {
  Database db(MakeEmpDeptCatalog());
  for (Strategy strategy :
       {Strategy::kNestedIteration, Strategy::kMagic, Strategy::kOptMagic}) {
    QueryOptions serial;
    serial.strategy = strategy;
    serial.fallback = false;
    auto base = db.Execute(kPaperExampleQuery, serial);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    for (int dop : {2, 4}) {
      QueryOptions parallel = serial;
      parallel.dop = dop;
      auto got = db.Execute(kPaperExampleQuery, parallel);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameRows(Canon(got->rows), Canon(base->rows)))
          << "strategy=" << static_cast<int>(strategy) << " dop=" << dop;
      EXPECT_TRUE(got->fallback_reason.empty());
    }
  }
}

TEST(ParallelEndToEndTest, DopOneKeepsPlansByteIdentical) {
  Database db(MakeEmpDeptCatalog());
  QueryOptions plain;
  QueryOptions dop1;
  dop1.dop = 1;
  auto a = db.Explain(kPaperExampleQuery, plain);
  auto b = db.Explain(kPaperExampleQuery, dop1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->plan_text, b->plan_text);
  EXPECT_EQ(a->plan_text.find("Parallel"), std::string::npos);

  // QueryOptions::dop is the one dop knob: every run copies it into
  // PlannerOptions::dop, so a planner-level dop cannot parallelize a dop-1
  // query.
  QueryOptions magic;
  magic.strategy = Strategy::kMagic;
  QueryOptions stray = magic;
  stray.planner.dop = 4;
  auto c = db.Explain(kPaperExampleQuery, magic);
  auto d = db.Explain(kPaperExampleQuery, stray);
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_EQ(d->plan_text, c->plan_text);
  EXPECT_EQ(d->plan_text.find("Parallel"), std::string::npos);
}

TEST(ParallelEndToEndTest, DopFourSelectsExchangeOperators) {
  Database db(MakeEmpDeptCatalog());
  QueryOptions options;
  options.strategy = Strategy::kMagic;
  options.dop = 4;
  auto r = db.Explain(kPaperExampleQuery, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->plan_text.find("Parallel"), std::string::npos) << r->plan_text;
}

TEST(ParallelEndToEndTest, ExplainAnalyzeMergesWorkerMetrics) {
  Database db(MakeEmpDeptCatalog());
  QueryOptions options;
  options.strategy = Strategy::kMagic;
  options.dop = 4;
  auto r = db.ExplainAnalyze(kPaperExampleQuery, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->profile.enabled);
  EXPECT_FALSE(r->analyze_text.empty());
  ASSERT_EQ(r->rows.size(), 3u);
}

// ---- guardrail trips mid-parallel execution ----

// One shared ResourceGuard is checked by every worker; a trip in any of them
// must abort the whole query with the right StatusCode — not a hang, not a
// leak (the ASan lane runs this), not a silently truncated result — and the
// Database must answer the next unlimited query correctly.
class ParallelStressTest : public ::testing::Test {
 protected:
  ParallelStressTest() : db_(MakeEmpDeptCatalog()) {
    TableSchema big("big",
                    {{"k", TypeId::kInt64, false},
                     {"g", TypeId::kInt64, false},
                     {"v", TypeId::kInt64, false}},
                    /*primary_key=*/{0});
    EXPECT_TRUE(db_.CreateTable(big).ok());
    std::vector<Row> rows;
    for (int64_t k = 0; k < 4096; ++k) rows.push_back({I(k), I(k % 13), I(k % 97)});
    EXPECT_TRUE(db_.Insert("big", rows).ok());
    EXPECT_TRUE(db_.AnalyzeAll().ok());
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  void ExpectIntact() {
    auto r = db_.Execute("SELECT k FROM big");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 4096u);
  }

  // Self-join + aggregation: partitioned parallel join feeding a partitioned
  // parallel aggregate, with enough rows that workers are mid-flight when a
  // guard trips.
  static constexpr const char* kJoinSql =
      "SELECT a.g, COUNT(*) FROM big a, big b WHERE a.g = b.g GROUP BY a.g";

  QueryOptions ParallelOptions() {
    QueryOptions options;
    options.dop = 4;
    options.fallback = false;  // a guard trip must surface, never degrade
    return options;
  }

  Database db_;
};

TEST_F(ParallelStressTest, CancellationTripsMidParallelJoin) {
  QueryOptions options = ParallelOptions();
  options.limits.cancel = std::make_shared<CancellationToken>();
  // Lands after the scans feed the join: workers poll the shared token.
  options.limits.cancel->CancelAfterChecks(50);
  auto r = db_.Execute(kJoinSql, options);
  ASSERT_FALSE(r.ok()) << "cancellation was lost at dop=4";
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ExpectIntact();
}

TEST_F(ParallelStressTest, DeadlineTripsMidParallelJoin) {
  QueryOptions options = ParallelOptions();
  options.limits.timeout_micros = 1;  // expires while workers are running
  auto r = db_.Execute(kJoinSql, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ExpectIntact();
}

TEST_F(ParallelStressTest, RowBudgetTripsMidParallelJoin) {
  QueryOptions options = ParallelOptions();
  options.limits.row_budget = 100;  // blown during the partitioned build
  auto r = db_.Execute(kJoinSql, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("row budget"), std::string::npos)
      << r.status().ToString();
  ExpectIntact();
}

TEST_F(ParallelStressTest, MemoryBudgetTripsMidParallelJoin) {
  QueryOptions options = ParallelOptions();
  options.limits.memory_budget_bytes = 1024;  // atomically shared by workers
  auto r = db_.Execute(kJoinSql, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("memory budget"), std::string::npos)
      << r.status().ToString();
  ExpectIntact();
}

TEST_F(ParallelStressTest, InjectedCancellationInsideWorkersIsNeverLost) {
  // A kCancelled produced *inside* a pool thread (not via the token) must
  // win over the sibling workers' OK statuses and reach the API verbatim.
  for (const char* site : {"exec.pscan.morsel", "exec.pjoin.worker",
                           "exec.pagg.worker"}) {
    FaultInjector::Global().Arm(site, Status::Cancelled("mid-worker cancel"),
                                /*skip=*/1);
    auto r = db_.Execute(kJoinSql, ParallelOptions());
    FaultInjector::Global().Reset();
    ASSERT_FALSE(r.ok()) << site << " swallowed the cancellation";
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << site;
    EXPECT_EQ(r.status().message(), "mid-worker cancel") << site;
  }
  ExpectIntact();
}

}  // namespace
}  // namespace decorr
