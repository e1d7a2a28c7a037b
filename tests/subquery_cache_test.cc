// Cache-semantics battery for the correlated-subquery memo (ApplyOp's memo
// shape, exec/apply.h): binding keys incl. NULL bindings and numeric type
// mixes, the budget's decline and flush rules, MemoryTracker charge/release
// symmetry, and hit/miss counter accuracy on hand-built plans. The memo
// must never change results — only skip inner re-runs.
#include <gtest/gtest.h>

#include "decorr/exec/apply.h"
#include "decorr/exec/filter_project.h"
#include "decorr/exec/scan.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

OperatorPtr Rows(std::vector<Row> rows, int width) {
  auto data = std::make_shared<const std::vector<Row>>(std::move(rows));
  return std::make_unique<RowsScanOp>(data, width);
}

// Column 1 of the rows of {{1, 100}, {2, 200}} whose column 0 equals
// parameter 0.
OperatorPtr ValueOf() {
  ExprPtr pred = MakeComparison(BinaryOp::kEq, MakeSlotRef(0, TypeId::kInt64),
                                MakeParamRef(0, TypeId::kInt64));
  OperatorPtr filter = std::make_unique<FilterOp>(
      Rows({{I(1), I(100)}, {I(2), I(200)}}, 2), std::move(pred));
  std::vector<ExprPtr> proj;
  proj.push_back(MakeSlotRef(1, TypeId::kInt64));
  return std::make_unique<ProjectOp>(std::move(filter), std::move(proj));
}

// A scalar Apply over ValueOf(), bound to input column 0.
std::unique_ptr<ApplyOp> ScalarApply(std::vector<Row> outer) {
  return std::make_unique<ApplyOp>(Rows(std::move(outer), 1), ValueOf(),
                                   std::vector<ParamSource>{{false, 0}},
                                   SubquerySemantics{});
}

// What one memo entry of ScalarApply charges: its key and its one row.
int64_t EntryBytes() {
  return ApproxRowBytes({I(1)}) + ApproxRowBytes({I(100)});
}

struct MemoRun {
  ExecStats stats;
  ResourceGuard guard;
  ExecContext ctx;
  explicit MemoRun(int64_t cache_bytes) {
    ctx.stats = &stats;
    ctx.guard = &guard;
    ctx.subquery_cache_bytes = cache_bytes;
  }
};

// ---- key semantics ----

TEST(ApplyMemoTest, MemoizesPerBindingAndCounts) {
  // Five outer rows but only two distinct bindings.
  auto apply = ScalarApply({{I(1)}, {I(1)}, {I(2)}, {I(2)}, {I(1)}});
  MemoRun run(1 << 20);
  auto rows = CollectRows(apply.get(), &run.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 5u);
  EXPECT_TRUE((*rows)[0][1].Equals(I(100)));
  EXPECT_TRUE((*rows)[2][1].Equals(I(200)));
  EXPECT_TRUE((*rows)[4][1].Equals(I(100)));
  EXPECT_EQ(run.stats.subquery_invocations, 2);  // one per distinct binding
  EXPECT_EQ(run.stats.subquery_cache_hits, 3);
  EXPECT_EQ(run.stats.subquery_cache_misses, 2);
  EXPECT_EQ(apply->metrics().cache_hits, 3);
  EXPECT_EQ(apply->metrics().cache_misses, 2);
  EXPECT_EQ(apply->metrics().cache_evictions, 0);
  EXPECT_EQ(run.guard.memory().used(), 0);
}

TEST(ApplyMemoTest, NullBindingsShareAnEntry) {
  // NULL keys memoize like HashJoin's <=> semantics: a NULL binding always
  // produces the same inner result as another NULL binding, so they share
  // one entry (NULL == NULL for memo purposes).
  ApplyOp apply(Rows({{N(), I(7)}, {N(), I(7)}, {N(), I(8)}}, 2),
                Rows({{S("x")}}, 1),
                std::vector<ParamSource>{{false, 0}, {false, 1}},
                SubquerySemantics{});
  MemoRun run(1 << 20);
  auto rows = CollectRows(&apply, &run.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE((*rows)[1][2].Equals(S("x")));
  // A different non-NULL slot still misses.
  EXPECT_EQ(run.stats.subquery_cache_hits, 1);
  EXPECT_EQ(run.stats.subquery_cache_misses, 2);
  EXPECT_EQ(run.stats.subquery_invocations, 2);
}

TEST(ApplyMemoTest, NumericTypeMixSharesAnEntry) {
  // Value::Hash/Equals treat INT64 4 and DOUBLE 4.0 as the same key (the
  // same contract HashJoinOp relies on), so a mixed-type binding hits.
  ApplyOp apply(Rows({{I(4)}, {D(4.0)}, {D(4.5)}}, 1), Rows({{I(1)}}, 1),
                std::vector<ParamSource>{{false, 0}}, SubquerySemantics{});
  MemoRun run(1 << 20);
  auto rows = CollectRows(&apply, &run.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(run.stats.subquery_cache_hits, 1);    // 4.0 found 4
  EXPECT_EQ(run.stats.subquery_cache_misses, 2);  // 4.5 did not
}

// ---- the budget ----

TEST(ApplyMemoTest, OversizedEntryUsedOnceNotKept) {
  // The budget is one byte short of one entry: every binding runs its inner
  // and is used once, its charge handed back at once.
  auto apply = ScalarApply({{I(1)}, {I(1)}, {I(2)}});
  MemoRun run(EntryBytes() - 1);
  auto rows = CollectRows(apply.get(), &run.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE((*rows)[1][1].Equals(I(100)));
  EXPECT_TRUE((*rows)[2][1].Equals(I(200)));
  EXPECT_EQ(run.stats.subquery_invocations, 3);
  EXPECT_EQ(run.stats.subquery_cache_hits, 0);
  EXPECT_EQ(run.stats.subquery_cache_misses, 3);
  EXPECT_EQ(apply->metrics().cache_evictions, 0);  // nothing was kept
  EXPECT_EQ(run.guard.memory().used(), 0);
}

TEST(ApplyMemoTest, ZeroBudgetRunsLikeNestedIteration) {
  const std::vector<Row> outer = {{I(1)}, {I(1)}, {I(2)}, {I(1)}};
  auto cached = ScalarApply(outer);
  MemoRun off(0);
  auto rows = CollectRows(cached.get(), &off.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(off.stats.subquery_invocations, 4);  // NI's count: one per row
  EXPECT_EQ(off.stats.subquery_cache_hits + off.stats.subquery_cache_misses,
            0);
  EXPECT_EQ(cached->metrics().cache_hits + cached->metrics().cache_misses, 0);
}

// A memo entry that does not fit beside the others flushes the whole table
// (a KeyTable never erases one key), and every flushed entry counts as an
// eviction. Bindings 1, 2, 3, 1, 3 under a budget of two entries: 3 flushes
// {1, 2}, so 1 misses again, and 3 then hits beside it.
TEST(ApplyMemoTest, FullMemoFlushes) {
  auto apply = ScalarApply({{I(1)}, {I(2)}, {I(3)}, {I(1)}, {I(3)}});
  MemoRun run(2 * EntryBytes());
  auto rows = CollectRows(apply.get(), &run.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 5u);
  EXPECT_TRUE((*rows)[0][1].Equals(I(100)));
  EXPECT_TRUE((*rows)[1][1].Equals(I(200)));
  EXPECT_TRUE((*rows)[2][1].is_null());
  EXPECT_TRUE((*rows)[3][1].Equals(I(100)));
  EXPECT_TRUE((*rows)[4][1].is_null());
  EXPECT_EQ(apply->metrics().cache_evictions, 2);
  EXPECT_EQ(run.stats.subquery_cache_misses, 4);
  EXPECT_EQ(run.stats.subquery_cache_hits, 1);
  EXPECT_EQ(run.stats.subquery_invocations, 4);
}

// ---- MemoryTracker symmetry ----

TEST(ApplyMemoTest, ChargesStaySymmetricThroughFlushesAndTeardown) {
  const int64_t budget = 2 * EntryBytes();
  auto apply = ScalarApply({{I(1)}, {I(2)}, {I(1)}, {I(3)}, {I(2)}, {I(1)}});
  MemoRun run(budget);
  ASSERT_TRUE(apply->Open(&run.ctx).ok());
  int rows = 0;
  while (true) {
    Row row;
    bool eof = false;
    ASSERT_TRUE(apply->Next(&row, &eof).ok());
    if (eof) break;
    ++rows;
    EXPECT_LE(run.guard.memory().used(), budget + EntryBytes())
        << "after row " << rows;
  }
  EXPECT_EQ(rows, 6);
  EXPECT_GT(apply->metrics().cache_evictions, 0);
  apply->Close();
  EXPECT_EQ(run.guard.memory().used(), 0);
  // A re-open starts from an empty memo, and its teardown releases too.
  ASSERT_TRUE(apply->Open(&run.ctx).ok());
  Row row;
  bool eof = false;
  ASSERT_TRUE(apply->Next(&row, &eof).ok());
  EXPECT_GT(run.guard.memory().used(), 0);
  apply->Close();
  EXPECT_EQ(run.guard.memory().used(), 0);
}

// ---- what the memo must not change ----

TEST(ApplyMemoTest, CacheOffReExecutesPerRow) {
  ExprPtr pred = MakeComparison(BinaryOp::kEq, MakeSlotRef(0, TypeId::kInt64),
                                MakeParamRef(0, TypeId::kInt64));
  SubquerySemantics exists;
  exists.mode = SubqueryMode::kExists;
  ApplyOp apply(Rows({{I(1)}, {I(1)}, {I(1)}}, 1),
                std::make_unique<FilterOp>(Rows({{I(1)}}, 1), std::move(pred)),
                std::vector<ParamSource>{{false, 0}}, std::move(exists));
  MemoRun run(0);
  auto rows = CollectRows(&apply, &run.ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(run.stats.subquery_invocations, 3);
  EXPECT_EQ(run.stats.subquery_cache_hits, 0);
  EXPECT_EQ(run.stats.subquery_cache_misses, 0);
  EXPECT_EQ(apply.metrics().cache_hits + apply.metrics().cache_misses, 0);
}

// The per-row verdict must be recomputed even on a hit: kIn's lhs comes
// from the outer row, only the inner row set is binding-keyed.
TEST(ApplyMemoTest, HitRecomputesLhsDependentVerdict) {
  ExprPtr pred = MakeComparison(BinaryOp::kEq, MakeSlotRef(0, TypeId::kInt64),
                                MakeParamRef(0, TypeId::kInt64));
  OperatorPtr inner = std::make_unique<FilterOp>(
      Rows({{I(1), I(100)}, {I(1), I(200)}}, 2), std::move(pred));
  std::vector<ExprPtr> proj;
  proj.push_back(MakeSlotRef(1, TypeId::kInt64));
  inner = std::make_unique<ProjectOp>(std::move(inner), std::move(proj));
  SubquerySemantics in;
  in.mode = SubqueryMode::kIn;
  in.lhs = MakeSlotRef(1, TypeId::kInt64);
  // Same binding (1) but different lhs values per row.
  ApplyOp apply(Rows({{I(1), I(100)}, {I(1), I(300)}, {I(1), I(200)}}, 2),
                std::move(inner), std::vector<ParamSource>{{false, 0}},
                std::move(in));
  MemoRun run(1 << 20);
  auto rows = CollectRows(&apply, &run.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_TRUE((*rows)[0][2].Equals(Value::Bool(true)));   // 100 IN {100,200}
  EXPECT_TRUE((*rows)[1][2].Equals(Value::Bool(false)));  // 300 not in
  EXPECT_TRUE((*rows)[2][2].Equals(Value::Bool(true)));   // 200 IN (a hit!)
  EXPECT_EQ(run.stats.subquery_invocations, 1);
  EXPECT_EQ(run.stats.subquery_cache_hits, 2);
}

TEST(ApplyMemoTest, LateralMemoizesPerBinding) {
  ExprPtr pred = MakeComparison(BinaryOp::kEq, MakeSlotRef(0, TypeId::kInt64),
                                MakeParamRef(0, TypeId::kInt64));
  auto inner = std::make_unique<FilterOp>(
      Rows({{I(1), I(100)}, {I(1), I(101)}, {I(2), I(200)}}, 2),
      std::move(pred));
  ApplyOp lateral(Rows({{I(1)}, {I(2)}, {I(1)}}, 1), std::move(inner),
                  std::vector<ParamSource>{{false, 0}}, 2);
  MemoRun run(1 << 20);
  auto rows = CollectRows(&lateral, &run.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 5u);  // 2 + 1 + 2
  EXPECT_TRUE((*rows)[4][2].Equals(I(101)));
  EXPECT_EQ(run.stats.subquery_invocations, 2);
  EXPECT_EQ(run.stats.subquery_cache_hits, 1);
  EXPECT_EQ(run.stats.subquery_cache_misses, 2);
  EXPECT_EQ(lateral.metrics().cache_hits, 1);
  EXPECT_EQ(run.guard.memory().used(), 0);
}

}  // namespace
}  // namespace decorr
