// Execution guardrails end-to-end: memory budgets, row budgets, deadlines,
// cooperative cancellation, and the nested-iteration rewrite fallback. Each
// limit must surface as the right StatusCode with no partial-result
// corruption: the same Database immediately answers the next (unlimited)
// query correctly.
#include <gtest/gtest.h>

#include <algorithm>

#include "decorr/common/fault.h"
#include "decorr/exec/scan.h"
#include "decorr/planner/planner.h"
#include "decorr/runtime/database.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

class GuardrailTest : public ::testing::Test {
 protected:
  GuardrailTest() : db_(MakeEmpDeptCatalog()) {
    // A table big enough that scans tick the guard well past the deadline
    // sampling stride.
    TableSchema big("big",
                    {{"k", TypeId::kInt64, false}, {"v", TypeId::kInt64, false}},
                    /*primary_key=*/{0});
    EXPECT_TRUE(db_.CreateTable(big).ok());
    std::vector<Row> rows;
    for (int64_t k = 0; k < 512; ++k) rows.push_back({I(k), I(k % 7)});
    EXPECT_TRUE(db_.Insert("big", rows).ok());
    EXPECT_TRUE(db_.AnalyzeAll().ok());
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  // The database must answer correctly after a guardrail abort: no partial
  // results, no stale charges, no corrupted state.
  void ExpectIntact() {
    auto r = db_.Execute("SELECT k FROM big");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 512u);
    EXPECT_TRUE(r->fallback_reason.empty());
  }

  Database db_;
};

TEST_F(GuardrailTest, MemoryBudgetExceeded) {
  QueryOptions options;
  options.limits.memory_budget_bytes = 1;
  auto r = db_.Execute("SELECT v, COUNT(*) FROM big GROUP BY v", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("memory budget"), std::string::npos)
      << r.status().ToString();
  ExpectIntact();
}

// Pin the spill-off contract: with QueryOptions::spill at its default
// (false), a budget trip surfaces the verbatim kResourceExhausted — the
// spill machinery must not engage, soften the message, or skew the
// reported peak. A budget set at the measured peak must still pass.
TEST_F(GuardrailTest, SpillOffBudgetTripsStayVerbatim) {
  const std::string sql = "SELECT v, COUNT(*) FROM big GROUP BY v";
  auto unlimited = db_.Execute(sql);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  const int64_t peak = unlimited->stats.peak_memory_bytes;
  ASSERT_GT(peak, 0);

  QueryOptions fits;
  fits.limits.memory_budget_bytes = peak;
  auto ok = db_.Execute(sql, fits);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->stats.peak_memory_bytes, peak)
      << "peak accounting drifted between identical runs";
  EXPECT_LE(ok->stats.peak_memory_bytes, peak);

  QueryOptions trips;
  trips.limits.memory_budget_bytes = peak / 2;
  auto r = db_.Execute(sql, trips);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("memory budget exceeded"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(r.status().message().find("spill"), std::string::npos)
      << "spill-off trip mentions spilling: " << r.status().ToString();
  ExpectIntact();
}

TEST_F(GuardrailTest, RowBudgetExceeded) {
  QueryOptions options;
  options.limits.row_budget = 5;
  auto r = db_.Execute("SELECT k FROM big", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("row budget"), std::string::npos)
      << r.status().ToString();
  ExpectIntact();
}

TEST_F(GuardrailTest, ExpiredDeadlineAbortsExecution) {
  QueryOptions options;
  options.limits.timeout_micros = 1;  // expires before the scan finishes
  auto r = db_.Execute("SELECT k FROM big", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ExpectIntact();
}

TEST_F(GuardrailTest, CancellationMidScan) {
  QueryOptions options;
  options.limits.cancel = std::make_shared<CancellationToken>();
  // As if a concurrent Cancel() landed after ten cooperative polls.
  options.limits.cancel->CancelAfterChecks(10);
  auto r = db_.Execute("SELECT k FROM big", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ExpectIntact();
}

// Plans `sql` under nested iteration and drives the plan directly, so the
// work counters in *stats survive a guard trip.
Status RunCounted(Database* db, const std::string& sql, ResourceGuard* guard,
                  ExecStats* stats) {
  ResourceGuard prepare_guard;
  DECORR_ASSIGN_OR_RETURN(PreparedQuery prepared,
                          db->Prepare(sql, QueryOptions{}, &prepare_guard));
  Planner planner(db->catalog());
  DECORR_ASSIGN_OR_RETURN(PhysicalPlan plan,
                          planner.PlanQuery(*prepared.bound));
  ExecContext ctx;
  ctx.stats = stats;
  ctx.guard = guard;
  return CollectRows(plan.root.get(), &ctx).status();
}

TEST_F(GuardrailTest, CancellationLandsWhileInnerScansPassNothing) {
  // An unindexed correlated subquery whose inner scan passes one row in
  // 8,192: nearly every chunk the scan filters comes back empty, so the
  // scan must poll the guard per chunk, not only per row it returns.
  TableSchema sparse("sparse", {{"k", TypeId::kInt64, false},
                                {"v", TypeId::kInt64, false}});
  ASSERT_TRUE(db_.CreateTable(sparse).ok());
  std::vector<Row> rows;
  for (int64_t k = 0; k < 8192; ++k) {
    rows.push_back({I(k), I(k == 5000 ? 25 : k % 7)});
  }
  ASSERT_TRUE(db_.Insert("sparse", rows).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  const std::string sql =
      "SELECT name FROM dept WHERE EXISTS "
      "(SELECT * FROM sparse s WHERE s.v > dept.building)";

  ResourceGuard unlimited;
  ExecStats full;
  ASSERT_TRUE(RunCounted(&db_, sql, &unlimited, &full).ok());
  ASSERT_EQ(full.subquery_invocations, 6);
  ASSERT_EQ(full.rows_scanned, 6 + 6 * 8192);

  constexpr int64_t kPolls = 8;
  ResourceGuard guard;
  auto token = std::make_shared<CancellationToken>();
  token->CancelAfterChecks(kPolls);
  guard.set_cancel(token);
  ExecStats cancelled;
  Status st = RunCounted(&db_, sql, &guard, &cancelled);
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_LT(cancelled.rows_scanned, full.rows_scanned);
  // Each poll covers at most one chunk of walked rows, so the trip lands
  // inside the first inner scan rather than after it.
  EXPECT_LE(cancelled.rows_scanned,
            kPolls * static_cast<int64_t>(FilteredRowCursor::kChunkRows));
  ExpectIntact();
}

TEST_F(GuardrailTest, PreCancelledTokenFailsBeforeAnyWork) {
  QueryOptions options;
  options.limits.cancel = std::make_shared<CancellationToken>();
  options.limits.cancel->Cancel();
  auto r = db_.Execute("SELECT k FROM big", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ExpectIntact();
}

TEST_F(GuardrailTest, StatsReportPeakMemoryAndRowsMaterialized) {
  auto r = db_.Execute(kPaperExampleQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stats.peak_memory_bytes, 0);
  EXPECT_GT(r->stats.rows_materialized, 0);
}

TEST_F(GuardrailTest, ForcedRewriteFailureFallsBackToNestedIteration) {
  FaultInjector::Global().Arm("rewrite.magic",
                              Status::Internal("injected rewrite failure"));
  QueryOptions magic;
  magic.strategy = Strategy::kMagic;
  auto r = db_.Execute(kPaperExampleQuery, magic);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->fallback_reason.find("fell back to nested iteration"),
            std::string::npos)
      << r->fallback_reason;
  std::vector<std::string> names;
  for (const Row& row : r->rows) names.emplace_back(row[0].string_value());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, PaperExampleAnswers());

  // Opting out surfaces the rewrite error instead.
  magic.fallback = false;
  auto strict = db_.Execute(kPaperExampleQuery, magic);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInternal);
  EXPECT_EQ(strict.status().message(), "injected rewrite failure");
}

TEST_F(GuardrailTest, GuardrailTripsNeverFallBack) {
  // A budget trip under a rewrite strategy must NOT retry as NI — it would
  // blow the same budget again.
  QueryOptions magic;
  magic.strategy = Strategy::kMagic;
  magic.limits.row_budget = 1;
  auto r = db_.Execute(kPaperExampleQuery, magic);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GuardrailTest, InputErrorsNeverFallBack) {
  QueryOptions magic;
  magic.strategy = Strategy::kMagic;
  EXPECT_EQ(db_.Execute("SELECT FROM WHERE", magic).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(db_.Execute("SELECT x FROM no_such_table", magic).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace decorr
