// OperatorMetrics accounting on hand-built plans: row counters match known
// cardinalities, Apply inner-context work rolls up into the outer tree,
// clocks stay zero-cost-correct when profiling is disabled, operator times
// nest inside their parents' on the paper's figure queries, and the
// Database-level ExplainAnalyze surfaces the annotated plan.
#include <gtest/gtest.h>

#include "decorr/common/resource.h"
#include "decorr/exec/apply.h"
#include "decorr/exec/filter_project.h"
#include "decorr/exec/join.h"
#include "decorr/exec/metrics.h"
#include "decorr/exec/scan.h"
#include "decorr/runtime/database.h"
#include "decorr/tpcd/queries.h"
#include "decorr/tpcd/tpcd.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

OperatorPtr Rows(std::vector<Row> rows, int width) {
  auto data = std::make_shared<const std::vector<Row>>(std::move(rows));
  return std::make_unique<RowsScanOp>(data, width);
}

std::vector<Row> Drain(Operator* op, bool profile = false,
                       ResourceGuard* guard = nullptr,
                       ExecStats* stats_out = nullptr) {
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = stats_out != nullptr ? stats_out : &stats;
  ctx.guard = guard;
  ctx.profile = profile;
  auto result = CollectRows(op, &ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.MoveValue() : std::vector<Row>{};
}

TablePtr EmpTable() {
  return MakeEmpDeptCatalog()->GetTable("emp").MoveValue();
}

// ---- leaf counters ----

TEST(MetricsTest, SeqScanCountsRowsInAndOut) {
  ExprPtr filter = MakeComparison(BinaryOp::kEq,
                                  MakeSlotRef(2, TypeId::kInt64),
                                  MakeConstant(I(20)));
  SeqScanOp scan(EmpTable(), {0}, std::move(filter));
  auto rows = Drain(&scan);
  EXPECT_EQ(rows.size(), 4u);  // four employees in building 20
  const OperatorMetrics& m = scan.metrics();
  EXPECT_EQ(m.rows_out, 4);
  EXPECT_EQ(m.rows_in_self, 8);  // all base rows visited, filtered inline
  EXPECT_EQ(m.open_calls, 1);
  EXPECT_EQ(m.close_calls, 1);
  EXPECT_EQ(m.next_calls, 5);  // 4 rows + the eof call

  MetricsNode node = CollectMetricsTree(scan);
  EXPECT_EQ(node.rows_in, 8);
  EXPECT_EQ(node.rows_out, 4);
  EXPECT_TRUE(node.children.empty());
}

TEST(MetricsTest, FilterDerivesRowsInFromChild) {
  ExprPtr pred = MakeComparison(BinaryOp::kGt,
                                MakeSlotRef(3, TypeId::kInt64),
                                MakeConstant(I(60)));
  auto scan = std::make_unique<SeqScanOp>(EmpTable(),
                                          std::vector<int>{0, 1, 2, 3},
                                          nullptr);
  FilterOp filter(std::move(scan), std::move(pred));
  auto rows = Drain(&filter);
  EXPECT_EQ(rows.size(), 4u);  // salaries 65, 70, 75, 85

  MetricsNode node = CollectMetricsTree(filter);
  EXPECT_EQ(node.name, "Filter");
  EXPECT_EQ(node.rows_out, 4);
  EXPECT_EQ(node.rows_in, 8);  // the child's rows_out
  ASSERT_EQ(node.children.size(), 1u);
  EXPECT_EQ(node.children[0].rows_out, 8);
}

// ---- clocks are zero when profiling is off, read on every call when on ----

TEST(MetricsTest, NoClocksWithoutProfiling) {
  SeqScanOp scan(EmpTable(), {0}, nullptr);
  (void)Drain(&scan, /*profile=*/false);
  const OperatorMetrics& m = scan.metrics();
  EXPECT_EQ(m.open_nanos, 0);
  EXPECT_EQ(m.next_nanos, 0);
  EXPECT_EQ(m.close_nanos, 0);
  EXPECT_EQ(m.TotalNanos(), 0);
  // The counters are still collected.
  EXPECT_EQ(m.rows_out, 8);
}

TEST(MetricsTest, EveryCallClockedWhenProfiling) {
  auto scan = std::make_unique<SeqScanOp>(EmpTable(),
                                          std::vector<int>{0, 3}, nullptr);
  SeqScanOp* scan_ptr = scan.get();
  FilterOp filter(std::move(scan),
                  MakeComparison(BinaryOp::kGt, MakeSlotRef(1, TypeId::kInt64),
                                 MakeConstant(I(60))));
  (void)Drain(&filter, /*profile=*/true);
  const OperatorMetrics& m = scan_ptr->metrics();
  EXPECT_EQ(m.next_calls, 9);
  EXPECT_GT(m.next_nanos, 0);
  EXPECT_EQ(m.TotalNanos(), m.open_nanos + m.next_nanos + m.close_nanos);

  // The filter's calls contain the scan's, so its time does too, and its
  // self time is what remains.
  MetricsNode node = CollectMetricsTree(filter);
  ASSERT_EQ(node.children.size(), 1u);
  EXPECT_LE(node.children[0].total_nanos, node.total_nanos);
  EXPECT_EQ(node.self_nanos, node.total_nanos - node.children[0].total_nanos);
  EXPECT_EQ(node.children[0].self_nanos, node.children[0].total_nanos);
}

// ---- Apply: inner-context work rolls up ----

TEST(MetricsTest, ApplyInnerWorkRollsUp) {
  // For each building in {10, 20, 30}: EXISTS emp in that building.
  auto inner = std::make_unique<SeqScanOp>(
      EmpTable(), std::vector<int>{0},
      MakeComparison(BinaryOp::kEq, MakeSlotRef(2, TypeId::kInt64),
                     MakeParamRef(0, TypeId::kInt64)));
  SeqScanOp* inner_ptr = inner.get();
  SubquerySemantics exists;
  exists.mode = SubqueryMode::kExists;
  ApplyOp apply(Rows({{I(10)}, {I(20)}, {I(30)}}, 1), std::move(inner),
                {{/*from_outer=*/false, /*index=*/0}}, std::move(exists));

  ExecStats stats;
  auto rows = Drain(&apply, /*profile=*/true, nullptr, &stats);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(stats.subquery_invocations, 3);

  // The inner plan was re-opened once per outer row and its counters
  // accumulated across invocations.
  EXPECT_EQ(inner_ptr->metrics().open_calls, 3);
  EXPECT_EQ(inner_ptr->metrics().rows_in_self, 24);  // 3 full scans of 8
  EXPECT_EQ(inner_ptr->metrics().rows_out, 7);       // 3 + 4 + 0 matches
  // The profile flag propagated into the inner execution context (clocks
  // only run under profiling).
  EXPECT_GT(inner_ptr->metrics().next_nanos, 0);

  MetricsNode node = CollectMetricsTree(apply);
  ASSERT_EQ(node.children.size(), 2u);  // input + subquery subplan
  EXPECT_EQ(node.children[1].role, "subquery 0");
  EXPECT_EQ(node.children[1].rows_out, 7);
  EXPECT_EQ(node.rows_in, 3 + 7);
  EXPECT_EQ(node.build_rows, 7);  // Apply materialized the inner results
}

// ---- GroupProbeApply: probes are index lookups, not invocations ----

TEST(MetricsTest, GroupProbeCountsProbesNotInvocations) {
  SubquerySemantics exists;
  exists.mode = SubqueryMode::kExists;
  std::vector<ExprPtr> probe_keys;
  probe_keys.push_back(MakeSlotRef(0, TypeId::kInt64));
  ApplyOp op(Rows({{I(1)}, {I(2)}, {N()}}, 1),
             Rows({{I(1)}, {I(1)}, {I(3)}}, 1),
             /*inner_key_cols=*/{0}, std::move(probe_keys), std::move(exists));
  ExecStats stats;
  auto rows = Drain(&op, /*profile=*/false, nullptr, &stats);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0][1].bool_value());   // 1 exists
  EXPECT_FALSE(rows[1][1].bool_value());  // 2 does not
  EXPECT_FALSE(rows[2][1].bool_value());  // NULL key: empty group, EXISTS=F

  EXPECT_EQ(stats.subquery_invocations, 0);  // decorrelated: inner ran once
  EXPECT_EQ(stats.index_lookups, 2);         // NULL key performs no probe
  const OperatorMetrics& m = op.metrics();
  EXPECT_EQ(m.index_probes, 2);
  EXPECT_EQ(m.build_rows, 3);  // materialized inner relation
}

// ---- build_rows / bytes_charged agree with the guard's accounting ----

TEST(MetricsTest, HashJoinBuildChargesMatchGuard) {
  std::vector<ExprPtr> lk, rk;
  lk.push_back(MakeSlotRef(0, TypeId::kInt64));
  rk.push_back(MakeSlotRef(0, TypeId::kInt64));
  HashJoinOp join(Rows({{I(1)}, {I(2)}}, 1),
                  Rows({{I(1), S("a")}, {I(2), S("b")}, {N(), S("x")}}, 2),
                  std::move(lk), std::move(rk), nullptr, JoinType::kInner);
  ResourceGuard guard;
  auto rows = Drain(&join, /*profile=*/false, &guard);
  EXPECT_EQ(rows.size(), 2u);
  const OperatorMetrics& m = join.metrics();
  EXPECT_EQ(m.build_rows, 2);  // the NULL-key build row is skipped
  EXPECT_GT(m.bytes_charged, 0);
  // Everything charged was released on Close; the high-water mark covers at
  // least the build table the metrics saw.
  EXPECT_EQ(guard.memory().used(), 0);
  EXPECT_GE(guard.memory().peak(), m.bytes_charged);
}

TEST(MetricsTest, NoBytesChargedWithoutGuard) {
  std::vector<ExprPtr> lk, rk;
  lk.push_back(MakeSlotRef(0, TypeId::kInt64));
  rk.push_back(MakeSlotRef(0, TypeId::kInt64));
  HashJoinOp join(Rows({{I(1)}}, 1), Rows({{I(1)}}, 1), std::move(lk),
                  std::move(rk), nullptr, JoinType::kInner);
  (void)Drain(&join);
  EXPECT_EQ(join.metrics().build_rows, 1);
  EXPECT_EQ(join.metrics().bytes_charged, 0);  // nothing was charged
}

// ---- operator times nest inside their parents' on the figure queries ----

// Every call is clocked, and a child runs only inside its parent's calls,
// so no node may report more time than its parent. The exception is the
// child of CachedMaterialize: a shared subplan is computed once, inside
// whichever consumer opened it first, but appears under every consumer.
void ExpectChildTimesWithinParent(const MetricsNode& node,
                                  const std::string& where) {
  for (const MetricsNode& child : node.children) {
    if (node.name != "CachedMaterialize") {
      EXPECT_LE(child.total_nanos, node.total_nanos)
          << where << ": " << child.detail << " under " << node.detail;
    }
    ExpectChildTimesWithinParent(child, where);
  }
}

TEST(MetricsTest, FigureOperatorTimesNestInsideTheirParents) {
  Database db(std::make_shared<Catalog>());
  TpcdConfig config;
  config.scale_factor = 0.01;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  struct Figure {
    const char* id;
    std::string sql;
  };
  const Figure indexed[] = {{"fig5", TpcdQuery1()},
                            {"fig6", TpcdQuery1Variant()},
                            {"fig8", TpcdQuery2()},
                            {"fig9", TpcdQuery3()}};
  const Strategy strategies[] = {
      Strategy::kNestedIteration, Strategy::kNestedIterationCached,
      Strategy::kKim,             Strategy::kDayal,
      Strategy::kMagic,           Strategy::kOptMagic,
      Strategy::kAuto};
  auto check = [&db, &strategies](const Figure& fig) {
    for (Strategy s : strategies) {
      QueryOptions options;
      options.strategy = s;
      auto result = db.ExplainAnalyze(fig.sql, options);
      ASSERT_TRUE(result.ok()) << fig.id << " " << StrategyName(s) << ": "
                               << result.status().ToString();
      ExpectChildTimesWithinParent(
          result->profile.plan,
          std::string(fig.id) + " " + StrategyName(s));
    }
  };
  for (const Figure& fig : indexed) check(fig);
  // Figure 7: the Figure 6 query with the partsupp indexes dropped.
  ASSERT_TRUE(db.DropIndex("partsupp", "partsupp_partkey").ok());
  ASSERT_TRUE(db.DropIndex("partsupp", "partsupp_suppkey").ok());
  check({"fig7", TpcdQuery1Variant()});
}

// ---- key filter rejections: rendered and serialized only when nonzero ----

TEST(MetricsTest, KeyFilterRejectionsShowOnlyWhereTheyHappened) {
  // emp's buildings: 10 x3, 20 x4, 40 x1; the build holds building 10.
  auto make = [](JoinType type) {
    std::vector<ExprPtr> left, right;
    left.push_back(MakeSlotRef(0, TypeId::kInt64));
    right.push_back(MakeSlotRef(0, TypeId::kInt64));
    return std::make_unique<HashJoinOp>(
        std::make_unique<SeqScanOp>(EmpTable(), std::vector<int>{2}, nullptr),
        Rows({{I(10)}}, 1), std::move(left), std::move(right), nullptr,
        type);
  };
  auto inner = make(JoinType::kInner);
  EXPECT_EQ(Drain(inner.get()).size(), 3u);
  const MetricsNode node = CollectMetricsTree(*inner);
  ASSERT_EQ(node.children.size(), 2u);
  const MetricsNode& scan = node.children[0];
  EXPECT_EQ(scan.rows_in, 8);
  EXPECT_EQ(scan.rows_out, 3);
  EXPECT_EQ(scan.keyfilter_rejected, 5);
  EXPECT_NE(RenderMetricsTree(node, false)
                .find("(rows=3 in=8 keyfilter=5 loops=1)"),
            std::string::npos);
  EXPECT_NE(MetricsNodeToJson(node).find("\"keyfilter_rejected\":5"),
            std::string::npos);

  // A left outer join offers no filter: nothing to report.
  auto outer = make(JoinType::kLeftOuter);
  EXPECT_EQ(Drain(outer.get()).size(), 8u);
  const MetricsNode plain = CollectMetricsTree(*outer);
  EXPECT_EQ(RenderMetricsTree(plain, false).find("keyfilter"),
            std::string::npos);
  EXPECT_EQ(MetricsNodeToJson(plain).find("keyfilter"), std::string::npos);
}

// ---- Database surface: ExplainAnalyze and QueryResult::profile ----

TEST(MetricsTest, ExplainAnalyzeAnnotatesEveryOperator) {
  Database db(MakeEmpDeptCatalog());
  auto result = db.ExplainAnalyze(kPaperExampleQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);
  EXPECT_TRUE(result->profile.enabled);
  // Every line of the annotated plan reports rows and loops.
  ASSERT_FALSE(result->analyze_text.empty());
  size_t lines = 0, annotated = 0;
  size_t pos = 0;
  while (pos < result->analyze_text.size()) {
    size_t nl = result->analyze_text.find('\n', pos);
    if (nl == std::string::npos) nl = result->analyze_text.size();
    const std::string line = result->analyze_text.substr(pos, nl - pos);
    if (!line.empty() && line.find("parse=") == std::string::npos) {
      ++lines;
      if (line.find("rows=") != std::string::npos &&
          line.find("loops=") != std::string::npos &&
          line.find("time=") != std::string::npos &&
          line.find("self=") != std::string::npos) {
        ++annotated;
      }
    }
    pos = nl + 1;
  }
  EXPECT_GT(lines, 3u);  // a real plan tree, not a single operator
  EXPECT_EQ(lines, annotated);
  // Root cardinality matches the result.
  EXPECT_EQ(result->profile.plan.rows_out, 3);
  // Phase timings recorded.
  EXPECT_GT(result->profile.parse_nanos, 0);
  EXPECT_GT(result->profile.exec_nanos, 0);
  // JSON form is non-trivial.
  const std::string json = result->profile.ToJson();
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  EXPECT_NE(json.find("\"self_ms\""), std::string::npos);
}

TEST(MetricsTest, PlainExecuteSkipsOperatorClocks) {
  Database db(MakeEmpDeptCatalog());
  auto result = db.Execute(kPaperExampleQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->profile.enabled);
  EXPECT_TRUE(result->analyze_text.empty());
  // Phase timings come for free on every query.
  EXPECT_GT(result->profile.parse_nanos, 0);
  const std::string json = result->profile.ToJson();
  EXPECT_NE(json.find("\"plan\":null"), std::string::npos);
}

}  // namespace
}  // namespace decorr
