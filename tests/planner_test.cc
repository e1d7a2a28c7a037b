// Planner tests: access-path selection, join strategies, apply placement
// (the NI plan-choice the paper describes for Query 1 vs Query 2), and the
// OptMag materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "decorr/planner/planner.h"
#include "decorr/runtime/database.h"
#include "decorr/tpcd/queries.h"
#include "decorr/tpcd/tpcd.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : db_(MakeEmpDeptCatalog()) {
    // Indexes used by access-path tests.
    EXPECT_TRUE(db_.CreateIndex("emp", "emp_building", {"building"}).ok());
    EXPECT_TRUE(db_.CreateIndex("dept", "dept_building", {"building"}).ok());
  }

  std::string PlanOf(const std::string& sql, QueryOptions options = {}) {
    auto result = db_.Explain(sql, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\nfor: " << sql;
    return result.ok() ? result->plan_text : "";
  }

  QueryResult Run(const std::string& sql, QueryOptions options = {}) {
    auto result = db_.Execute(sql, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.MoveValue() : QueryResult{};
  }

  Database db_;
};

TEST_F(PlannerTest, EqualityPredicateUsesIndex) {
  std::string plan = PlanOf("SELECT name FROM emp WHERE building = 10");
  EXPECT_NE(plan.find("IndexLookup(emp)"), std::string::npos) << plan;
}

TEST_F(PlannerTest, IndexDisabledFallsBackToScan) {
  QueryOptions options;
  options.planner.use_indexes = false;
  std::string plan =
      PlanOf("SELECT name FROM emp WHERE building = 10", options);
  EXPECT_EQ(plan.find("IndexLookup"), std::string::npos) << plan;
  EXPECT_NE(plan.find("SeqScan(emp)"), std::string::npos) << plan;
}

TEST_F(PlannerTest, RangePredicateCannotUseHashIndex) {
  std::string plan = PlanOf("SELECT name FROM emp WHERE building > 10");
  EXPECT_EQ(plan.find("IndexLookup"), std::string::npos) << plan;
}

TEST_F(PlannerTest, EquiJoinBecomesHashOrIndexJoin) {
  std::string plan = PlanOf(
      "SELECT d.name, e.name FROM dept d, emp e "
      "WHERE d.building = e.building");
  const bool has_join = plan.find("HashJoin") != std::string::npos ||
                        plan.find("IndexJoin") != std::string::npos;
  EXPECT_TRUE(has_join) << plan;
  EXPECT_EQ(plan.find("NestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, NoPredicateMeansCrossProduct) {
  std::string plan = PlanOf("SELECT d.name, e.name FROM dept d, emp e");
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, CorrelatedSubqueryBecomesApply) {
  std::string plan = PlanOf(kPaperExampleQuery);
  EXPECT_NE(plan.find("Apply"), std::string::npos) << plan;
  EXPECT_NE(plan.find("subquery mode=scalar"), std::string::npos) << plan;
}

TEST_F(PlannerTest, CorrelatedSubqueryIndexedThroughParameter) {
  // The NI subquery should reach emp through the building index, keyed by
  // the correlation parameter.
  std::string plan = PlanOf(kPaperExampleQuery);
  EXPECT_NE(plan.find(":p0"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexLookup(emp)"), std::string::npos) << plan;
}

TEST_F(PlannerTest, OrderByLimitLowersToSortLimit) {
  std::string plan =
      PlanOf("SELECT name FROM emp ORDER BY name DESC LIMIT 3");
  EXPECT_NE(plan.find("Sort"), std::string::npos);
  EXPECT_NE(plan.find("Limit 3"), std::string::npos);
}

TEST_F(PlannerTest, DistinctLowersToAggregateWithoutAggregates) {
  std::string plan = PlanOf("SELECT DISTINCT building FROM emp");
  EXPECT_NE(plan.find("Distinct"), std::string::npos);
}

TEST_F(PlannerTest, GroupByLowersToHashAggregate) {
  std::string plan =
      PlanOf("SELECT building, COUNT(*) FROM emp GROUP BY building");
  EXPECT_NE(plan.find("HashAggregate"), std::string::npos);
}

TEST_F(PlannerTest, UnionLowersToUnionAll) {
  std::string plan = PlanOf(
      "SELECT building FROM emp UNION ALL SELECT building FROM dept");
  EXPECT_NE(plan.find("UnionAll"), std::string::npos);
  // Distinct union adds a Distinct on top.
  std::string dist =
      PlanOf("SELECT building FROM emp UNION SELECT building FROM dept");
  EXPECT_NE(dist.find("Distinct"), std::string::npos);
}

TEST_F(PlannerTest, OptMagicMaterializesSupplementary) {
  QueryOptions options;
  options.strategy = Strategy::kOptMagic;
  std::string plan = PlanOf(kPaperExampleQuery, options);
  EXPECT_NE(plan.find("CachedMaterialize"), std::string::npos) << plan;
  QueryOptions plain;
  plain.strategy = Strategy::kMagic;
  std::string mag_plan = PlanOf(kPaperExampleQuery, plain);
  EXPECT_EQ(mag_plan.find("CachedMaterialize"), std::string::npos) << mag_plan;
}

TEST_F(PlannerTest, MagicCountQueryPlansLeftOuterJoin) {
  QueryOptions options;
  options.strategy = Strategy::kMagic;
  std::string plan = PlanOf(kPaperExampleQuery, options);
  EXPECT_NE(plan.find("LeftOuter"), std::string::npos) << plan;
  EXPECT_NE(plan.find("COALESCE"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ApplyPlacementPrefersFewerInvocations) {
  // Build tables where the cost choice is stark: `big` joins `outer` such
  // that the join explodes, while the subquery only needs `outer`'s
  // correlation column — the apply must run before the join.
  ASSERT_TRUE(db_.CreateTable(TableSchema("outer_t",
                                          {{"k", TypeId::kInt64, false},
                                           {"grp", TypeId::kInt64, false}},
                                          {0}))
                  .ok());
  ASSERT_TRUE(db_.CreateTable(TableSchema("big_t",
                                          {{"k", TypeId::kInt64, false},
                                           {"val", TypeId::kInt64, false}}))
                  .ok());
  ASSERT_TRUE(db_.CreateTable(TableSchema("inner_t",
                                          {{"grp", TypeId::kInt64, false},
                                           {"v", TypeId::kInt64, false}}))
                  .ok());
  std::vector<Row> outer_rows, big_rows, inner_rows;
  for (int i = 0; i < 10; ++i) outer_rows.push_back({I(i), I(i % 3)});
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 20; ++j) big_rows.push_back({I(i), I(j)});
  }
  for (int i = 0; i < 30; ++i) inner_rows.push_back({I(i % 3), I(i)});
  ASSERT_TRUE(db_.Insert("outer_t", outer_rows).ok());
  ASSERT_TRUE(db_.Insert("big_t", big_rows).ok());
  ASSERT_TRUE(db_.Insert("inner_t", inner_rows).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());

  // The subquery's correlation source is outer_t.grp; the join with big_t
  // multiplies rows 20x. Early placement = 10 invocations, late = 200.
  QueryResult r = Run(
      "SELECT o.k, b.val FROM outer_t o, big_t b WHERE o.k = b.k AND "
      "b.val < (SELECT SUM(i.v) FROM inner_t i WHERE i.grp = o.grp)");
  EXPECT_EQ(r.stats.subquery_invocations, 10);

  // When the predicate makes the join *reduce* cardinality dramatically the
  // other direction wins: with a selective filter on big_t, late placement
  // costs fewer invocations. (big_t filtered to 1 row -> 1 invocation.)
  QueryResult late = Run(
      "SELECT o.k, b.val FROM outer_t o, big_t b WHERE o.k = b.k AND "
      "b.val = 7 AND b.k = 3 AND "
      "o.grp > (SELECT COUNT(*) FROM inner_t i WHERE i.grp = o.grp AND "
      "         i.v > b.val)");
  EXPECT_LE(late.stats.subquery_invocations, 2);
}

TEST_F(PlannerTest, DecorrelatedExistentialUsesGroupProbe) {
  QueryOptions options;
  options.strategy = Strategy::kMagic;
  std::string plan = PlanOf(
      "SELECT d.name FROM dept d WHERE EXISTS "
      "(SELECT 1 FROM emp e WHERE e.building = d.building)",
      options);
  EXPECT_NE(plan.find("GroupProbeApply"), std::string::npos) << plan;
}

TEST_F(PlannerTest, PlansAreReproducible) {
  const std::string a = PlanOf(kPaperExampleQuery);
  const std::string b = PlanOf(kPaperExampleQuery);
  EXPECT_EQ(a, b);
}

// ---- column pruning: access paths project only what the plan reads ----

// The FROM-clause access line of `table` in `plan`, e.g.
// "SeqScan(parts) cols=[p_partkey] filter=...".
std::string AccessLine(const std::string& plan, const std::string& op) {
  const size_t at = plan.find(op);
  if (at == std::string::npos) return "";
  return plan.substr(at, plan.find('\n', at) - at);
}

TEST(PlannerPruningTest, Fig6ScansCarryOnlyReadColumns) {
  Database db(std::make_shared<Catalog>());
  TpcdConfig config;
  config.scale_factor = 0.01;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  QueryOptions ni;
  ni.strategy = Strategy::kNestedIteration;
  auto plan = db.Explain(TpcdQuery1Variant(), ni);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& text = plan->plan_text;
  // parts: 1 of 7 columns; p_type only feeds the scan's own LIKE filter.
  EXPECT_EQ(AccessLine(text, "SeqScan(parts)"),
            "SeqScan(parts) cols=[p_partkey] filter=$3:p_type LIKE '%BRASS'")
      << text;
  // partsupp under the join: 2 of 4. ps_suppkey is read only by the join
  // key pair the index probe consumes; ps_availqty is never read.
  EXPECT_NE(AccessLine(text, "IndexJoin(partsupp)")
                .find("cols=[ps_partkey, ps_supplycost]"),
            std::string::npos)
      << text;
  // partsupp in the subquery: 2 of 4, ps_partkey is the lookup key.
  EXPECT_NE(AccessLine(text, "IndexLookup(partsupp)")
                .find("cols=[ps_suppkey, ps_supplycost]"),
            std::string::npos)
      << text;
  // The subquery's suppliers join appends no column at all: its region
  // predicate filters the raw table row in place rather than riding along
  // as a residual over the joined row.
  EXPECT_NE(AccessLine(text, "IndexJoin(suppliers)")
                .find("cols=[] filter=$4:s_region IN"),
            std::string::npos)
      << text;

  auto ni_rows = db.Execute(TpcdQuery1Variant(), ni);
  ASSERT_TRUE(ni_rows.ok()) << ni_rows.status().ToString();
  EXPECT_FALSE(ni_rows->rows.empty());
  for (Strategy s : {Strategy::kMagic, Strategy::kOptMagic}) {
    QueryOptions options;
    options.strategy = s;
    options.fallback = false;
    auto rows = db.Execute(TpcdQuery1Variant(), options);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->rows.size(), ni_rows->rows.size()) << StrategyName(s);
  }
}

TEST_F(PlannerTest, CountStarScanProjectsNoColumn) {
  const std::string sql = "SELECT COUNT(*) FROM emp WHERE salary > 55";
  EXPECT_NE(PlanOf(sql).find("SeqScan(emp) cols=[] filter=($3:salary > 55)"),
            std::string::npos)
      << PlanOf(sql);
  QueryResult r = Run(sql);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].Equals(I(5))) << r.rows[0][0].ToString();
  EXPECT_EQ(r.stats.rows_scanned, 8);
}

TEST_F(PlannerTest, LeftOuterPaddedSidePredicatesKeepTheirColumns) {
  // dept D LEFT OUTER JOIN emp E ON D.building = E.building AND
  // E.salary > 60, kept where D.budget < 10000, built by hand so the
  // null-padded side is a base table. E.salary is read only by a
  // padded-side predicate, which runs over the joined row (its rows must be
  // padded, not dropped), so E's layout must still carry it. D.budget is
  // read only by a preserved-side predicate, which D's scan consumes over
  // the raw row, so D's layout leaves it out.
  QueryGraph graph;
  auto dept = db_.catalog().GetTable("dept");
  auto emp = db_.catalog().GetTable("emp");
  ASSERT_TRUE(dept.ok() && emp.ok());
  Box* box = graph.NewBox(BoxKind::kSelect);
  Quantifier* d = graph.NewQuantifier(box, graph.NewBaseTableBox(*dept),
                                      QuantifierKind::kForeach, "D");
  Quantifier* e = graph.NewQuantifier(box, graph.NewBaseTableBox(*emp),
                                      QuantifierKind::kForeach, "E");
  box->null_padded_qid = e->id;
  box->predicates.push_back(MakeComparison(
      BinaryOp::kEq, MakeColumnRef(d->id, 3, TypeId::kInt64, "building"),
      MakeColumnRef(e->id, 2, TypeId::kInt64, "building")));
  box->predicates.push_back(MakeComparison(
      BinaryOp::kGt, MakeColumnRef(e->id, 3, TypeId::kInt64, "salary"),
      MakeConstant(I(60))));
  box->predicates.push_back(MakeComparison(
      BinaryOp::kLt, MakeColumnRef(d->id, 1, TypeId::kInt64, "budget"),
      MakeConstant(I(10000))));
  box->outputs.push_back(
      {"dname", MakeColumnRef(d->id, 0, TypeId::kString, "name")});
  box->outputs.push_back(
      {"ename", MakeColumnRef(e->id, 1, TypeId::kString, "name")});
  graph.set_root(box);

  Planner planner(db_.catalog());
  auto plan = planner.PlanGraph(&graph);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("SeqScan(emp) cols=[name, building, salary]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("SeqScan(dept) cols=[name, building] "
                      "filter=($1:budget < 10000)"),
            std::string::npos)
      << text;

  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  auto rows = CollectRows(plan->root.get(), &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::multiset<std::string> got;
  for (const Row& row : *rows) got.insert(RowToString(row));
  const std::multiset<std::string> want = {
      "('math', 'cat')",  "('cs', 'cat')",  "('ee', 'eve')",
      "('ee', 'fox')",    "('chem', 'eve')", "('chem', 'fox')",
      "('physics', NULL)"};
  EXPECT_EQ(got, want);
}

TEST_F(PlannerTest, LeftOuterWithoutEqualityJoinsByNestedLoopCondition) {
  // dept D LEFT OUTER JOIN emp E ON E.emp_id > D.num_emps, kept where
  // D.num_emps > 5, built by hand. The one predicate on the padded side is
  // not an equality, so there is no hash key: it becomes the condition of
  // a nested-loop left outer join, and bio (9 employees, no emp_id above 9)
  // is padded, not dropped.
  QueryGraph graph;
  auto dept = db_.catalog().GetTable("dept");
  auto emp = db_.catalog().GetTable("emp");
  ASSERT_TRUE(dept.ok() && emp.ok());
  Box* box = graph.NewBox(BoxKind::kSelect);
  Quantifier* d = graph.NewQuantifier(box, graph.NewBaseTableBox(*dept),
                                      QuantifierKind::kForeach, "D");
  Quantifier* e = graph.NewQuantifier(box, graph.NewBaseTableBox(*emp),
                                      QuantifierKind::kForeach, "E");
  box->null_padded_qid = e->id;
  box->predicates.push_back(MakeComparison(
      BinaryOp::kGt, MakeColumnRef(e->id, 0, TypeId::kInt64, "emp_id"),
      MakeColumnRef(d->id, 2, TypeId::kInt64, "num_emps")));
  box->predicates.push_back(MakeComparison(
      BinaryOp::kGt, MakeColumnRef(d->id, 2, TypeId::kInt64, "num_emps"),
      MakeConstant(I(5))));
  box->outputs.push_back(
      {"dname", MakeColumnRef(d->id, 0, TypeId::kString, "name")});
  box->outputs.push_back(
      {"ename", MakeColumnRef(e->id, 1, TypeId::kString, "name")});
  graph.set_root(box);

  Planner planner(db_.catalog());
  auto plan = planner.PlanGraph(&graph);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("NestedLoopJoin on ($2:emp_id > $1:num_emps) "
                      "(left outer)"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("Hash"), std::string::npos) << text;

  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  auto rows = CollectRows(plan->root.get(), &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::multiset<std::string> got;
  for (const Row& row : *rows) got.insert(RowToString(row));
  const std::multiset<std::string> want = {"('cs', 'gil')", "('cs', 'hal')",
                                           "('bio', NULL)"};
  EXPECT_EQ(got, want);
}

TEST_F(PlannerTest, IndexJoinKeepsUncoveredKeyPairAsResidual) {
  ASSERT_TRUE(db_.CreateTable(TableSchema("l_t",
                                          {{"k", TypeId::kInt64, false},
                                           {"v", TypeId::kInt64, false},
                                           {"pad", TypeId::kString, false}}))
                  .ok());
  ASSERT_TRUE(db_.CreateTable(TableSchema("r_t",
                                          {{"k", TypeId::kInt64, false},
                                           {"v", TypeId::kInt64, false},
                                           {"w", TypeId::kInt64, false},
                                           {"note", TypeId::kString, false}}))
                  .ok());
  ASSERT_TRUE(db_.Insert("l_t", {{I(1), I(10), S("a")},
                                 {I(2), I(20), S("b")},
                                 {I(3), I(30), S("c")}})
                  .ok());
  std::vector<Row> r_rows = {{I(1), I(10), I(0), S("x0")},
                             {I(1), I(20), I(1), S("x1")},
                             {I(2), I(20), I(2), S("x2")},
                             {I(2), I(20), I(9), S("x3")},
                             {I(3), I(10), I(3), S("x4")},
                             {I(1), I(10), I(9), S("x5")}};
  for (int64_t i = 0; i < 6; ++i) r_rows.push_back({I(9), I(0), I(i), S("f")});
  ASSERT_TRUE(db_.Insert("r_t", r_rows).ok());
  ASSERT_TRUE(db_.CreateIndex("r_t", "r_k", {"k"}).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());

  // The index covers r.k only: r.v = l.v stays a residual over the joined
  // row, so r.v is projected. r.k feeds only the probe and r.w only the
  // table-local filter; neither is.
  const std::string sql =
      "SELECT l.pad, r.note FROM l_t l, r_t r "
      "WHERE l.k = r.k AND l.v = r.v AND r.w <> 9";
  const std::string plan = PlanOf(sql);
  EXPECT_NE(AccessLine(plan, "IndexJoin(r_t)")
                .find("cols=[v, note] filter=($2:w <> 9) "
                      "residual=($1:v = $3:v)"),
            std::string::npos)
      << plan;
  QueryOptions no_index;
  no_index.planner.use_indexes = false;
  for (const QueryOptions& options : {QueryOptions{}, no_index}) {
    std::multiset<std::string> got;
    for (const Row& row : Run(sql, options).rows) got.insert(RowToString(row));
    EXPECT_EQ(got, (std::multiset<std::string>{"('a', 'x0')", "('b', 'x2')"}))
        << plan;
  }
}

TEST_F(PlannerTest, CorrelatedReferenceKeepsOuterColumns) {
  // dept.budget and dept.building are read only inside the subquery, as
  // correlated references; the outer scan must still carry them.
  const std::string sql =
      "SELECT d.name FROM dept d WHERE EXISTS (SELECT 1 FROM emp e "
      "WHERE e.building = d.building AND e.salary > d.budget / 100)";
  QueryOptions ni;
  ni.strategy = Strategy::kNestedIteration;
  const std::string plan = PlanOf(sql, ni);
  EXPECT_NE(plan.find("SeqScan(dept) cols=[name, budget, building]"),
            std::string::npos)
      << plan;
  for (Strategy s : {Strategy::kNestedIteration, Strategy::kMagic}) {
    QueryOptions options;
    options.strategy = s;
    options.fallback = false;
    std::vector<std::string> names;
    for (const Row& row : Run(sql, options).rows) {
      names.emplace_back(row[0].string_value());
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"chem", "ee", "math"}))
        << StrategyName(s);
  }
}

TEST_F(PlannerTest, ScalarSubqueryInSelectList) {
  QueryResult r = Run(
      "SELECT d.name, (SELECT COUNT(*) FROM emp e "
      "                WHERE e.building = d.building) AS c FROM dept d "
      "ORDER BY name");
  ASSERT_EQ(r.rows.size(), 6u);
  for (const Row& row : r.rows) {
    EXPECT_FALSE(row[1].is_null());  // COUNT never NULL
  }
}

}  // namespace
}  // namespace decorr
