// Database façade tests: lifecycle, error propagation, EXPLAIN, statistics
// refresh, and result rendering.
#include <gtest/gtest.h>

#include "decorr/runtime/csv.h"
#include "decorr/runtime/database.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

TEST(DatabaseTest, CreateInsertQuery) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t",
                                         {{"k", TypeId::kInt64, false},
                                          {"v", TypeId::kString, true}},
                                         {0}))
                  .ok());
  ASSERT_TRUE(db.Insert("t", {{I(1), S("one")}, {I(2), S("two")}}).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto result = db.Execute("SELECT v FROM t WHERE k = 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].string_value(), "two");
  EXPECT_EQ(result->column_names[0], "v");
  EXPECT_EQ(result->stats.rows_output, 1);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database db;
  TableSchema schema("t", {{"k", TypeId::kInt64, false}});
  ASSERT_TRUE(db.CreateTable(schema).ok());
  EXPECT_EQ(db.CreateTable(schema).code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, InsertIntoUnknownTable) {
  Database db;
  EXPECT_EQ(db.Insert("nope", {{I(1)}}).code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, ErrorCodesPropagate) {
  Database db(MakeEmpDeptCatalog());
  EXPECT_EQ(db.Execute("SELEC nope").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(db.Execute("SELECT nope FROM dept").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(db.Execute("SELECT name FROM ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, ScalarSubqueryRuntimeCardinalityError) {
  Database db(MakeEmpDeptCatalog());
  // A non-aggregate scalar subquery returning several rows must fail at
  // runtime, not silently pick one.
  auto result = db.Execute(
      "SELECT name FROM dept WHERE building = "
      "(SELECT building FROM emp)");
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
}

TEST(DatabaseTest, ExplainReturnsPlanWithoutExecuting) {
  Database db(MakeEmpDeptCatalog());
  auto result = db.Explain("SELECT name FROM dept WHERE budget < 100");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  EXPECT_FALSE(result->plan_text.empty());
  EXPECT_EQ(result->stats.rows_output, 0);
}

TEST(DatabaseTest, CaptureQgmOnDemandOnly) {
  Database db(MakeEmpDeptCatalog());
  auto plain = db.Execute(kPaperExampleQuery);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->qgm_before.empty());
  QueryOptions options;
  options.capture_qgm = true;
  auto captured = db.Execute(kPaperExampleQuery, options);
  ASSERT_TRUE(captured.ok());
  EXPECT_FALSE(captured->qgm_before.empty());
  EXPECT_FALSE(captured->qgm_after.empty());
}

TEST(DatabaseTest, ResultToStringTruncates) {
  Database db(MakeEmpDeptCatalog());
  auto result = db.Execute("SELECT name FROM emp");
  ASSERT_TRUE(result.ok());
  const std::string rendered = result->ToString(2);
  EXPECT_NE(rendered.find("rows total"), std::string::npos);
}

TEST(DatabaseTest, StatsRefreshChangesEstimates) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("t", {{"k", TypeId::kInt64, false}}, {0}))
          .ok());
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({I(i)});
  ASSERT_TRUE(db.Insert("t", rows).ok());
  // Before AnalyzeAll the catalog still reports 0 rows.
  EXPECT_EQ(db.catalog().FindEntry("t")->stats.row_count, 0u);
  ASSERT_TRUE(db.AnalyzeAll().ok());
  EXPECT_EQ(db.catalog().FindEntry("t")->stats.row_count, 100u);
}

// A table t(k) holding k = i % 10 for 100 rows, indexed on k.
void MakeIndexedTable(Database* db) {
  ASSERT_TRUE(
      db->CreateTable(TableSchema("t", {{"k", TypeId::kInt64, true}})).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({I(i % 10)});
  ASSERT_TRUE(db->Insert("t", rows).ok());
  ASSERT_TRUE(db->CreateIndex("t", "t_k", {"k"}).ok());
}

// COUNT(*) of k = 3, through the index (checked in the plan) or a scan.
int64_t CountThrees(Database* db, bool use_indexes) {
  QueryOptions options;
  options.planner.use_indexes = use_indexes;
  auto result = db->Execute("SELECT COUNT(*) FROM t WHERE t.k = 3", options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return -1;
  EXPECT_EQ(result->plan_text.find("IndexLookup") != std::string::npos,
            use_indexes)
      << result->plan_text;
  return result->rows[0][0].int64_value();
}

TEST(DatabaseTest, InsertKeepsIndexesCurrent) {
  Database db;
  MakeIndexedTable(&db);
  ASSERT_TRUE(db.Insert("t", {{I(3)}}).ok());
  EXPECT_EQ(CountThrees(&db, false), 11);
  EXPECT_EQ(CountThrees(&db, true), 11);
  // An append that fails partway keeps the rows before the bad one, and
  // the index covers them too.
  EXPECT_FALSE(db.Insert("t", {{I(3)}, {S("not a number")}}).ok());
  EXPECT_EQ(CountThrees(&db, false), 12);
  EXPECT_EQ(CountThrees(&db, true), 12);
}

TEST(DatabaseTest, ImportCsvKeepsIndexesCurrent) {
  Database db;
  MakeIndexedTable(&db);
  auto imported = ImportCsv(&db, "t", "3\n4\n", /*header=*/false);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(*imported, 2);
  EXPECT_EQ(CountThrees(&db, false), 11);
  EXPECT_EQ(CountThrees(&db, true), 11);
  // A malformed row stops the import; the rows before it are appended and
  // indexed.
  EXPECT_FALSE(ImportCsv(&db, "t", "3\nxx\n3\n", false).ok());
  EXPECT_EQ(CountThrees(&db, false), 12);
  EXPECT_EQ(CountThrees(&db, true), 12);
}

TEST(DatabaseTest, AppendSwapsInAFreshIndex) {
  // A plan that already holds the old index keeps it: the append replaces
  // the catalog's entry instead of changing the index in place.
  Database db;
  MakeIndexedTable(&db);
  std::shared_ptr<HashIndex> before = db.catalog().FindIndexCoveredBy("t", {0});
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(db.Insert("t", {{I(3)}}).ok());
  std::shared_ptr<HashIndex> after = db.catalog().FindIndexCoveredBy("t", {0});
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before, after);
  EXPECT_EQ(before->Lookup({I(3)}).size(), 10u);
  EXPECT_EQ(after->Lookup({I(3)}).size(), 11u);
}

TEST(DatabaseTest, SharedCatalogConstructor) {
  auto catalog = MakeEmpDeptCatalog();
  Database a(catalog), b(catalog);
  ASSERT_TRUE(a.CreateIndex("emp", "i", {"building"}).ok());
  // Both handles see the same catalog state.
  EXPECT_NE(b.catalog().FindIndexCoveredBy("emp", {2}), nullptr);
}

TEST(DatabaseTest, AllStrategiesOnUncorrelatedQueryAreNoOps) {
  Database db(MakeEmpDeptCatalog());
  for (Strategy s : {Strategy::kNestedIteration, Strategy::kMagic,
                     Strategy::kOptMagic}) {
    QueryOptions options;
    options.strategy = s;
    auto result = db.Execute("SELECT COUNT(*) FROM emp", options);
    ASSERT_TRUE(result.ok()) << StrategyName(s);
    EXPECT_TRUE(result->rows[0][0].Equals(I(8)));
  }
}

TEST(DatabaseTest, ValidationGuardsRewrittenGraphs) {
  // Every Execute() path validates the graph post-rewrite; a healthy run
  // must therefore never return Internal. Smoke over the paper queries.
  Database db(MakeEmpDeptCatalog());
  for (Strategy s : {Strategy::kMagic, Strategy::kKim, Strategy::kDayal}) {
    QueryOptions options;
    options.strategy = s;
    auto result = db.Execute(kPaperExampleQuery, options);
    ASSERT_TRUE(result.ok()) << StrategyName(s) << ": "
                             << result.status().ToString();
  }
}

TEST(DatabaseTest, DopIsIgnored) {
  // Every query runs on one thread: a dop of 4 must give exactly dop 1's
  // plan and rows, in order, under every strategy.
  Database db(MakeEmpDeptCatalog());
  for (Strategy s : {Strategy::kNestedIteration, Strategy::kMagic,
                     Strategy::kOptMagic, Strategy::kAuto}) {
    QueryOptions serial;
    serial.strategy = s;
    QueryOptions four = serial;
    four.dop = 4;
    auto a = db.Execute(kPaperExampleQuery, serial);
    auto b = db.Execute(kPaperExampleQuery, four);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(b->plan_text, a->plan_text) << StrategyName(s);
    EXPECT_EQ(b->ToString(), a->ToString()) << StrategyName(s);
    EXPECT_EQ(b->stats.rows_scanned, a->stats.rows_scanned) << StrategyName(s);
  }
}

}  // namespace
}  // namespace decorr
