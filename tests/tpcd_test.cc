// TPC-D generator and paper-query tests. Run at small scale factors so the
// suite stays fast; Table-1 conformance at SF 0.1 is asserted analytically
// plus one real load.
#include <gtest/gtest.h>

#include <set>

#include "decorr/runtime/database.h"
#include "decorr/tpcd/queries.h"
#include "decorr/tpcd/tpcd.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

class TpcdTest : public ::testing::Test {
 protected:
  static Database& Db() {
    static Database* db = [] {
      auto* instance = new Database();
      TpcdConfig config;
      config.scale_factor = 0.01;
      Status st = LoadTpcd(instance, config);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return instance;
    }();
    return *db;
  }

  // The same data without the two partsupp indexes (Figure 7's regime).
  static Database& NoPartsuppIndexDb() {
    static Database* db = [] {
      auto* instance = new Database();
      TpcdConfig config;
      config.scale_factor = 0.01;
      Status st = LoadTpcd(instance, config);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(instance->DropIndex("partsupp", "partsupp_partkey").ok());
      EXPECT_TRUE(instance->DropIndex("partsupp", "partsupp_suppkey").ok());
      return instance;
    }();
    return *db;
  }

  static size_t RowsOf(const char* table) {
    auto t = Db().catalog().GetTable(table);
    EXPECT_TRUE(t.ok());
    return t.ok() ? (*t)->num_rows() : 0;
  }
};

TEST_F(TpcdTest, CardinalityFormulasMatchTable1AtPaperScale) {
  EXPECT_EQ(TpcdCustomers(0.1), 15000);
  EXPECT_EQ(TpcdParts(0.1), 20000);
  EXPECT_EQ(TpcdSuppliers(0.1), 1000);
  EXPECT_EQ(TpcdPartsupp(0.1), 80000);
  EXPECT_EQ(TpcdLineitem(0.1), 600000);
}

TEST_F(TpcdTest, GeneratedCardinalities) {
  EXPECT_EQ(RowsOf("customers"), 1500u);
  EXPECT_EQ(RowsOf("parts"), 2000u);
  EXPECT_EQ(RowsOf("suppliers"), 100u);
  EXPECT_EQ(RowsOf("partsupp"), 8000u);
  EXPECT_EQ(RowsOf("lineitem"), 60000u);
}

TEST_F(TpcdTest, DeterministicForSameSeed) {
  Database a, b;
  TpcdConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpcd(&a, config).ok());
  ASSERT_TRUE(LoadTpcd(&b, config).ok());
  auto ta = a.catalog().GetTable("parts");
  auto tb = b.catalog().GetTable("parts");
  ASSERT_TRUE(ta.ok() && tb.ok());
  ASSERT_EQ((*ta)->num_rows(), (*tb)->num_rows());
  for (size_t r = 0; r < (*ta)->num_rows(); r += 37) {
    EXPECT_TRUE(RowEq()((*ta)->GetRow(r), (*tb)->GetRow(r)));
  }
}

TEST_F(TpcdTest, NationRegionDomains) {
  auto result = Db().Execute(
      "SELECT DISTINCT s_region FROM suppliers ORDER BY s_region");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 5u);
  auto nations = Db().Execute("SELECT DISTINCT s_nation FROM suppliers");
  ASSERT_TRUE(nations.ok());
  EXPECT_LE(nations->rows.size(), 25u);
  EXPECT_GE(nations->rows.size(), 20u);  // all nations hit at SF 0.01
  // FRANCE is in EUROPE.
  auto france = Db().Execute(
      "SELECT DISTINCT s_region FROM suppliers WHERE s_nation = 'FRANCE'");
  ASSERT_TRUE(france.ok());
  ASSERT_EQ(france->rows.size(), 1u);
  EXPECT_EQ(france->rows[0][0].string_value(), "EUROPE");
}

TEST_F(TpcdTest, PartDomainsDriveSelectivities) {
  // 5 metals: p_type LIKE '%BRASS' selects ~1/5 of parts (the paper's
  // Query 1 predicate).
  auto brass = Db().Execute(
      "SELECT COUNT(*) FROM parts WHERE p_type LIKE '%BRASS'");
  ASSERT_TRUE(brass.ok());
  const int64_t count = brass->rows[0][0].int64_value();
  EXPECT_GT(count, 300);
  EXPECT_LT(count, 500);
  // ~10 brands x ~10 containers: Query 2 qualifies ~1% of parts (the paper
  // reports 209 invocations at SF 0.1).
  auto q2_parts = Db().Execute(
      "SELECT COUNT(*) FROM parts WHERE p_brand = 'Brand#13' AND "
      "p_container = '6 PACK'");
  ASSERT_TRUE(q2_parts.ok());
  EXPECT_GT(q2_parts->rows[0][0].int64_value(), 5);
  EXPECT_LT(q2_parts->rows[0][0].int64_value(), 60);
}

TEST_F(TpcdTest, PartsuppReferentialIntegrity) {
  auto bad = Db().Execute(
      "SELECT COUNT(*) FROM partsupp ps WHERE ps.ps_partkey NOT IN "
      "(SELECT p_partkey FROM parts)");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_TRUE(bad->rows[0][0].Equals(Value::Int64(0)));
  auto bad_supp = Db().Execute(
      "SELECT COUNT(*) FROM partsupp ps WHERE ps.ps_suppkey NOT IN "
      "(SELECT s_suppkey FROM suppliers)");
  ASSERT_TRUE(bad_supp.ok());
  EXPECT_TRUE(bad_supp->rows[0][0].Equals(Value::Int64(0)));
}

TEST_F(TpcdTest, PartsuppFourSuppliersPerPart) {
  auto per_part = Db().Execute(
      "SELECT MIN(c), MAX(c) FROM (SELECT COUNT(*) FROM partsupp "
      "GROUP BY ps_partkey) AS t(c)");
  ASSERT_TRUE(per_part.ok()) << per_part.status().ToString();
  EXPECT_TRUE(per_part->rows[0][0].Equals(Value::Int64(4)));
  EXPECT_TRUE(per_part->rows[0][1].Equals(Value::Int64(4)));
}

TEST_F(TpcdTest, LineitemQuantityDomain) {
  auto range = Db().Execute(
      "SELECT MIN(l_quantity), MAX(l_quantity) FROM lineitem");
  ASSERT_TRUE(range.ok());
  EXPECT_GE(range->rows[0][0].int64_value(), 1);
  EXPECT_LE(range->rows[0][1].int64_value(), 50);
}

TEST_F(TpcdTest, IndexesCreated) {
  EXPECT_NE(Db().catalog().FindIndexCoveredBy("parts", {0}), nullptr);
  EXPECT_NE(Db().catalog().FindIndexCoveredBy("lineitem", {2}), nullptr);
  EXPECT_NE(Db().catalog().FindIndexCoveredBy("partsupp", {0}), nullptr);
  EXPECT_NE(Db().catalog().FindIndexCoveredBy("partsupp", {1}), nullptr);
}

TEST_F(TpcdTest, NoIndexOptionRespected) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.002;
  config.create_indexes = false;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  EXPECT_EQ(db.catalog().FindIndexCoveredBy("parts", {0}), nullptr);
}

// ---- the paper's queries: cross-strategy agreement ----

std::vector<std::string> Canon(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Row& row : r.rows) rows.push_back(RowToString(row));
  std::sort(rows.begin(), rows.end());
  return rows;
}

class TpcdQueryTest : public TpcdTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(TpcdQueryTest, StrategiesAgree) {
  const std::string sql = GetParam() == 1   ? TpcdQuery1()
                          : GetParam() == 2 ? TpcdQuery1Variant()
                          : GetParam() == 3 ? TpcdQuery2()
                                            : TpcdQuery3();
  QueryOptions ni;
  ni.strategy = Strategy::kNestedIteration;
  auto ni_result = Db().Execute(sql, ni);
  ASSERT_TRUE(ni_result.ok()) << ni_result.status().ToString();
  for (Strategy s : {Strategy::kMagic, Strategy::kOptMagic, Strategy::kKim,
                     Strategy::kDayal}) {
    QueryOptions options;
    options.strategy = s;
    auto result = Db().Execute(sql, options);
    if (!result.ok()) {
      // Kim/Dayal legally refuse Query 3 (non-linear).
      EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented)
          << StrategyName(s) << ": " << result.status().ToString();
      EXPECT_EQ(GetParam(), 4);
      continue;
    }
    EXPECT_EQ(Canon(*result), Canon(*ni_result)) << StrategyName(s);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, TpcdQueryTest,
                         ::testing::Values(1, 2, 3, 4));

// Dayal's outer-join box holds every table of Query 1's outer block. The
// planner orders them along their join predicates, as in any Select box,
// and joins the null-padded subquery last, so no pair of tables is joined
// as a cross product.
TEST_F(TpcdTest, DayalJoinsQuery1OuterBlockWithoutACrossProduct) {
  for (Database* db : {&Db(), &NoPartsuppIndexDb()}) {
    for (const std::string& sql : {TpcdQuery1(), TpcdQuery1Variant()}) {
      QueryOptions ni;
      ni.strategy = Strategy::kNestedIteration;
      auto truth = db->Execute(sql, ni);
      ASSERT_TRUE(truth.ok()) << truth.status().ToString();
      QueryOptions dayal;
      dayal.strategy = Strategy::kDayal;
      dayal.fallback = false;
      auto result = db->Execute(sql, dayal);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_NE(result->plan_text.find("HashLeftOuterJoin"),
                std::string::npos)
          << result->plan_text;
      EXPECT_EQ(result->plan_text.find("NestedLoopJoin"), std::string::npos)
          << result->plan_text;
      EXPECT_EQ(Canon(*result), Canon(*truth));
    }
  }
}

TEST_F(TpcdTest, MagicEliminatesInvocationsOnAllPaperQueries) {
  for (const std::string& sql :
       {TpcdQuery1(), TpcdQuery1Variant(), TpcdQuery2(), TpcdQuery3()}) {
    QueryOptions options;
    options.strategy = Strategy::kMagic;
    auto result = Db().Execute(sql, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.subquery_invocations, 0);
  }
}

// With the memo on, the planner hoists an inner that draws no parameter
// from its outer row into a compute-once shared subplan: the uncorrelated
// AVG over parts, nested in a subquery correlated on each supplier, is
// computed once per query instead of once per re-open of its Apply (once
// per supplier under NI).
TEST_F(TpcdTest, InvariantInnerIsHoistedWhenTheMemoIsOn) {
  const char* sql =
      "SELECT s.s_name FROM suppliers s WHERE s.s_acctbal > "
      "(SELECT AVG(ps.ps_supplycost) FROM partsupp ps "
      " WHERE ps.ps_suppkey = s.s_suppkey AND ps.ps_supplycost > "
      "   (SELECT AVG(p.p_retailprice) FROM parts p))";
  QueryOptions ni;
  ni.strategy = Strategy::kNestedIteration;
  QueryOptions cached;
  cached.strategy = Strategy::kNestedIterationCached;
  auto plain = Db().Execute(sql, ni);
  auto hoisted = Db().Execute(sql, cached);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(hoisted.ok()) << hoisted.status().ToString();
  EXPECT_EQ(plain->plan_text.find("CachedMaterialize"), std::string::npos)
      << plain->plan_text;
  EXPECT_NE(hoisted->plan_text.find("CachedMaterialize"), std::string::npos)
      << hoisted->plan_text;
  // 100 suppliers scanned; under NI each one's inner re-scans the 2,000
  // parts, under NI+C the parts are scanned once.
  EXPECT_EQ(plain->stats.rows_scanned, 100 + 100 * 2000 + 8000);
  EXPECT_EQ(hoisted->stats.rows_scanned, 100 + 2000 + 8000);
  std::multiset<std::string> a, b;
  for (const Row& row : plain->rows) a.insert(row[0].ToString());
  for (const Row& row : hoisted->rows) b.insert(row[0].ToString());
  EXPECT_EQ(a, b);
}

TEST_F(TpcdTest, Query3HasFiveDistinctBindings) {
  // "The correlation column has only 5 unique values" — the European
  // nations.
  auto result = Db().Execute(
      "SELECT COUNT(DISTINCT s_nation) FROM suppliers "
      "WHERE s_region = 'EUROPE'");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows[0][0].Equals(Value::Int64(5)));
}

}  // namespace
}  // namespace decorr
