// Estimator-accuracy harness for the auto-selection cost model
// (planner/cost.h): every block-level cardinality and invocation-count
// estimate is held to a q-error bound against ACTUALLY EXECUTED counts on a
// seeded schema, so estimator regressions fail loudly instead of silently
// flipping plan choices. Also the stats-staleness regression tests: an auto
// pick on stale statistics refreshes them first and EXPLAIN flags the epoch.
// And kAuto on the TPC-D figure queries: one Prepare runs the magic rewrite
// once, and keeps the graph a Prepare under its pick builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "decorr/binder/binder.h"
#include "decorr/common/fault.h"
#include "decorr/planner/cost.h"
#include "decorr/runtime/database.h"
#include "decorr/tpcd/queries.h"
#include "decorr/tpcd/tpcd.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

// Every estimate must be within this factor of the executed truth.
constexpr double kQErrorBound = 4.0;

// q-error: symmetric multiplicative error, both sides clamped to one row so
// empty results do not divide by zero.
double QErr(double est, double actual) {
  est = std::max(est, 1.0);
  actual = std::max(actual, 1.0);
  return std::max(est / actual, actual / est);
}

// Seeded, perfectly uniform two-table schema. 200 customers; 1000 orders
// with o_cust = (2*i) % 400, so exactly the even-id customers have orders
// (5 each) and the odd-id ones have none — EXISTS is a true coin flip, and
// per-customer order counts are knowable in closed form.
//   cust(c_id pk, c_seg = i%10, c_val = i%20, c_nation = i%5)   200 rows
//   ord(o_id pk, o_cust = (2i)%400, o_amt = i%7)               1000 rows
std::shared_ptr<Catalog> MakeUniformCatalog() {
  auto catalog = std::make_shared<Catalog>();
  TableSchema cust_schema("cust",
                          {{"c_id", TypeId::kInt64, false},
                           {"c_seg", TypeId::kInt64, false},
                           {"c_val", TypeId::kInt64, false},
                           {"c_nation", TypeId::kInt64, false}},
                          /*primary_key=*/{0});
  auto cust = std::make_shared<Table>(cust_schema);
  for (int64_t i = 0; i < 200; ++i) {
    (void)cust->AppendRow({I(i), I(i % 10), I(i % 20), I(i % 5)});
  }
  (void)catalog->RegisterTable(cust);

  TableSchema ord_schema("ord",
                         {{"o_id", TypeId::kInt64, false},
                          {"o_cust", TypeId::kInt64, false},
                          {"o_amt", TypeId::kInt64, false}},
                         /*primary_key=*/{0});
  auto ord = std::make_shared<Table>(ord_schema);
  for (int64_t i = 0; i < 1000; ++i) {
    (void)ord->AppendRow({I(i), I((2 * i) % 400), I(i % 7)});
  }
  (void)catalog->RegisterTable(ord);
  return catalog;
}

class CostModelTest : public ::testing::Test {
 protected:
  std::shared_ptr<Catalog> catalog_ = MakeUniformCatalog();
  Database db_{catalog_};

  QueryEstimate MustEstimate(const std::string& sql) {
    auto bound = ParseAndBind(sql, *catalog_);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    auto est = EstimateQueryBlocks(bound.value()->graph.get(), *catalog_);
    EXPECT_TRUE(est.ok()) << est.status().ToString();
    return est.MoveValue();
  }

  QueryResult MustExecute(const std::string& sql, Strategy strategy) {
    QueryOptions options;
    options.strategy = strategy;
    options.fallback = false;
    auto result = db_.Execute(sql, options);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    return result.MoveValue();
  }
};

struct EstimatorCase {
  const char* name;
  const char* sql;
};

// Each case has at least one subquery block; every block-level invocation
// count and the root cardinality estimate must be within q-error 4 of the
// executed truth under plain nested iteration.
const EstimatorCase kCases[] = {
    {"scalar_count_unfiltered",
     "SELECT c.c_id FROM cust c WHERE c.c_val < "
     "(SELECT COUNT(*) FROM ord o WHERE o.o_cust = c.c_id)"},
    {"scalar_sum_filtered_outer",
     "SELECT c.c_id FROM cust c WHERE c.c_seg = 4 AND c.c_val < "
     "(SELECT SUM(o.o_amt) FROM ord o WHERE o.o_cust = c.c_id)"},
    {"exists",
     "SELECT c.c_id FROM cust c WHERE EXISTS "
     "(SELECT o.o_id FROM ord o WHERE o.o_cust = c.c_id)"},
    {"not_exists",
     "SELECT c.c_id FROM cust c WHERE NOT EXISTS "
     "(SELECT o.o_id FROM ord o WHERE o.o_cust = c.c_id)"},
    {"in_subquery",
     "SELECT c.c_id FROM cust c WHERE c.c_val IN "
     "(SELECT o.o_amt FROM ord o WHERE o.o_cust = c.c_id)"},
    {"any_comparison",
     "SELECT c.c_id FROM cust c WHERE c.c_val < ANY "
     "(SELECT o.o_amt FROM ord o WHERE o.o_cust = c.c_id)"},
    {"all_comparison",
     "SELECT c.c_id FROM cust c WHERE c.c_val >= ALL "
     "(SELECT o.o_amt FROM ord o WHERE o.o_cust = c.c_id)"},
    {"uncorrelated_scalar",
     "SELECT c.c_id FROM cust c WHERE c.c_val < "
     "(SELECT MAX(o.o_amt) FROM ord o)"},
    {"duplicate_bindings",
     "SELECT c.c_id FROM cust c WHERE c.c_val < "
     "(SELECT COUNT(*) FROM ord o WHERE o.o_amt = c.c_seg)"},
};

TEST_F(CostModelTest, InvocationEstimatesWithinQErrorBound) {
  for (const EstimatorCase& c : kCases) {
    SCOPED_TRACE(c.name);
    QueryEstimate est = MustEstimate(c.sql);
    ASSERT_FALSE(est.blocks.empty());
    QueryResult actual = MustExecute(c.sql, Strategy::kNestedIteration);
    double est_invocations = 0.0;
    for (const BlockEstimate& b : est.blocks) est_invocations += b.invocations;
    const double actual_invocations =
        static_cast<double>(actual.stats.subquery_invocations);
    EXPECT_LE(QErr(est_invocations, actual_invocations), kQErrorBound)
        << "est " << est_invocations << " vs actual " << actual_invocations;
  }
}

TEST_F(CostModelTest, RootCardinalityEstimatesWithinQErrorBound) {
  for (const EstimatorCase& c : kCases) {
    SCOPED_TRACE(c.name);
    QueryEstimate est = MustEstimate(c.sql);
    QueryResult actual = MustExecute(c.sql, Strategy::kNestedIteration);
    const double actual_rows = static_cast<double>(actual.rows.size());
    EXPECT_LE(QErr(est.root_rows, actual_rows), kQErrorBound)
        << "est " << est.root_rows << " vs actual " << actual_rows;
  }
}

TEST_F(CostModelTest, PerInvocationCardinalityMatchesProbedBinding) {
  // The EXISTS inner block estimates rows-per-invocation as |ord| / ndv(
  // o_cust) = 1000/200 = 5; probing one real binding (customer 42 has
  // exactly 5 orders) must agree within the bound.
  QueryEstimate est = MustEstimate(
      "SELECT c.c_id FROM cust c WHERE EXISTS "
      "(SELECT o.o_id FROM ord o WHERE o.o_cust = c.c_id)");
  ASSERT_EQ(est.blocks.size(), 1u);
  QueryResult probe = MustExecute(
      "SELECT o.o_id FROM ord o WHERE o.o_cust = 42",
      Strategy::kNestedIteration);
  EXPECT_LE(QErr(est.blocks[0].rows_per_invocation,
                 static_cast<double>(probe.rows.size())),
            kQErrorBound);
}

TEST_F(CostModelTest, DistinctBindingEstimateMatchesCacheMisses) {
  // Correlation on c_seg (10 distinct values over 200 invocations): the
  // duplicate-factor estimate drives NI+C's expected hit rate, and the
  // executed cache-miss count is the ground truth for distinct bindings.
  const char* sql =
      "SELECT c.c_id FROM cust c WHERE c.c_val < "
      "(SELECT COUNT(*) FROM ord o WHERE o.o_amt = c.c_seg)";
  QueryEstimate est = MustEstimate(sql);
  ASSERT_EQ(est.blocks.size(), 1u);
  EXPECT_LE(QErr(est.blocks[0].invocations, 200.0), kQErrorBound);
  EXPECT_GT(est.blocks[0].cache_hit_rate, 0.5);
  QueryResult cached = MustExecute(sql, Strategy::kNestedIterationCached);
  const double misses =
      static_cast<double>(cached.stats.subquery_cache_misses);
  EXPECT_GT(misses, 0.0);
  EXPECT_LE(QErr(est.blocks[0].distinct_bindings, misses), kQErrorBound);
}

TEST_F(CostModelTest, NestedBlocksMultiplyThroughAncestors) {
  // Two-level nesting: the inner-inner block's absolute invocation count is
  // the outer block's invocations times the per-invocation placement — and
  // the executed total (both applies) is the ground truth for the sum.
  const char* sql =
      "SELECT c.c_id FROM cust c WHERE c.c_seg = 4 AND c.c_val < "
      "(SELECT SUM(o.o_amt) FROM ord o WHERE o.o_cust = c.c_id AND "
      " o.o_amt >= (SELECT MIN(o2.o_amt) FROM ord o2 "
      "             WHERE o2.o_cust = o.o_cust))";
  QueryEstimate est = MustEstimate(sql);
  ASSERT_EQ(est.blocks.size(), 2u);
  EXPECT_GT(est.blocks[1].invocations, est.blocks[0].invocations);
  QueryResult actual = MustExecute(sql, Strategy::kNestedIteration);
  double est_invocations = 0.0;
  for (const BlockEstimate& b : est.blocks) est_invocations += b.invocations;
  EXPECT_LE(QErr(est_invocations,
                 static_cast<double>(actual.stats.subquery_invocations)),
            kQErrorBound);
}

TEST_F(CostModelTest, IndexAwareInvocationCost) {
  // Without an index every invocation pays a full ord scan; with ord(o_cust)
  // indexed it pays ~rows/ndv lookups. This asymmetry is the heart of the
  // paper's fig5-vs-fig7 flip, so the cost model must see it.
  const char* sql =
      "SELECT c.c_id FROM cust c WHERE EXISTS "
      "(SELECT o.o_id FROM ord o WHERE o.o_cust = c.c_id)";
  QueryEstimate no_index = MustEstimate(sql);
  ASSERT_EQ(no_index.blocks.size(), 1u);
  ASSERT_TRUE(catalog_->CreateIndex("ord", "ord_cust_idx", {"o_cust"}).ok());
  QueryEstimate with_index = MustEstimate(sql);
  ASSERT_EQ(with_index.blocks.size(), 1u);
  EXPECT_GE(no_index.blocks[0].invocation_cost,
            10.0 * with_index.blocks[0].invocation_cost);
  ASSERT_TRUE(catalog_->DropIndex("ord", "ord_cust_idx").ok());
}

TEST_F(CostModelTest, AutoMatchesNestedIterationRows) {
  // The selector must never change answers, only speed: every case under
  // kAuto returns exactly the NI rows, with fallback disabled so a wrong
  // pick cannot hide behind the recovery path.
  for (const EstimatorCase& c : kCases) {
    SCOPED_TRACE(c.name);
    QueryResult ni = MustExecute(c.sql, Strategy::kNestedIteration);
    QueryResult autos = MustExecute(c.sql, Strategy::kAuto);
    auto canon = [](const QueryResult& r) {
      std::vector<std::string> rows;
      rows.reserve(r.rows.size());
      for (const Row& row : r.rows) rows.push_back(RowToString(row));
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    EXPECT_EQ(canon(ni), canon(autos));
    EXPECT_NE(autos.plan_text.find("auto strategy: "), std::string::npos);
  }
}

TEST(StatsStalenessTest, AutoRefreshesStaleStatsAndFlagsEpoch) {
  // The staleness hole: statistics computed at CreateTable (empty tables)
  // used to silently price every later query as if the tables were empty.
  // The auto path must detect the stale entries, recompute, flag the epoch
  // in EXPLAIN, and still return correct rows.
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t_out",
                                         {{"k", TypeId::kInt64, false},
                                          {"v", TypeId::kInt64, false}},
                                         {0}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("t_in",
                                         {{"k", TypeId::kInt64, false},
                                          {"w", TypeId::kInt64, false}},
                                         {0}))
                  .ok());
  std::vector<Row> out_rows, in_rows;
  for (int64_t i = 0; i < 50; ++i) out_rows.push_back({I(i), I(i % 5)});
  for (int64_t i = 0; i < 200; ++i) in_rows.push_back({I(i), I(i % 50)});
  ASSERT_TRUE(db.Insert("t_out", out_rows).ok());
  ASSERT_TRUE(db.Insert("t_in", in_rows).ok());
  // Deliberately NO AnalyzeAll: both tables' stats predate the load.
  ASSERT_TRUE(db.catalog().StatsStale("t_out"));
  ASSERT_TRUE(db.catalog().StatsStale("t_in"));

  const char* sql =
      "SELECT t.k FROM t_out t WHERE t.v < "
      "(SELECT COUNT(*) FROM t_in s WHERE s.w = t.k)";
  QueryOptions ni_opts;
  ni_opts.strategy = Strategy::kNestedIteration;
  auto ni = db.Execute(sql, ni_opts);
  ASSERT_TRUE(ni.ok()) << ni.status().ToString();

  QueryOptions auto_opts;
  auto_opts.strategy = Strategy::kAuto;
  auto_opts.fallback = false;
  auto result = db.Execute(sql, auto_opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto canon = [](const QueryResult& r) {
    std::vector<std::string> rows;
    for (const Row& row : r.rows) rows.push_back(RowToString(row));
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(canon(*ni), canon(*result));
  EXPECT_NE(result->plan_text.find("auto stats refreshed: t_in"),
            std::string::npos)
      << result->plan_text;
  EXPECT_NE(result->plan_text.find("auto stats refreshed: t_out"),
            std::string::npos);
  EXPECT_NE(result->plan_text.find("auto stats epoch: "), std::string::npos);
  // The refresh is durable: both entries are fresh now and a second auto run
  // reports no further refreshes.
  EXPECT_FALSE(db.catalog().StatsStale("t_out"));
  EXPECT_FALSE(db.catalog().StatsStale("t_in"));
  auto again = db.Execute(sql, auto_opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->plan_text.find("auto stats refreshed:"),
            std::string::npos);
}

// kAuto on the paper's TPC-D figure queries at SF 0.01, indexed: the same
// database the EXPLAIN goldens use.
class AutoSelectionTest : public ::testing::Test {
 protected:
  static Database& Db() {
    static Database* db = [] {
      auto* loaded = new Database(std::make_shared<Catalog>());
      TpcdConfig config;
      config.scale_factor = 0.01;
      config.create_indexes = true;
      EXPECT_TRUE(LoadTpcd(loaded, config).ok());
      return loaded;
    }();
    return *db;
  }
};

// kAuto runs each distinct rewrite once per Prepare: Mag and OptMag are one
// magic rewrite priced on one trial graph, and Prepare keeps the chosen
// trial's graph instead of rewriting it again. Recording with nothing armed
// counts how often the magic rewrite starts, whichever strategy wins.
TEST_F(AutoSelectionTest, PrepareRunsTheMagicRewriteOnce) {
  struct Case {
    const char* name;
    std::string sql;
    Strategy pick;
  };
  const Case cases[] = {{"Query 3", TpcdQuery3(), Strategy::kMagic},
                        {"Query 1", TpcdQuery1(), Strategy::kNestedIteration}};
  QueryOptions automatic;
  automatic.strategy = Strategy::kAuto;
  FaultInjector& fi = FaultInjector::Global();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    fi.Reset();
    fi.EnableRecording();
    ResourceGuard guard;
    auto prepared = Db().Prepare(c.sql, automatic, &guard);
    const int64_t magic_rewrites = fi.HitCount("rewrite.magic");
    fi.Reset();
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_EQ(prepared->effective, c.pick);
    EXPECT_EQ(magic_rewrites, 1);
  }
}

// The graph kAuto keeps is the one a Prepare under its pick builds, for a
// trial pick (Mag, OptMag) and for the pristine graph (NI, NI+C) alike.
// property_diff_test's AutoKeepsTheGraphOfItsPick checks the same over the
// random corpus, whose picks are all trial graphs.
TEST_F(AutoSelectionTest, KeptGraphIsTheOneAPrepareOfThePickBuilds) {
  const std::string queries[] = {TpcdQuery1(), TpcdQuery1Variant(),
                                 TpcdQuery2(), TpcdQuery3()};
  std::set<Strategy> picks;
  for (const std::string& sql : queries) {
    for (const bool prune : {true, false}) {
      QueryOptions automatic;
      automatic.strategy = Strategy::kAuto;
      automatic.fallback = false;
      automatic.capture_qgm = true;
      automatic.prune_dedup = prune;
      ResourceGuard guard;
      auto kept = Db().Prepare(sql, automatic, &guard);
      ASSERT_TRUE(kept.ok()) << kept.status().ToString();
      picks.insert(kept->effective);
      QueryOptions direct = automatic;
      direct.strategy = kept->effective;
      auto rewritten = Db().Prepare(sql, direct, &guard);
      ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
      EXPECT_EQ(kept->qgm_before, rewritten->qgm_before);
      EXPECT_EQ(kept->qgm_after, rewritten->qgm_after)
          << StrategyName(kept->effective) << " prune=" << prune << "\n"
          << sql;
    }
  }
  EXPECT_EQ(picks, (std::set<Strategy>{Strategy::kNestedIteration,
                                       Strategy::kNestedIterationCached,
                                       Strategy::kMagic,
                                       Strategy::kOptMagic}));
}

}  // namespace
}  // namespace decorr
