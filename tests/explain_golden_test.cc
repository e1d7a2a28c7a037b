// Golden-file tests for EXPLAIN and EXPLAIN ANALYZE on the paper's figure
// queries (Figures 5-9). The EXPLAIN golden pins the physical plan shape;
// the EXPLAIN ANALYZE golden pins the per-operator row counts and loop
// counts (timings are normalized out via include_timing=false — everything
// left is deterministic: fixed TPC-D seed, fixed scale factor). The `_Auto`
// goldens additionally pin the cost-based selector's choice and its
// per-block "strategy: X (est cost Y)" annotations — a silent cost-model
// drift that flips a pick shows up as a golden diff here.
//
// Regenerate after an intentional planner/rewrite change with:
//   DECORR_UPDATE_GOLDEN=1 build/tests/explain_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "decorr/exec/metrics.h"
#include "decorr/runtime/database.h"
#include "decorr/server/server.h"
#include "decorr/server/session.h"
#include "decorr/tpcd/queries.h"
#include "decorr/tpcd/tpcd.h"

namespace decorr {
namespace {

// Small fixed scale so the golden run stays fast; plans are cost-based, so
// the scale factor is part of the golden contract.
constexpr double kGoldenSf = 0.01;

Database& GoldenDb(bool indexes) {
  static Database* with_indexes = [] {
    auto* db = new Database(std::make_shared<Catalog>());
    TpcdConfig config;
    config.scale_factor = kGoldenSf;
    config.create_indexes = true;
    EXPECT_TRUE(LoadTpcd(db, config).ok());
    return db;
  }();
  static Database* without_indexes = [] {
    auto* db = new Database(std::make_shared<Catalog>());
    TpcdConfig config;
    config.scale_factor = kGoldenSf;
    config.create_indexes = false;
    EXPECT_TRUE(LoadTpcd(db, config).ok());
    return db;
  }();
  return indexes ? *with_indexes : *without_indexes;
}

std::string GoldenPath(const std::string& name) {
  return std::string(DECORR_SOURCE_DIR) + "/tests/golden/" + name;
}

void CheckGolden(const std::string& name, const std::string& content) {
  const std::string path = GoldenPath(name);
  if (std::getenv("DECORR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << content;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << path << " missing; regenerate with DECORR_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), content) << "golden mismatch for " << name
                                << "; if intentional, regenerate with "
                                   "DECORR_UPDATE_GOLDEN=1";
}

// One golden file per (figure, strategy, prune setting): the EXPLAIN plan
// followed by the timing-free EXPLAIN ANALYZE tree. Default-named goldens
// run with dedup pruning on (the default); `_noprune` variants pin the
// unpruned plans so both sides of the rewrite stay under golden control.
// The runtime uniqueness assertions are forced off so Debug and Release
// builds produce byte-identical plans.
void CheckFigureVariant(const std::string& tag, bool indexes,
                        const std::string& sql, Strategy strategy,
                        bool prune_dedup) {
  Database& db = GoldenDb(indexes);
  QueryOptions options;
  options.strategy = strategy;
  options.fallback = false;
  options.prune_dedup = prune_dedup;
  options.planner.check_derived_keys = false;

  auto plan = db.Explain(sql, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto analyzed = db.ExplainAnalyze(sql, options);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();

  std::string content = "== EXPLAIN ==\n" + plan->plan_text +
                        "== EXPLAIN ANALYZE (timings normalized) ==\n" +
                        RenderMetricsTree(analyzed->profile.plan,
                                          /*include_timing=*/false);
  const std::string suffix = prune_dedup ? "" : "_noprune";
  CheckGolden(tag + "_" + StrategyName(strategy) + suffix + ".golden",
              content);
}

void CheckFigure(const std::string& tag, bool indexes, const std::string& sql,
                 Strategy strategy) {
  CheckFigureVariant(tag, indexes, sql, strategy, /*prune_dedup=*/true);
  // Plain NI skips the pruning pass entirely, so its unpruned plan is the
  // default-named golden already.
  if (strategy != Strategy::kNestedIteration) {
    CheckFigureVariant(tag, indexes, sql, strategy, /*prune_dedup=*/false);
  }
}

TEST(ExplainGoldenTest, Fig5Query1Indexed) {
  CheckFigure("fig5_query1", true, TpcdQuery1(), Strategy::kNestedIteration);
  CheckFigure("fig5_query1", true, TpcdQuery1(), Strategy::kMagic);
  CheckFigure("fig5_query1", true, TpcdQuery1(), Strategy::kAuto);
}

TEST(ExplainGoldenTest, Fig6Query1Variant) {
  CheckFigure("fig6_query1_variant", true, TpcdQuery1Variant(),
              Strategy::kNestedIteration);
  CheckFigure("fig6_query1_variant", true, TpcdQuery1Variant(),
              Strategy::kMagic);
  CheckFigure("fig6_query1_variant", true, TpcdQuery1Variant(),
              Strategy::kAuto);
}

TEST(ExplainGoldenTest, Fig7Query1NoIndexes) {
  CheckFigure("fig7_query1_noindex", false, TpcdQuery1(),
              Strategy::kNestedIteration);
  CheckFigure("fig7_query1_noindex", false, TpcdQuery1(), Strategy::kMagic);
  CheckFigure("fig7_query1_noindex", false, TpcdQuery1(),
              Strategy::kAuto);
}

TEST(ExplainGoldenTest, Fig8Query2) {
  CheckFigure("fig8_query2", true, TpcdQuery2(), Strategy::kNestedIteration);
  CheckFigure("fig8_query2", true, TpcdQuery2(), Strategy::kMagic);
  CheckFigure("fig8_query2", true, TpcdQuery2(), Strategy::kAuto);
}

TEST(ExplainGoldenTest, Fig9Query3Union) {
  CheckFigure("fig9_query3", true, TpcdQuery3(), Strategy::kNestedIteration);
  CheckFigure("fig9_query3", true, TpcdQuery3(), Strategy::kMagic);
  CheckFigure("fig9_query3", true, TpcdQuery3(), Strategy::kAuto);
}

// The plan cache must be EXPLAIN-invisible: for every committed golden
// variant, a served EXPLAIN — cold (miss + insert) and warm (hit) through a
// Server over the same catalog — is byte-identical to the Database EXPLAIN
// the goldens were generated from, and the warm timing-free ANALYZE tree
// matches the cold one. The hit may only ever show in the EXPLAIN ANALYZE
// phase summary ("plan cache: hit"), never in the plan text.
TEST(ExplainGoldenTest, CachedPlansLeaveGoldenExplainInvariant) {
  struct FigureCase {
    const char* tag;
    bool indexes;
    std::string sql;
  };
  const FigureCase kFigures[] = {
      {"fig5_query1", true, TpcdQuery1()},
      {"fig6_query1_variant", true, TpcdQuery1Variant()},
      {"fig8_query2", true, TpcdQuery2()},
      {"fig9_query3", true, TpcdQuery3()},
      {"fig7_query1_noindex", false, TpcdQuery1()},
  };
  static const Strategy kStrategies[] = {Strategy::kNestedIteration,
                                         Strategy::kMagic, Strategy::kAuto};
  int warm_hits = 0;
  for (const FigureCase& fig : kFigures) {
    Database& db = GoldenDb(fig.indexes);
    Server server({}, db.shared_catalog());
    auto session = server.Connect();
    for (Strategy strategy : kStrategies) {
      QueryOptions options;
      options.strategy = strategy;
      options.fallback = false;
      options.planner.check_derived_keys = false;

      auto reference = db.Explain(fig.sql, options);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      auto cold = session->Explain(fig.sql, options);
      auto warm = session->Explain(fig.sql, options);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      EXPECT_FALSE(cold->profile.plan_cache_hit);
      EXPECT_TRUE(warm->profile.plan_cache_hit)
          << fig.tag << "/" << StrategyName(strategy);
      if (warm->profile.plan_cache_hit) ++warm_hits;
      EXPECT_EQ(cold->plan_text, reference->plan_text)
          << fig.tag << "/" << StrategyName(strategy)
          << ": served cold EXPLAIN diverged from the golden pipeline";
      EXPECT_EQ(warm->plan_text, reference->plan_text)
          << fig.tag << "/" << StrategyName(strategy)
          << ": cache hit changed EXPLAIN output";

      // The fingerprint ignores the profile flag, so this ANALYZE is served
      // from the entry the Explains above warmed — a hit by construction.
      auto ref_analyze = db.ExplainAnalyze(fig.sql, options);
      auto served_analyze = session->ExplainAnalyze(fig.sql, options);
      ASSERT_TRUE(ref_analyze.ok()) << ref_analyze.status().ToString();
      ASSERT_TRUE(served_analyze.ok()) << served_analyze.status().ToString();
      EXPECT_TRUE(served_analyze->profile.plan_cache_hit);
      EXPECT_EQ(RenderMetricsTree(served_analyze->profile.plan,
                                  /*include_timing=*/false),
                RenderMetricsTree(ref_analyze->profile.plan,
                                  /*include_timing=*/false))
          << fig.tag << "/" << StrategyName(strategy)
          << ": cache hit changed the ANALYZE tree";
      EXPECT_NE(served_analyze->analyze_text.find("plan cache: hit"),
                std::string::npos)
          << fig.tag << "/" << StrategyName(strategy)
          << ": hit not annotated in the phase summary";
      EXPECT_EQ(served_analyze->plan_text.find("plan cache"),
                std::string::npos)
          << fig.tag << "/" << StrategyName(strategy);
    }
  }
  EXPECT_EQ(warm_hits, 15);  // every figure/strategy pair actually hit
}

// The rendered analyze tree annotates every operator line with rows and
// loop counts — the property ISSUE acceptance asks for explicitly.
TEST(ExplainGoldenTest, AnalyzeAnnotatesEveryLine) {
  Database& db = GoldenDb(true);
  QueryOptions options;
  options.strategy = Strategy::kMagic;
  options.fallback = false;
  auto analyzed = db.ExplainAnalyze(TpcdQuery1(), options);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const std::string text =
      RenderMetricsTree(analyzed->profile.plan, /*include_timing=*/false);
  std::istringstream lines(text);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++count;
    EXPECT_NE(line.find("rows="), std::string::npos) << line;
    EXPECT_NE(line.find("loops="), std::string::npos) << line;
  }
  EXPECT_GT(count, 3);
}

}  // namespace
}  // namespace decorr
