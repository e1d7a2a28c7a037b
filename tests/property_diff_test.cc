// Randomized differential sweep (the headline correctness gate): a seeded
// generator produces correlated queries — nesting depth up to 3, aggregate
// comparisons (including the COUNT-bug shapes), EXISTS / NOT EXISTS,
// IN / NOT IN, and ANY/ALL quantifications — over NULL-heavy random
// databases. Every query runs through nested iteration (the executable
// ground truth) and then through every rewrite strategy with
// `fallback = false`, asserting identical result multisets. A strategy may
// decline a query (kNotImplemented); any other divergence fails.
//
// Kim is the one sanctioned exception: on COUNT shapes it exhibits the
// paper's COUNT bug, so it is held to the containment property (never
// invents rows) instead — and skipped entirely when the query also negates
// (NOT EXISTS / NOT IN / <>), since negation flips the direction in which
// lost inner rows surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "decorr/common/rng.h"
#include "decorr/common/string_util.h"
#include "decorr/runtime/database.h"
#include "tests/property_diff_corpus.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

TEST(PropertyDiffTest, RandomizedSweepAllStrategiesMatchNestedIteration) {
  constexpr uint64_t kDatabases = 8;
  constexpr int kQueriesPerDatabase = 30;  // 240 total, >= the 200 floor
  static const Strategy kRewrites[] = {Strategy::kKim, Strategy::kDayal,
                                       Strategy::kGanskiWong, Strategy::kMagic,
                                       Strategy::kOptMagic};
  int queries_run = 0;
  std::map<Strategy, int> compared;

  for (uint64_t seed = 1; seed <= kDatabases; ++seed) {
    Database db(MakeNullHeavyCatalog(seed));
    Rng rng(seed * 7919);
    DiffQueryGen gen(&rng);
    for (int q = 0; q < kQueriesPerDatabase; ++q) {
      const std::string sql = gen.RandomQuery();
      QueryOptions ni;
      ni.strategy = Strategy::kNestedIteration;
      auto truth = db.Execute(sql, ni);
      ASSERT_TRUE(truth.ok())
          << "NI failed (seed " << seed << " q" << q << "): "
          << truth.status().ToString() << "\n" << sql;
      ++queries_run;
      const std::vector<std::string> ni_rows = Canon(*truth);
      const bool has_count = sql.find("COUNT") != std::string::npos;
      const bool has_negation = sql.find("NOT ") != std::string::npos ||
                                sql.find("<>") != std::string::npos;

      for (Strategy s : kRewrites) {
        QueryOptions options;
        options.strategy = s;
        options.fallback = false;  // a declined rewrite must say so loudly
        auto result = db.Execute(sql, options);
        if (result.status().code() == StatusCode::kNotImplemented) continue;
        ASSERT_TRUE(result.ok())
            << StrategyName(s) << " failed (seed " << seed << " q" << q
            << "): " << result.status().ToString() << "\n" << sql;
        ++compared[s];
        if (s == Strategy::kKim && has_count) {
          // The COUNT bug loses rows; under negation the loss can surface
          // as extra rows, so only the un-negated direction is checkable.
          if (has_negation) continue;
          std::vector<std::string> kim_rows = Canon(*result);
          EXPECT_TRUE(std::includes(ni_rows.begin(), ni_rows.end(),
                                    kim_rows.begin(), kim_rows.end()))
              << "Kim invented rows (seed " << seed << " q" << q << ")\n"
              << sql;
          continue;
        }
        EXPECT_EQ(Canon(*result), ni_rows)
            << StrategyName(s) << " diverged (seed " << seed << " q" << q
            << ")\n" << sql;
      }
    }
  }
  EXPECT_GE(queries_run, 200);
  // The sweep must actually exercise every rewrite, not skip them all.
  for (Strategy s : kRewrites) {
    EXPECT_GT(compared[s], 0) << StrategyName(s) << " never applied";
  }
}

// Cache differential sweep: the same 240 seeded queries, every strategy
// (NI+C included), with subquery memoization on vs off — multiset-identical,
// fallback off. The baseline is the strategy's own cache-off run, so the
// comparison isolates exactly what the Apply's binding memo changes
// (nothing, if it is correct). A tiny-budget pass (1 KB) forces constant
// flushes and declined entries through the same queries.
TEST(PropertyDiffTest, CacheSweepRowIdenticalOnVsOffForEveryStrategy) {
  constexpr uint64_t kDatabases = 8;
  constexpr int kQueriesPerDatabase = 30;  // 240 total, same seeds as above
  static const Strategy kStrategies[] = {
      Strategy::kNestedIteration, Strategy::kNestedIterationCached,
      Strategy::kKim,             Strategy::kDayal,
      Strategy::kGanskiWong,      Strategy::kMagic,
      Strategy::kOptMagic};
  int queries_run = 0;
  std::map<Strategy, int> compared;
  int64_t cached_hits = 0;

  for (uint64_t seed = 1; seed <= kDatabases; ++seed) {
    Database db(MakeNullHeavyCatalog(seed));
    Rng rng(seed * 7919);  // identical stream -> identical query text
    DiffQueryGen gen(&rng);
    for (int q = 0; q < kQueriesPerDatabase; ++q) {
      const std::string sql = gen.RandomQuery();
      ++queries_run;
      for (Strategy s : kStrategies) {
        QueryOptions off;
        off.strategy = s;
        off.fallback = false;  // a declined rewrite must say so loudly
        off.subquery_cache_bytes = 0;
        auto base = db.Execute(sql, off);
        if (base.status().code() == StatusCode::kNotImplemented) continue;
        ASSERT_TRUE(base.ok())
            << StrategyName(s) << " cache-off failed (seed " << seed << " q"
            << q << "): " << base.status().ToString() << "\n" << sql;
        const std::vector<std::string> off_rows = Canon(*base);
        // Cache on at the default budget, plus a 1 KB budget that keeps the
        // cache thrashing (insert/evict on nearly every binding).
        for (int64_t cache_bytes : {kDefaultSubqueryCacheBytes, int64_t{1024}}) {
          QueryOptions on = off;
          on.subquery_cache_bytes = cache_bytes;
          auto result = db.Execute(sql, on);
          ASSERT_TRUE(result.ok())
              << StrategyName(s) << " cache-on budget=" << cache_bytes
              << " failed (seed " << seed << " q" << q
              << "): " << result.status().ToString() << "\n" << sql;
          ++compared[s];
          cached_hits += result->stats.subquery_cache_hits;
          EXPECT_EQ(Canon(*result), off_rows)
              << StrategyName(s) << " cache-on budget=" << cache_bytes
              << " diverged (seed " << seed << " q" << q << ")\n" << sql;
          if (s == Strategy::kNestedIteration) {
            // Plain NI must never cache, whatever the option says.
            EXPECT_EQ(result->stats.subquery_cache_hits, 0) << sql;
            EXPECT_EQ(result->stats.subquery_cache_misses, 0) << sql;
          }
        }
      }
    }
  }
  EXPECT_GE(queries_run, 200);
  for (Strategy s : kStrategies) {
    EXPECT_GT(compared[s], 0) << StrategyName(s) << " never ran cached";
  }
  // The sweep is vacuous unless the cache actually served hits somewhere.
  EXPECT_GT(cached_hits, 0);
}

// Spill differential sweep (the graceful-degradation gate): the same 240
// seeded queries, every strategy, with spilling on under half the measured
// peak, fallback off. The baseline is the strategy's own spill-off
// unlimited run, so the comparison isolates exactly what the spill
// machinery changes (nothing observable, if it is correct). Some charges
// have no spill hook (the root result buffer, sort buffers, shared
// subplans), so a bounded run
// may legitimately surface kResourceExhausted — accepted, but only that
// code, and never a wrong answer. The sweep is vacuous unless some runs actually spilled and
// completed, and the scratch directory must stay empty after every query —
// thousands of bounded runs, zero leaked temp files.
TEST(PropertyDiffTest, SpillSweepRowIdenticalToUnlimitedForEveryStrategy) {
  namespace fs = std::filesystem;
  constexpr uint64_t kDatabases = 8;
  constexpr int kQueriesPerDatabase = 30;  // 240 total, same seeds as above
  static const Strategy kStrategies[] = {
      Strategy::kNestedIteration, Strategy::kKim,    Strategy::kDayal,
      Strategy::kGanskiWong,      Strategy::kMagic,  Strategy::kOptMagic};
  const std::string scratch = ProcessScratchDir("property_spill_scratch");
  fs::remove_all(scratch);
  ASSERT_TRUE(fs::create_directories(scratch));
  auto scratch_entries = [&scratch] {
    int n = 0;
    for (const auto& entry : fs::directory_iterator(scratch)) {
      (void)entry;
      ++n;
    }
    return n;
  };
  int queries_run = 0;
  int spilled_and_completed = 0;
  int budget_trips = 0;
  std::map<Strategy, int> compared;

  for (uint64_t seed = 1; seed <= kDatabases; ++seed) {
    Database db(MakeNullHeavyCatalog(seed));
    Rng rng(seed * 7919);  // identical stream -> identical query text
    DiffQueryGen gen(&rng);
    for (int q = 0; q < kQueriesPerDatabase; ++q) {
      const std::string sql = gen.RandomQuery();
      ++queries_run;
      for (Strategy s : kStrategies) {
        QueryOptions unlimited;
        unlimited.strategy = s;
        unlimited.fallback = false;  // a declined rewrite must say so loudly
        auto base = db.Execute(sql, unlimited);
        if (base.status().code() == StatusCode::kNotImplemented) continue;
        ASSERT_TRUE(base.ok())
            << StrategyName(s) << " unlimited failed (seed " << seed << " q"
            << q << "): " << base.status().ToString() << "\n" << sql;
        const std::vector<std::string> unlimited_rows = Canon(*base);
        const int64_t budget =
            std::max<int64_t>(1, base->stats.peak_memory_bytes / 2);
        QueryOptions bounded = unlimited;
        bounded.spill = true;
        bounded.temp_dir = scratch;
        bounded.limits.memory_budget_bytes = budget;
        auto result = db.Execute(sql, bounded);
        if (!result.ok()) {
          // Only ever a clean budget trip — an injected-fault-free bounded
          // run has no other legitimate failure mode.
          ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted)
              << StrategyName(s) << " spill (seed " << seed << " q" << q
              << "): " << result.status().ToString() << "\n" << sql;
          ++budget_trips;
        } else {
          ++compared[s];
          EXPECT_EQ(Canon(*result), unlimited_rows)
              << StrategyName(s) << " spill diverged (seed " << seed << " q"
              << q << ")\n" << sql;
          if (result->stats.spill_partitions > 0) ++spilled_and_completed;
        }
        ASSERT_EQ(scratch_entries(), 0)
            << StrategyName(s) << " leaked temp files (seed " << seed << " q"
            << q << ")\n" << sql;
      }
    }
  }
  EXPECT_GE(queries_run, 200);
  for (Strategy s : kStrategies) {
    EXPECT_GT(compared[s], 0)
        << StrategyName(s) << " never completed a bounded run";
  }
  // The sweep proves nothing unless spilling both happened and the spilled
  // runs produced answers; budget trips are the accepted remainder.
  EXPECT_GT(spilled_and_completed, 0);
  ::testing::Test::RecordProperty("spilled_and_completed",
                                  spilled_and_completed);
  ::testing::Test::RecordProperty("budget_trips", budget_trips);
  fs::remove_all(scratch);
}

// Dedup-pruning differential sweep (the ISSUE 6 acceptance gate): the same
// 240 seeded queries, every rewrite strategy, with the property-derived
// pruning pass on vs off, fallback off. The baseline is the strategy's own
// prune-off run, so the comparison isolates exactly
// what PruneRedundantDedup changes (nothing observable, if the derivations
// are sound); the main sweep above already pins the prune-on default
// against the NI ground truth. Runtime key assertions are forced on, so a
// wrong derived key fails as a loud UniquenessCheck error in every build
// type, not a silent row divergence.
TEST(PropertyDiffTest, PruneSweepRowIdenticalOnVsOffForEveryStrategy) {
  constexpr uint64_t kDatabases = 8;
  constexpr int kQueriesPerDatabase = 30;  // 240 total, same seeds as above
  static const Strategy kRewrites[] = {Strategy::kKim, Strategy::kDayal,
                                       Strategy::kGanskiWong, Strategy::kMagic,
                                       Strategy::kOptMagic};
  int queries_run = 0;
  int pruned_plans = 0;
  std::map<Strategy, int> compared;

  for (uint64_t seed = 1; seed <= kDatabases; ++seed) {
    Database db(MakeNullHeavyCatalog(seed));
    Rng rng(seed * 7919);  // identical stream -> identical query text
    DiffQueryGen gen(&rng);
    for (int q = 0; q < kQueriesPerDatabase; ++q) {
      const std::string sql = gen.RandomQuery();
      ++queries_run;
      for (Strategy s : kRewrites) {
        QueryOptions off;
        off.strategy = s;
        off.fallback = false;  // a declined rewrite must say so loudly
        off.prune_dedup = false;
        off.planner.check_derived_keys = true;
        auto base = db.Execute(sql, off);
        if (base.status().code() == StatusCode::kNotImplemented) continue;
        ASSERT_TRUE(base.ok())
            << StrategyName(s) << " prune-off failed (seed " << seed << " q"
            << q << "): " << base.status().ToString() << "\n" << sql;
        const std::vector<std::string> off_rows = Canon(*base);
        QueryOptions on = off;
        on.prune_dedup = true;
        auto result = db.Execute(sql, on);
        ASSERT_TRUE(result.ok())
            << StrategyName(s) << " prune-on failed (seed " << seed << " q"
            << q << "): " << result.status().ToString() << "\n" << sql;
        ++compared[s];
        EXPECT_EQ(Canon(*result), off_rows)
            << StrategyName(s) << " prune-on diverged (seed " << seed << " q"
            << q << ")\n" << sql;
        // EXPLAIN surfaces prunes as `dedup pruned:` notes; count them so
        // the sweep is provably non-vacuous (some plans must actually lose
        // a DISTINCT or a back-join).
        QueryOptions explain_on = off;
        explain_on.prune_dedup = true;
        auto plan = db.Explain(sql, explain_on);
        if (plan.ok() &&
            plan->plan_text.find("dedup pruned:") != std::string::npos) {
          ++pruned_plans;
        }
      }
    }
  }
  EXPECT_GE(queries_run, 200);
  for (Strategy s : kRewrites) {
    EXPECT_GT(compared[s], 0) << StrategyName(s) << " never ran pruned";
  }
  // The sweep proves nothing unless the pruning pass fired somewhere.
  EXPECT_GT(pruned_plans, 0);
}

// The timing leg's yardstick. Optimized builds compare whole-query wall
// time. Debug builds run the rewrites and the planner unoptimized, where
// Mag's front end alone costs several times NI's whole query, and
// sanitizers slow that front end further; those builds compare the
// execution phase instead. Sanitizers also slow execution unevenly across
// plans, so they get a wider bound, which still catches a pick that is off
// by an order of magnitude.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kTimesWholeQuery = false;
constexpr double kPickRatio = 2.0;
constexpr double kPickSlackMs = 8.0;
#elif !defined(NDEBUG)
constexpr bool kTimesWholeQuery = false;
constexpr double kPickRatio = 1.25;
constexpr double kPickSlackMs = 2.0;
#else
constexpr bool kTimesWholeQuery = true;
constexpr double kPickRatio = 1.25;
constexpr double kPickSlackMs = 2.0;
#endif

// Auto differential sweep (the ISSUE 8 acceptance gate): the same 240
// seeded queries under cost-based selection with the subquery cache on and
// off, fallback off, multiset-identical to the NI ground
// truth. Correctness must hold whatever the cost model picks — including on
// the COUNT-bug shapes, where the selector statically refuses Kim. A timing
// leg then holds the pick competitive: in an optimized build the chosen
// strategy's best-of-3 wall time must stay within 1.25x of the best
// *correct* hand-picked strategy for that query (plus a 2 ms absolute
// floor — these queries run in microseconds, where scheduler noise would
// otherwise dominate a pure ratio; other builds: see kTimesWholeQuery). Hand picks whose rows diverge from NI (Kim's sanctioned COUNT
// bug) are not a bar the selector has to clear.
TEST(PropertyDiffTest, AutoSweepMatchesNestedIterationAndPicksCompetitively) {
  constexpr uint64_t kDatabases = 8;
  constexpr int kQueriesPerDatabase = 30;  // 240 total, same seeds as above
  static const Strategy kHandPicked[] = {
      Strategy::kNestedIteration, Strategy::kNestedIterationCached,
      Strategy::kKim,             Strategy::kDayal,
      Strategy::kGanskiWong,      Strategy::kMagic,
      Strategy::kOptMagic};
  int queries_run = 0;
  int decorrelated_picks = 0;
  int timing_checks = 0;
  std::map<std::string, int> chosen_counts;

  // Best-of-3 time: the minimum strips one-off scheduler hiccups and
  // first-touch allocation costs, which at this scale dwarf plan quality.
  // Timed runs skip verification, which Debug builds turn on by default and
  // which would otherwise swamp the plans being compared; the row checks
  // keep it on.
  auto best_of_3_ms = [](Database& db, const std::string& sql,
                         QueryOptions options) {
    options.verify = false;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto r = db.Execute(sql, options);
      const auto stop = std::chrono::steady_clock::now();
      if (!r.ok()) return -1.0;
      const double ms =
          kTimesWholeQuery
              ? std::chrono::duration<double, std::milli>(stop - start).count()
              : static_cast<double>(r->profile.exec_nanos) / 1e6;
      best = std::min(best, ms);
    }
    return best;
  };

  for (uint64_t seed = 1; seed <= kDatabases; ++seed) {
    Database db(MakeNullHeavyCatalog(seed));
    Rng rng(seed * 7919);  // identical stream -> identical query text
    DiffQueryGen gen(&rng);
    for (int q = 0; q < kQueriesPerDatabase; ++q) {
      const std::string sql = gen.RandomQuery();
      ++queries_run;
      QueryOptions ni;
      ni.strategy = Strategy::kNestedIteration;
      ni.fallback = false;
      auto truth = db.Execute(sql, ni);
      ASSERT_TRUE(truth.ok())
          << "NI failed (seed " << seed << " q" << q << "): "
          << truth.status().ToString() << "\n" << sql;
      const std::vector<std::string> ni_rows = Canon(*truth);

      // Correctness leg: auto must never decline (NI is always applicable)
      // and must match NI rows with the cache on and off.
      Strategy chosen = Strategy::kAuto;
      for (int64_t cache_bytes : {kDefaultSubqueryCacheBytes, int64_t{0}}) {
        QueryOptions automatic;
        automatic.strategy = Strategy::kAuto;
        automatic.fallback = false;  // a selector failure must say so loudly
        automatic.subquery_cache_bytes = cache_bytes;
        auto result = db.Execute(sql, automatic);
        ASSERT_TRUE(result.ok())
            << "Auto cache=" << cache_bytes << " failed (seed " << seed
            << " q" << q << "): " << result.status().ToString() << "\n"
            << sql;
        EXPECT_EQ(Canon(*result), ni_rows)
            << "Auto cache=" << cache_bytes << " diverged (seed " << seed
            << " q" << q << ")\n" << sql;
        if (cache_bytes == kDefaultSubqueryCacheBytes) {
          chosen = result->effective_strategy;
        }
      }
      ASSERT_NE(chosen, Strategy::kAuto) << sql;
      ++chosen_counts[StrategyName(chosen)];
      if (chosen != Strategy::kNestedIteration) ++decorrelated_picks;

      // Timing leg (serial, default cache — the variant the pick above was
      // made under): the chosen strategy must be within the bound of the
      // best correct hand-picked strategy. Every timed strategy is first vetted
      // against the NI rows, so a fast-but-wrong Kim never sets the bar.
      double best_ms = -1.0;
      double chosen_ms = -1.0;
      for (Strategy s : kHandPicked) {
        QueryOptions options;
        options.strategy = s;
        options.fallback = false;
        auto r = db.Execute(sql, options);
        if (!r.ok() || Canon(*r) != ni_rows) continue;
        const double ms = best_of_3_ms(db, sql, options);
        if (ms < 0) continue;
        if (best_ms < 0 || ms < best_ms) best_ms = ms;
        if (chosen == s) chosen_ms = ms;
      }
      ASSERT_GE(best_ms, 0.0) << sql;
      ASSERT_GE(chosen_ms, 0.0)
          << "auto chose " << StrategyName(chosen)
          << ", which is not a correct hand-pickable strategy here\n" << sql;
      EXPECT_LE(chosen_ms, kPickRatio * best_ms + kPickSlackMs)
          << "auto pick " << StrategyName(chosen) << " = " << chosen_ms
          << " ms vs best hand-picked " << best_ms << " ms (seed " << seed
          << " q" << q << ")\n" << sql;
      ++timing_checks;
    }
  }
  EXPECT_GE(queries_run, 200);
  EXPECT_EQ(timing_checks, queries_run);
  // The sweep is vacuous if the selector only ever parrots NI.
  EXPECT_GT(decorrelated_picks, 0);
  for (const auto& [name, count] : chosen_counts) {
    ::testing::Test::RecordProperty("auto_chose_" + name, count);
  }
}

// kAuto keeps the graph its selector rewrote for the pick instead of
// rewriting again. Over the same 240 queries, that graph must be the one a
// Prepare under the picked strategy builds: the same QGM before and after
// the rewrite, and the same EXPLAIN once the selector's `auto ` note lines
// are dropped. Debug builds verify every trial on the way.
TEST(PropertyDiffTest, AutoKeepsTheGraphOfItsPick) {
  constexpr uint64_t kDatabases = 8;
  constexpr int kQueriesPerDatabase = 30;  // 240 total, same seeds as above
  auto drop_auto_notes = [](const std::string& plan_text) {
    std::istringstream lines(plan_text);
    std::string kept;
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("auto ", 0) != 0) kept += line + "\n";
    }
    return kept;
  };
  std::map<Strategy, int> picks;
  for (uint64_t seed = 1; seed <= kDatabases; ++seed) {
    Database db(MakeNullHeavyCatalog(seed));
    Rng rng(seed * 7919);  // identical stream -> identical query text
    DiffQueryGen gen(&rng);
    for (int q = 0; q < kQueriesPerDatabase; ++q) {
      const std::string sql = gen.RandomQuery();
      QueryOptions automatic;
      automatic.strategy = Strategy::kAuto;
      automatic.fallback = false;
      automatic.capture_qgm = true;
      ResourceGuard guard;
      auto kept = db.Prepare(sql, automatic, &guard);
      ASSERT_TRUE(kept.ok()) << kept.status().ToString() << "\n" << sql;
      ++picks[kept->effective];
      QueryOptions direct = automatic;
      direct.strategy = kept->effective;
      auto rewritten = db.Prepare(sql, direct, &guard);
      ASSERT_TRUE(rewritten.ok())
          << rewritten.status().ToString() << "\n" << sql;
      EXPECT_EQ(kept->qgm_before, rewritten->qgm_before) << sql;
      EXPECT_EQ(kept->qgm_after, rewritten->qgm_after)
          << StrategyName(kept->effective) << " (seed " << seed << " q" << q
          << ")\n" << sql;

      auto explained = db.Explain(sql, automatic);
      auto explained_direct = db.Explain(sql, direct);
      ASSERT_TRUE(explained.ok()) << explained.status().ToString();
      ASSERT_TRUE(explained_direct.ok())
          << explained_direct.status().ToString();
      EXPECT_NE(explained->plan_text, explained_direct->plan_text);
      EXPECT_EQ(drop_auto_notes(explained->plan_text),
                drop_auto_notes(explained_direct->plan_text))
          << StrategyName(kept->effective) << " (seed " << seed << " q" << q
          << ")\n" << sql;
    }
  }
  // The corpus picks decorrelating strategies, so its kept graphs are trial
  // graphs; cost_model_test's AutoSelectionTest covers kept pristine graphs
  // (NI and NI+C picks) on the TPC-D figure queries.
  for (const auto& [strategy, count] : picks) {
    ::testing::Test::RecordProperty(
        std::string("auto_kept_") + StrategyName(strategy), count);
  }
}

}  // namespace
}  // namespace decorr
