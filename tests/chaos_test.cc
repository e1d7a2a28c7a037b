// Chaos sweep: discover every fault point a broad workload exercises, then
// re-run the workload once per site with that site armed to fail, asserting
// the injected Status reaches the API boundary unchanged — no crash, no
// leak (the CI sanitize job runs this under ASan/UBSan), and no swallowed
// error. A seeded random-faulting soak and a fallback-recovery pass ride
// along.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "decorr/common/fault.h"
#include "decorr/runtime/csv.h"
#include "decorr/runtime/database.h"
#include "decorr/server/server.h"
#include "decorr/server/session.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

// Spill-to-disk coverage: a fact/dim join, a grouped aggregate, and a
// DISTINCT, each run once unlimited and once under half its measured peak
// with spilling on. Spill completion is deterministic — spill_test's budget
// ladders pin that every rung from 30% to 90% of peak completes by
// spilling — so the chaos sweep can assert a clean run succeeds and a
// faulted run surfaces the injected status verbatim. Half-peak budgets force
// Grace partitioning in both spilling operators (the DISTINCT runs as a
// hash aggregate), putting the exec.spill.*.partition and storage.tmpfile.*
// fault sites in reach.
// `scratch` empty means the system temp dir; the leak-check test passes its
// own directory so it can count leftover entries.
Status RunSpillChaosSection(const std::string& scratch) {
  Database db;
  DECORR_RETURN_IF_ERROR(db.CreateTable(TableSchema(
      "fact",
      {{"id", TypeId::kInt64, false},
       {"grp", TypeId::kInt64, false},
       {"val", TypeId::kInt64, false},
       {"tag", TypeId::kString, false}},
      /*primary_key=*/{0})));
  std::vector<Row> facts;
  for (int64_t i = 0; i < 512; ++i) {
    facts.push_back(
        {I(i), I(i % 96), I(i % 13), S("tag-" + std::to_string(i % 96))});
  }
  DECORR_RETURN_IF_ERROR(db.Insert("fact", facts));
  DECORR_RETURN_IF_ERROR(db.CreateTable(TableSchema(
      "dim",
      {{"g", TypeId::kInt64, false}, {"label", TypeId::kString, false}},
      /*primary_key=*/{0})));
  std::vector<Row> dims;
  for (int64_t g = 0; g < 96; ++g) {
    dims.push_back({I(g), S("dim-" + std::to_string(g))});
  }
  DECORR_RETURN_IF_ERROR(db.Insert("dim", dims));
  DECORR_RETURN_IF_ERROR(db.AnalyzeAll());

  for (const char* sql :
       {"SELECT COUNT(*) FROM fact f, dim d WHERE f.grp = d.g",
        "SELECT COUNT(*) FROM "
        "(SELECT grp, SUM(val) FROM fact GROUP BY grp) AS t(g, s)",
        "SELECT COUNT(*) FROM (SELECT DISTINCT tag FROM fact) AS t(x)"}) {
    QueryOptions unlimited;
    unlimited.fallback = false;
    DECORR_ASSIGN_OR_RETURN(QueryResult full, db.Execute(sql, unlimited));
    QueryOptions bounded;
    bounded.fallback = false;  // an injected fault must surface, not degrade
    bounded.spill = true;
    bounded.temp_dir = scratch;
    bounded.limits.memory_budget_bytes = full.stats.peak_memory_bytes / 2;
    DECORR_ASSIGN_OR_RETURN(QueryResult spilled, db.Execute(sql, bounded));
    if (spilled.stats.spill_partitions <= 0) {
      return Status::Internal(std::string("spill section never spilled: ") +
                              sql);
    }
    if (spilled.rows.size() != 1 || full.rows.size() != 1 ||
        !spilled.rows[0][0].Equals(full.rows[0][0])) {
      return Status::Internal(std::string("spilled answer drifted: ") + sql);
    }
  }
  return Status::OK();
}

// Builds the paper's EMP/DEPT database through the status-checked Database
// API (MakeEmpDeptCatalog ignores statuses, which would swallow injected
// faults) and runs a workload covering scans, filters, joins, aggregation,
// DISTINCT/ORDER BY/LIMIT, UNION ALL, lateral derived tables, correlated
// subqueries under every rewrite strategy, index maintenance, and CSV
// import. Aborts at the first error so an injected fault surfaces verbatim.
Status RunChaosWorkload() {
  Database db;
  DECORR_RETURN_IF_ERROR(db.CreateTable(TableSchema(
      "dept",
      {{"name", TypeId::kString, false},
       {"budget", TypeId::kInt64, false},
       {"num_emps", TypeId::kInt64, false},
       {"building", TypeId::kInt64, false}},
      /*primary_key=*/{0})));
  DECORR_RETURN_IF_ERROR(db.CreateTable(TableSchema(
      "emp",
      {{"emp_id", TypeId::kInt64, false},
       {"name", TypeId::kString, false},
       {"building", TypeId::kInt64, false},
       {"salary", TypeId::kInt64, false}},
      /*primary_key=*/{0})));
  DECORR_RETURN_IF_ERROR(db.Insert("dept", {{S("math"), I(5000), I(4), I(10)},
                                            {S("cs"), I(8000), I(6), I(10)},
                                            {S("ee"), I(7000), I(2), I(20)},
                                            {S("physics"), I(500), I(1), I(30)},
                                            {S("bio"), I(20000), I(9), I(20)},
                                            {S("chem"), I(3000), I(1), I(20)}}));
  DECORR_RETURN_IF_ERROR(db.Insert("emp", {{I(1), S("ann"), I(10), I(50)},
                                           {I(2), S("bob"), I(10), I(60)},
                                           {I(3), S("cat"), I(10), I(70)},
                                           {I(4), S("dan"), I(20), I(55)},
                                           {I(5), S("eve"), I(20), I(65)},
                                           {I(6), S("fox"), I(20), I(75)},
                                           {I(7), S("gil"), I(20), I(45)},
                                           {I(8), S("hal"), I(40), I(85)}}));
  DECORR_RETURN_IF_ERROR(db.AnalyzeAll());
  DECORR_RETURN_IF_ERROR(db.CreateIndex("emp", "emp_building", {"building"}));
  DECORR_ASSIGN_OR_RETURN(int64_t imported,
                          ImportCsv(&db, "emp", "9,ivy,10,52\n",
                                    /*header=*/false));
  if (imported != 1) return Status::Internal("CSV import row count");

  auto run = [&db](const std::string& sql, Strategy strategy,
                   bool decorrelate_existentials = false) -> Status {
    QueryOptions options;
    options.strategy = strategy;
    options.fallback = false;  // an injected fault must surface, not degrade
    options.decorr.decorrelate_existentials = decorrelate_existentials;
    // Force the runtime uniqueness assertions on (they default off in
    // Release) so the exec.uniqcheck fault site is in reach of the sweep in
    // every build type.
    options.planner.check_derived_keys = true;
    DECORR_ASSIGN_OR_RETURN(QueryResult result, db.Execute(sql, options));
    if (result.column_names.empty()) return Status::Internal("no columns");
    return Status::OK();
  };

  // The paper example under every strategy (Apply, hash join, aggregation,
  // and all four rewrite families). NI+C puts the subquery-memoization
  // fault sites (exec.subqcache.*) in reach — plain NI never caches. The
  // kAuto run reaches the cost-model sites (rewrite.auto.select,
  // planner.cost.estimate); with fallback off an injected fault inside the
  // selector — or inside any trial rewrite it prices — must surface
  // verbatim, never be downgraded to "candidate inapplicable".
  for (Strategy s : {Strategy::kNestedIteration,
                     Strategy::kNestedIterationCached, Strategy::kKim,
                     Strategy::kDayal, Strategy::kGanskiWong, Strategy::kMagic,
                     Strategy::kOptMagic, Strategy::kAuto}) {
    DECORR_RETURN_IF_ERROR(run(kPaperExampleQuery, s));
  }
  // Correlation on the outer table's PRIMARY KEY: the magic rewrite's
  // binding set covers a key, so the pruning pass drops the MAGIC DISTINCT
  // (Rule A) and the planner plants a UniquenessCheckOp — putting the
  // rewrite.prune.dedup and exec.uniqcheck fault sites in reach.
  DECORR_RETURN_IF_ERROR(run(
      "SELECT d.name FROM dept d WHERE d.budget > "
      "(SELECT SUM(e.salary) FROM emp e WHERE e.name <> d.name)",
      Strategy::kMagic));
  // Decorrelated EXISTS (GroupProbeApply) and its NI baseline.
  const char* exists_sql =
      "SELECT d.name FROM dept d WHERE EXISTS "
      "(SELECT 1 FROM emp e WHERE e.building = d.building)";
  DECORR_RETURN_IF_ERROR(run(exists_sql, Strategy::kNestedIteration));
  DECORR_RETURN_IF_ERROR(run(exists_sql, Strategy::kMagic,
                             /*decorrelate_existentials=*/true));
  // Lateral derived table over UNION ALL.
  DECORR_RETURN_IF_ERROR(run(
      "SELECT d.name, t.c FROM dept d, "
      "(SELECT SUM(b) FROM ((SELECT e.salary FROM emp e "
      "                      WHERE e.building = d.building) "
      "   UNION ALL (SELECT e2.emp_id FROM emp e2 "
      "              WHERE e2.building = d.building)) AS u(b)) AS t(c)",
      Strategy::kNestedIteration));
  // Same lateral plan memoized (the lateral Apply's binding memo).
  DECORR_RETURN_IF_ERROR(run(
      "SELECT d.name, t.c FROM dept d, "
      "(SELECT SUM(b) FROM ((SELECT e.salary FROM emp e "
      "                      WHERE e.building = d.building) "
      "   UNION ALL (SELECT e2.emp_id FROM emp e2 "
      "              WHERE e2.building = d.building)) AS u(b)) AS t(c)",
      Strategy::kNestedIterationCached));
  // DISTINCT + ORDER BY + LIMIT; plain join; indexed point lookup.
  DECORR_RETURN_IF_ERROR(run(
      "SELECT DISTINCT building FROM emp ORDER BY building LIMIT 3",
      Strategy::kNestedIteration));
  DECORR_RETURN_IF_ERROR(run(
      "SELECT d.name, e.name FROM dept d, emp e "
      "WHERE d.building = e.building",
      Strategy::kNestedIteration));
  DECORR_RETURN_IF_ERROR(
      run("SELECT name FROM emp WHERE building = 10",
          Strategy::kNestedIteration));
  // Non-equi join (nested-loop join, no hashable key).
  DECORR_RETURN_IF_ERROR(run(
      "SELECT d.name, e.name FROM dept d, emp e "
      "WHERE d.building < e.building",
      Strategy::kNestedIteration));
  // Top-level UNION ALL.
  DECORR_RETURN_IF_ERROR(run(
      "SELECT building FROM dept UNION ALL SELECT building FROM emp",
      Strategy::kNestedIteration));
  // Bounded-memory spill runs, so the sweep reaches the temp-file and
  // Grace-partitioning fault sites.
  DECORR_RETURN_IF_ERROR(RunSpillChaosSection(/*scratch=*/""));
  // Serving-layer section: the same EMP/DEPT shape through a Server so the
  // sweep reaches the admission and plan-cache fault sites (server.admit,
  // server.plancache.lookup, server.plancache.insert). The statement runs
  // twice — the first pass misses and inserts, the second hits — so both
  // cache paths are armed. fallback stays off: an injected status must
  // surface verbatim through session -> server -> database.
  {
    Server server;
    DECORR_RETURN_IF_ERROR(server.Mutate([](Database& sdb) {
      DECORR_RETURN_IF_ERROR(sdb.CreateTable(TableSchema(
          "dept",
          {{"name", TypeId::kString, false},
           {"budget", TypeId::kInt64, false},
           {"num_emps", TypeId::kInt64, false},
           {"building", TypeId::kInt64, false}},
          /*primary_key=*/{0})));
      DECORR_RETURN_IF_ERROR(sdb.CreateTable(TableSchema(
          "emp",
          {{"emp_id", TypeId::kInt64, false},
           {"name", TypeId::kString, false},
           {"building", TypeId::kInt64, false},
           {"salary", TypeId::kInt64, false}},
          /*primary_key=*/{0})));
      DECORR_RETURN_IF_ERROR(
          sdb.Insert("dept", {{S("math"), I(5000), I(4), I(10)},
                              {S("cs"), I(8000), I(6), I(10)},
                              {S("physics"), I(500), I(1), I(30)}}));
      DECORR_RETURN_IF_ERROR(sdb.Insert("emp", {{I(1), S("ann"), I(10), I(50)},
                                                {I(2), S("bob"), I(10), I(60)},
                                                {I(3), S("cat"), I(10), I(70)}}));
      return sdb.AnalyzeAll();
    }));
    std::shared_ptr<Session> session = server.Connect("chaos");
    QueryOptions options;
    options.strategy = Strategy::kMagic;
    options.fallback = false;  // an injected fault must surface, not degrade
    options.planner.check_derived_keys = true;
    for (int pass = 0; pass < 2; ++pass) {
      DECORR_ASSIGN_OR_RETURN(QueryResult served,
                              session->Execute(kPaperExampleQuery, options));
      if (served.rows.size() != 3) {
        return Status::Internal("server section row count");
      }
    }
  }
  return Status::OK();
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(ChaosTest, SweepInjectsAtEverySiteAndPropagatesCleanly) {
  FaultInjector& fi = FaultInjector::Global();

  // Discovery: record every site the workload exercises.
  fi.EnableRecording();
  Status clean = RunChaosWorkload();
  ASSERT_TRUE(clean.ok()) << clean.ToString();
  const std::vector<std::string> sites = fi.Sites();
  std::map<std::string, int64_t> hit_counts;
  for (const std::string& site : sites) hit_counts[site] = fi.HitCount(site);
  fi.Reset();
  ASSERT_GE(sites.size(), 25u)
      << "chaos workload exercises too few fault sites";
  // The NI+C runs must reach the subquery-cache fault sites, or the sweep
  // below never proves cache faults propagate; likewise the PK-correlated
  // magic run must reach the dedup-pruning pass and its runtime assertion.
  for (const char* required :
       {"exec.subqcache.lookup", "exec.subqcache.insert",
        "rewrite.prune.dedup", "exec.uniqcheck",
        // The spill section must reach Grace partitioning in both
        // spilling operators plus every layer of the temp-file stack.
        "exec.spill.join.partition", "exec.spill.agg.partition",
        "storage.tmpfile.create", "storage.tmpfile.write",
        "storage.tmpfile.read", "storage.tmpfile.corrupt",
        // The serving-layer section must reach admission and both plan-cache
        // paths, or server faults are never proven to propagate.
        "server.admit", "server.plancache.lookup",
        "server.plancache.insert"}) {
    ASSERT_NE(std::find(sites.begin(), sites.end(), required), sites.end())
        << required << " never hit by the chaos workload";
  }

  // Sweep: fail each site on its first hit, then again mid-stream; the
  // workload must return exactly the injected status — anything else means
  // an error was swallowed or transformed along the way.
  for (const std::string& site : sites) {
    const Status injected = Status::Internal("chaos: injected at " + site);
    for (int64_t skip : {int64_t{0}, hit_counts[site] / 2}) {
      fi.Arm(site, injected, skip);
      Status st = RunChaosWorkload();
      fi.Reset();
      ASSERT_FALSE(st.ok())
          << "fault at " << site << " (skip " << skip << ") was swallowed";
      EXPECT_EQ(st.code(), StatusCode::kInternal)
          << site << ": " << st.ToString();
      EXPECT_EQ(st.message(), injected.message())
          << site << " (skip " << skip << ")";
      if (skip == hit_counts[site] / 2) break;  // skip 0 == count/2 for 1-hit
    }
  }
}

// Runtime half of the fault-site registry lint: tests/fault_sites.txt is
// kept equal to the set of sites compiled into src/ by
// scripts/check_fault_sites.py (CI runs it); this test proves the sweep can
// actually reach every registered site — the workload's recorded sites
// must cover the manifest. A site listed here but never hit is dead
// robustness coverage: the sweep above would silently stop injecting at it.
TEST_F(ChaosTest, SweepReachesEveryRegisteredSite) {
  FaultInjector& fi = FaultInjector::Global();
  fi.EnableRecording();
  Status st = RunChaosWorkload();
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::vector<std::string> sites = fi.Sites();
  fi.Reset();

  std::ifstream manifest(std::string(DECORR_SOURCE_DIR) +
                         "/tests/fault_sites.txt");
  ASSERT_TRUE(manifest.good())
      << "tests/fault_sites.txt missing; regenerate with "
         "scripts/check_fault_sites.py --update";
  std::vector<std::string> missing;
  std::string line;
  int registered = 0;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    ++registered;
    if (std::find(sites.begin(), sites.end(), line) == sites.end()) {
      missing.push_back(line);
    }
  }
  ASSERT_GT(registered, 25) << "manifest suspiciously small";
  EXPECT_TRUE(missing.empty())
      << "registered fault sites never reached by the chaos workload "
         "(extend RunChaosWorkload or retire the site): "
      << [&missing] {
           std::string joined;
           for (const std::string& site : missing) joined += site + " ";
           return joined;
         }();
}

TEST_F(ChaosTest, SpillFaultsLeaveNoTempFilesBehind) {
  // The sweeps above prove spill faults propagate verbatim; this pins the
  // other half of the contract: wherever the injected fault lands in the
  // spill stack, the scratch directory is empty afterwards. Cleanup is
  // destructor-driven (SpillFile unlink + TempFileManager remove_all), so
  // no error path may skip it.
  namespace fs = std::filesystem;
  const std::string scratch = ProcessScratchDir("chaos_spill_scratch");
  fs::remove_all(scratch);
  ASSERT_TRUE(fs::create_directories(scratch));
  auto count_entries = [&scratch] {
    int n = 0;
    for (const auto& entry : fs::directory_iterator(scratch)) {
      (void)entry;
      ++n;
    }
    return n;
  };
  FaultInjector& fi = FaultInjector::Global();

  fi.EnableRecording();
  Status clean = RunSpillChaosSection(scratch);
  ASSERT_TRUE(clean.ok()) << clean.ToString();
  std::map<std::string, int64_t> hit_counts;
  for (const std::string& site : fi.Sites()) {
    hit_counts[site] = fi.HitCount(site);
  }
  fi.Reset();
  ASSERT_EQ(count_entries(), 0) << "clean spill run leaked temp files";

  for (const char* site :
       {"exec.spill.join.partition", "exec.spill.agg.partition",
        "storage.tmpfile.create", "storage.tmpfile.write",
        "storage.tmpfile.read", "storage.tmpfile.corrupt"}) {
    ASSERT_GT(hit_counts[site], 0)
        << site << " not reached by the spill section";
    const Status injected = Status::Internal(std::string("chaos: ") + site);
    for (int64_t skip : {int64_t{0}, hit_counts[site] / 2}) {
      fi.Arm(site, injected, skip);
      Status st = RunSpillChaosSection(scratch);
      fi.Reset();
      ASSERT_FALSE(st.ok())
          << "fault at " << site << " (skip " << skip << ") was swallowed";
      EXPECT_EQ(st.message(), injected.message())
          << site << " (skip " << skip << ")";
      EXPECT_EQ(count_entries(), 0)
          << "temp files leaked after injected fault at " << site
          << " (skip " << skip << ")";
      if (skip == hit_counts[site] / 2) break;  // skip 0 == count/2 for 1-hit
    }
  }
  fs::remove_all(scratch);
}

TEST_F(ChaosTest, CacheFaultsNeverYieldStaleOrPartialRows) {
  // Fail each subquery-cache site at every offset the paper query reaches.
  // Each faulted run must return the injected status verbatim — never a
  // partial row set assembled from a cache in an undefined state — and a
  // clean re-run right after must produce exactly the uncached answer (a
  // faulted query must not poison anything observable by later queries).
  FaultInjector& fi = FaultInjector::Global();
  Database db(MakeEmpDeptCatalog());
  auto sorted_names = [](const std::vector<Row>& rows) {
    std::vector<std::string> names;
    for (const Row& row : rows) names.emplace_back(row[0].string_value());
    std::sort(names.begin(), names.end());
    return names;
  };

  QueryOptions cached;
  cached.strategy = Strategy::kNestedIterationCached;
  cached.fallback = false;  // an injected fault must surface, not degrade

  for (const char* site :
       {"exec.subqcache.lookup", "exec.subqcache.insert"}) {
    bool fired = false;
    for (int64_t skip = 0; skip < 64; ++skip) {
      const Status injected =
          Status::Internal(std::string("chaos: injected at ") + site);
      fi.Arm(site, injected, skip);
      auto r = db.Execute(kPaperExampleQuery, cached);
      fi.Reset();
      if (r.ok()) {
        // Armed past the site's last hit: the run was clean and must match.
        EXPECT_EQ(sorted_names(r->rows), PaperExampleAnswers())
            << site << " (skip " << skip << ")";
        break;
      }
      fired = true;
      EXPECT_EQ(r.status().code(), StatusCode::kInternal)
          << site << ": " << r.status().ToString();
      EXPECT_EQ(r.status().message(), injected.message())
          << site << " (skip " << skip << ")";
      auto clean = db.Execute(kPaperExampleQuery, cached);
      ASSERT_TRUE(clean.ok())
          << site << " (skip " << skip << "): fault leaked into a clean run: "
          << clean.status().ToString();
      EXPECT_EQ(sorted_names(clean->rows), PaperExampleAnswers())
          << site << " (skip " << skip << ")";
    }
    EXPECT_TRUE(fired) << site << " never fired; cache path not exercised";
  }
}

TEST_F(ChaosTest, SeededRandomFaultingSoak) {
  FaultInjector& fi = FaultInjector::Global();
  int failures = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    fi.ArmRandom(seed, /*period=*/200,
                 Status::ExecutionError("chaos-random"));
    Status st = RunChaosWorkload();
    fi.Reset();
    if (!st.ok()) {
      ++failures;
      // Whatever failed must be the injected fault, surfaced verbatim.
      EXPECT_EQ(st.code(), StatusCode::kExecutionError) << st.ToString();
      EXPECT_EQ(st.message(), "chaos-random");
    }
  }
  EXPECT_GT(failures, 0) << "soak never faulted; period too large?";
}

TEST_F(ChaosTest, RewriteFaultsRecoverViaFallback) {
  FaultInjector& fi = FaultInjector::Global();
  for (const char* site :
       {"rewrite.magic", "rewrite.cleanup", "rewrite.prune.dedup"}) {
    fi.Arm(site, Status::Internal(std::string("chaos: ") + site));
    Database db(MakeEmpDeptCatalog());
    QueryOptions magic;
    magic.strategy = Strategy::kMagic;  // fallback defaults on
    auto r = db.Execute(kPaperExampleQuery, magic);
    fi.Reset();
    ASSERT_TRUE(r.ok()) << site << ": " << r.status().ToString();
    EXPECT_FALSE(r->fallback_reason.empty()) << site;
    EXPECT_EQ(r->effective_strategy, Strategy::kNestedIteration) << site;
    std::vector<std::string> names;
    for (const Row& row : r->rows) names.emplace_back(row[0].string_value());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, PaperExampleAnswers()) << site;
  }
}

TEST_F(ChaosTest, AutoSelectionFaultsFallBackToNestedIteration) {
  // A fault anywhere in the cost-based selector — the selection entry point
  // or the block estimator it drives — must not kill an auto query: the
  // default fallback path re-runs under plain NI and records why, exactly
  // as it does for a failed hand-picked rewrite.
  FaultInjector& fi = FaultInjector::Global();
  for (const char* site : {"rewrite.auto.select", "planner.cost.estimate"}) {
    fi.Arm(site, Status::Internal(std::string("chaos: ") + site));
    Database db(MakeEmpDeptCatalog());
    QueryOptions automatic;
    automatic.strategy = Strategy::kAuto;  // fallback defaults on
    auto r = db.Execute(kPaperExampleQuery, automatic);
    fi.Reset();
    ASSERT_TRUE(r.ok()) << site << ": " << r.status().ToString();
    EXPECT_FALSE(r->fallback_reason.empty()) << site;
    EXPECT_EQ(r->effective_strategy, Strategy::kNestedIteration) << site;
    EXPECT_NE(r->fallback_reason.find("Auto"), std::string::npos)
        << site << ": " << r->fallback_reason;
    EXPECT_NE(r->fallback_reason.find("fell back to nested iteration"),
              std::string::npos)
        << site << ": " << r->fallback_reason;
    std::vector<std::string> names;
    for (const Row& row : r->rows) names.emplace_back(row[0].string_value());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, PaperExampleAnswers()) << site;
  }
}

}  // namespace
}  // namespace decorr
