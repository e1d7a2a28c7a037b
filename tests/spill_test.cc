// Spill-to-disk execution under memory pressure (DESIGN.md §12): the
// temp-file page format (checksums, NULL-exact row serialization), Grace
// partitioning invariants (depth cap, salted hashes), operator-level
// spill-vs-in-memory result identity, fault-injected temp I/O, and the
// zero-leaked-temp-files guarantee on every exit path (success, error,
// cancellation, injected fault).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "decorr/common/fault.h"
#include "decorr/exec/apply.h"
#include "decorr/exec/join.h"
#include "decorr/exec/scan.h"
#include "decorr/runtime/database.h"
#include "decorr/storage/temp_file.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

namespace fs = std::filesystem;

// Rows rendered and sorted: spilling may reorder output (DISTINCT
// especially), so every identity check here is a multiset comparison.
std::vector<std::string> Multiset(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.is_null() ? std::string("<null>") : v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

int CountScratchEntries(const std::string& dir) {
  int n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Storage layer: page format, checksums, serialization.

class SpillStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ProcessScratchDir("spill_storage_test");
    fs::create_directories(dir_);
    FaultInjector::Global().Reset();
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    fs::remove_all(dir_);
  }
  std::string dir_;
};

TEST_F(SpillStorageTest, RowsRoundTripAcrossPageBoundaries) {
  TempFileManager temp(dir_, /*disk_budget_bytes=*/0);
  ASSERT_TRUE(temp.Open().ok());
  auto file = temp.Create("roundtrip");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  SpillWriter writer(file.value().get());

  // Enough data to span several 4 KiB pages, with a long string that is
  // itself bigger than one page.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back({I(i), D(i * 0.5), S("row-" + std::to_string(i)),
                    Value::Bool(i % 2 == 0)});
  }
  rows.push_back({S(std::string(2 * kSpillPageSize, 'x')), I(-1)});
  for (const Row& row : rows) ASSERT_TRUE(writer.WriteRow(row).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.rows_written(), static_cast<int64_t>(rows.size()));
  EXPECT_GT(file.value()->bytes(), 2 * kSpillPageSize);
  EXPECT_EQ(file.value()->bytes() % kSpillPageSize, 0) << "partial page";

  SpillReader reader(file.value().get());
  for (const Row& expected : rows) {
    Row got;
    bool eof = true;
    ASSERT_TRUE(reader.ReadRow(&got, &eof).ok());
    ASSERT_FALSE(eof);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].Equals(expected[i]) ||
                  (got[i].is_null() && expected[i].is_null()));
    }
  }
  Row got;
  bool eof = false;
  ASSERT_TRUE(reader.ReadRow(&got, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(SpillStorageTest, StringsAtTheInlineBoundRoundTripExactly) {
  TempFileManager temp(dir_, 0);
  ASSERT_TRUE(temp.Open().ok());
  auto file = temp.Create("strings");
  ASSERT_TRUE(file.ok());
  SpillWriter writer(file.value().get());
  // Inline (up to 22 bytes) and heap (23 and more) strings, as keys and as
  // payload columns.
  std::vector<std::string> texts;
  for (size_t n : {0, 21, 22, 23, 24, 64, 300}) {
    std::string text(n, 'q');
    for (size_t i = 0; i < n; ++i) text[i] = static_cast<char>('a' + i % 26);
    texts.push_back(text);
  }
  std::vector<Row> rows;
  for (size_t i = 0; i < texts.size(); ++i) {
    rows.push_back({S(texts[i]), I(static_cast<int64_t>(i)),
                    S(texts[texts.size() - 1 - i])});
  }
  for (const Row& row : rows) ASSERT_TRUE(writer.WriteRow(row).ok());
  ASSERT_TRUE(writer.Finish().ok());

  SpillReader reader(file.value().get());
  for (size_t i = 0; i < rows.size(); ++i) {
    Row got;
    bool eof = true;
    ASSERT_TRUE(reader.ReadRow(&got, &eof).ok());
    ASSERT_FALSE(eof);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].string_value(), texts[i]);
    EXPECT_EQ(got[1].int64_value(), static_cast<int64_t>(i));
    EXPECT_EQ(got[2].string_value(), texts[texts.size() - 1 - i]);
  }
  Row got;
  bool eof = false;
  ASSERT_TRUE(reader.ReadRow(&got, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(SpillStorageTest, NullsAndEmbeddedNulBytesRoundTripExactly) {
  TempFileManager temp(dir_, 0);
  ASSERT_TRUE(temp.Open().ok());
  auto file = temp.Create("nulls");
  ASSERT_TRUE(file.ok());
  SpillWriter writer(file.value().get());
  // NULL join keys are legal under `<=>`; the serializer must keep NULL and
  // empty string (and strings with embedded NUL bytes) distinct.
  std::string embedded("a\0b", 3);
  std::vector<Row> rows = {
      {N(), N(), N()},
      {S(""), N(), I(0)},
      {S(embedded), Value::Bool(false), D(-0.0)},
      {},  // zero-width rows are legal spill records
  };
  for (const Row& row : rows) ASSERT_TRUE(writer.WriteRow(row).ok());
  ASSERT_TRUE(writer.Finish().ok());

  SpillReader reader(file.value().get());
  for (const Row& expected : rows) {
    Row got;
    bool eof = true;
    ASSERT_TRUE(reader.ReadRow(&got, &eof).ok());
    ASSERT_FALSE(eof);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      if (expected[i].is_null()) {
        EXPECT_TRUE(got[i].is_null());
      } else {
        EXPECT_EQ(got[i].type(), expected[i].type());
        EXPECT_TRUE(got[i].Equals(expected[i]));
      }
    }
  }
  EXPECT_EQ(Multiset(rows), Multiset(rows));  // self-check the helper
}

TEST_F(SpillStorageTest, ChecksumDetectsBitFlip) {
  TempFileManager temp(dir_, 0);
  ASSERT_TRUE(temp.Open().ok());
  auto file = temp.Create("corrupt");
  ASSERT_TRUE(file.ok());
  SpillWriter writer(file.value().get());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer.WriteRow({I(i), S("payload-" + std::to_string(i))}).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());

  // Flip one payload byte behind the reader's back (offset 100 is well past
  // the 16-byte page header, inside the first page's payload).
  {
    std::FILE* f = std::fopen(file.value()->path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 100, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 100, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }

  SpillReader reader(file.value().get());
  Row row;
  bool eof = false;
  Status st = reader.ReadRow(&row, &eof);
  ASSERT_FALSE(st.ok()) << "corrupted page read back without error";
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();
}

TEST_F(SpillStorageTest, PartitionHashIsSaltedByDepth) {
  std::set<uint64_t> depth0;
  std::set<uint64_t> depth1;
  int moved = 0;
  for (int64_t i = 0; i < 64; ++i) {
    const std::string digits = std::to_string(i);
    const Row key = {I(i), S("k" + digits)};
    const uint64_t h0 = SpillPartitionHash(key, 0);
    const uint64_t h1 = SpillPartitionHash(key, 1);
    EXPECT_EQ(h0, SpillPartitionHash(key, 0)) << "hash not deterministic";
    depth0.insert(h0 % kSpillFanout);
    depth1.insert(h1 % kSpillFanout);
    if (h0 % kSpillFanout != h1 % kSpillFanout) ++moved;
  }
  // Both depths spread keys over several buckets, and re-partitioning at the
  // next depth actually redistributes (the whole point of the salt).
  EXPECT_GT(depth0.size(), 2u);
  EXPECT_GT(depth1.size(), 2u);
  EXPECT_GT(moved, 8);
  // NULL keys hash consistently too (`<=>` keys partition deterministically).
  EXPECT_EQ(SpillPartitionHash({N()}, 0), SpillPartitionHash({N()}, 0));
}

TEST_F(SpillStorageTest, DiskBudgetEnforcedPerPage) {
  TempFileManager temp(dir_, /*disk_budget_bytes=*/2 * kSpillPageSize);
  ASSERT_TRUE(temp.Open().ok());
  auto file = temp.Create("budget");
  ASSERT_TRUE(file.ok());
  SpillWriter writer(file.value().get());
  Status st;
  for (int64_t i = 0; i < 4096 && st.ok(); ++i) {
    st = writer.WriteRow({I(i), S(std::string(64, 'p'))});
  }
  if (st.ok()) st = writer.Finish();
  ASSERT_FALSE(st.ok()) << "wrote past a 2-page disk budget";
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("disk budget"), std::string::npos)
      << st.ToString();
  // Destroying the file returns its pages to the budget.
  const int64_t used_before = temp.disk_used();
  EXPECT_GT(used_before, 0);
  file.value().reset();
  EXPECT_EQ(temp.disk_used(), 0);
  EXPECT_EQ(temp.live_files(), 0);
}

TEST_F(SpillStorageTest, ManagerCleansScratchDirectoryOnDestruction) {
  std::string scratch;
  {
    TempFileManager temp(dir_, 0);
    ASSERT_TRUE(temp.Open().ok());
    scratch = temp.scratch_dir();
    ASSERT_TRUE(fs::exists(scratch));
    auto file = temp.Create("leftover");
    ASSERT_TRUE(file.ok());
    SpillWriter writer(file.value().get());
    ASSERT_TRUE(writer.WriteRow({I(1)}).ok());
    ASSERT_TRUE(writer.Finish().ok());
    // The SpillFile is deliberately still alive when the manager dies: the
    // scratch dir must go regardless. Its destructor would touch the dead
    // manager, so the handle is parked in a static rather than destroyed,
    // where the leak checker still reaches it.
    [[maybe_unused]] static SpillFile* parked = nullptr;
    parked = file.value().release();
  }
  EXPECT_FALSE(fs::exists(scratch)) << "scratch directory leaked";
  EXPECT_EQ(CountScratchEntries(dir_), 0);
}

TEST_F(SpillStorageTest, MissingTempDirFailsAtOpen) {
  TempFileManager temp(dir_ + "/does/not/exist", 0);
  Status st = temp.Open();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Operator-level spilling end to end.

class SpillExecTest : public ::testing::Test {
 protected:
  SpillExecTest() {
    scratch_ = ProcessScratchDir("spill_exec_test");
    fs::create_directories(scratch_);
    TableSchema fact("fact",
                     {{"id", TypeId::kInt64, false},
                      {"grp", TypeId::kInt64, false},
                      {"val", TypeId::kInt64, false},
                      {"tag", TypeId::kString, false}},
                     /*primary_key=*/{0});
    EXPECT_TRUE(db_.CreateTable(fact).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 512; ++i) {
      rows.push_back(
          {I(i), I(i % 96), I(i % 13), S("tag-" + std::to_string(i % 96))});
    }
    EXPECT_TRUE(db_.Insert("fact", rows).ok());
    TableSchema dim("dim",
                    {{"g", TypeId::kInt64, false},
                     {"label", TypeId::kString, false}},
                    /*primary_key=*/{0});
    EXPECT_TRUE(db_.CreateTable(dim).ok());
    std::vector<Row> dims;
    for (int64_t g = 0; g < 96; ++g) {
      dims.push_back({I(g), S("dim-" + std::to_string(g))});
    }
    EXPECT_TRUE(db_.Insert("dim", dims).ok());
    EXPECT_TRUE(db_.AnalyzeAll().ok());
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    fs::remove_all(scratch_);
  }

  QueryOptions SpillOptions(int64_t budget) {
    QueryOptions o;
    o.fallback = false;
    o.spill = true;
    o.temp_dir = scratch_;
    o.limits.memory_budget_bytes = budget;
    return o;
  }

  // Runs `sql` unlimited, then walks a descending budget ladder below the
  // measured peak with spilling on. Some charges have no spill hook (the
  // root result buffer, sort buffers, shared subplans), so low rungs may
  // legitimately trip the budget; those must surface as a clean
  // kResourceExhausted with no temp files left behind. Every rung that
  // completes must reproduce the unlimited multiset, and at least one rung
  // must complete by actually spilling.
  void ExpectSpillMatches(const std::string& sql) {
    QueryOptions base;
    base.fallback = false;
    auto unlimited = db_.Execute(sql, base);
    ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
    ASSERT_GT(unlimited->stats.peak_memory_bytes, 0);

    bool spilled_and_completed = false;
    for (int pct : {90, 75, 60, 50, 40, 30}) {
      const int64_t budget = unlimited->stats.peak_memory_bytes * pct / 100;
      auto run = db_.Execute(sql, SpillOptions(budget));
      if (!run.ok()) {
        ASSERT_EQ(run.status().code(), StatusCode::kResourceExhausted)
            << sql << " under budget " << budget << ": "
            << run.status().ToString();
        EXPECT_EQ(CountScratchEntries(scratch_), 0)
            << "temp files leaked after a budget trip (budget " << budget
            << ")";
        continue;
      }
      EXPECT_EQ(Multiset(run->rows), Multiset(unlimited->rows))
          << sql << " under budget " << budget;
      EXPECT_EQ(CountScratchEntries(scratch_), 0)
          << "temp files leaked after a successful spill run (budget "
          << budget << ")";
      if (run->stats.spill_partitions > 0) {
        EXPECT_GT(run->stats.spill_bytes_written, 0);
        EXPECT_GT(run->stats.spill_bytes_read, 0);
        spilled_and_completed = true;
      }
    }
    EXPECT_TRUE(spilled_and_completed)
        << sql << ": no budget rung both spilled and completed";
  }

  Database db_;
  std::string scratch_;
};

// The inner operator carries the big state; the scalar COUNT on top keeps
// the root result (which is charged against the same budget) tiny, so the
// budget trip lands inside the operator under test.
TEST_F(SpillExecTest, HashAggregateSpillsAndMatches) {
  ExpectSpillMatches(
      "SELECT COUNT(*) FROM "
      "(SELECT grp, SUM(val) FROM fact GROUP BY grp) AS t(g, s)");
}

TEST_F(SpillExecTest, HashJoinSpillsAndMatches) {
  ExpectSpillMatches("SELECT COUNT(*) FROM fact f, dim d WHERE f.grp = d.g");
}

TEST_F(SpillExecTest, DistinctSpillsAndMatches) {
  ExpectSpillMatches(
      "SELECT COUNT(*) FROM (SELECT DISTINCT tag FROM fact) AS t(x)");
}

// DISTINCT aggregates spill their value sets; the partition merge replays
// them, so a value seen in two flush generations counts once. A group's val
// never repeats (grp = id % 96, val = id % 13), but its tag and grp repeat
// in every row, so every flush generation that holds the group holds them.
TEST_F(SpillExecTest, DistinctAggregatesSpillAndMatch) {
  ExpectSpillMatches(
      "SELECT grp, COUNT(DISTINCT val), SUM(DISTINCT val) FROM fact "
      "GROUP BY grp");
  ExpectSpillMatches(
      "SELECT grp, COUNT(DISTINCT tag), SUM(DISTINCT grp) FROM fact "
      "GROUP BY grp");
}

// reals(id, v): kReals rows of distinct DOUBLEs.
constexpr int64_t kReals = 4000;

void CreateReals(Database* db) {
  TableSchema reals("reals",
                    {{"id", TypeId::kInt64, false},
                     {"v", TypeId::kDouble, false}},
                    /*primary_key=*/{0});
  ASSERT_TRUE(db->CreateTable(reals).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < kReals; ++i) {
    rows.push_back({I(i), Value::Double(0.25 + 0.5 * static_cast<double>(i))});
  }
  ASSERT_TRUE(db->Insert("reals", rows).ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
}

// A quarter of what the reals' values alone take.
constexpr int64_t kRealsBudget =
    kReals * static_cast<int64_t>(sizeof(Value)) / 4;

// A DISTINCT aggregate's values are group state: they count against the
// memory budget like the groups of its twin, a DISTINCT derived table. With
// spilling off both trip the budget; with it on, the single group's set
// either spills and merges back to the exact count or trips cleanly.
TEST_F(SpillExecTest, DistinctAggregateValuesCountAgainstTheBudget) {
  CreateReals(&db_);
  const char* distinct_agg = "SELECT COUNT(DISTINCT v) FROM reals";

  QueryOptions base;
  base.fallback = false;
  auto unlimited = db_.Execute(distinct_agg, base);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  ASSERT_EQ(unlimited->rows.size(), 1u);
  EXPECT_EQ(unlimited->rows[0][0].int64_value(), kReals);
  EXPECT_GT(unlimited->stats.peak_memory_bytes, kRealsBudget);

  QueryOptions bounded = base;
  bounded.limits.memory_budget_bytes = kRealsBudget;
  for (const char* sql :
       {distinct_agg,
        "SELECT COUNT(*) FROM (SELECT DISTINCT v FROM reals) AS x(c)"}) {
    auto r = db_.Execute(sql, bounded);
    ASSERT_FALSE(r.ok()) << sql << " ran in " << kRealsBudget << " bytes";
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << sql << ": " << r.status().ToString();
  }

  auto spilled = db_.Execute(distinct_agg, SpillOptions(kRealsBudget));
  if (spilled.ok()) {
    EXPECT_EQ(Multiset(spilled->rows), Multiset(unlimited->rows));
  } else {
    EXPECT_EQ(spilled.status().code(), StatusCode::kResourceExhausted)
        << spilled.status().ToString();
  }
  EXPECT_EQ(CountScratchEntries(scratch_), 0)
      << "temp files leaked by the spilled DISTINCT aggregate";
}

TEST_F(SpillExecTest, SingleGroupPartitionFailsWithoutRewriting) {
  // A scalar aggregate's spilled records all carry the one (empty) group
  // key, so no split can separate them: the loaded partition that trips
  // the budget fails at once instead of being rewritten into
  // sub-partitions until the depth cap.
  CreateReals(&db_);
  FaultInjector::Global().EnableRecording();
  auto r = db_.Execute("SELECT COUNT(DISTINCT v) FROM reals",
                       SpillOptions(kRealsBudget));
  ASSERT_FALSE(r.ok()) << "ran in " << kRealsBudget << " bytes";
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("one group"), std::string::npos)
      << r.status().ToString();
  // TempFileManager::Open, then the first spill's partition files only.
  EXPECT_EQ(FaultInjector::Global().HitCount("storage.tmpfile.create"),
            1 + kSpillFanout);
  EXPECT_EQ(CountScratchEntries(scratch_), 0)
      << "temp files leaked by the single-group failure";

  // A partition that holds several groups still splits, and completes.
  auto grouped = db_.Execute(
      "SELECT COUNT(*) FROM (SELECT id, COUNT(*) FROM reals GROUP BY id) "
      "AS g(k, n)",
      SpillOptions(kRealsBudget));
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->rows.size(), 1u);
  EXPECT_EQ(grouped->rows[0][0].int64_value(), kReals);
  EXPECT_GT(grouped->stats.spill_partitions, kSpillFanout)
      << "no partition was repartitioned";
  EXPECT_EQ(CountScratchEntries(scratch_), 0);
}

TEST_F(SpillExecTest, GroupedAggregateWithVisibleOutputMatches) {
  ExpectSpillMatches("SELECT grp, COUNT(*), SUM(val) FROM fact GROUP BY grp");
}

TEST_F(SpillExecTest, JoinWithVisibleOutputMatches) {
  ExpectSpillMatches(
      "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.g");
}


TEST_F(SpillExecTest, RepartitionDepthCapSurfacesCleanly) {
  // Every build row shares one join key, so no amount of re-partitioning
  // helps; the recursion must stop at kSpillMaxDepth with a clean
  // kResourceExhausted — never unbounded disk use or an OOM.
  TableSchema skew("skew",
                   {{"id", TypeId::kInt64, false},
                    {"k", TypeId::kInt64, false},
                    {"pad", TypeId::kString, false}},
                   /*primary_key=*/{0});
  ASSERT_TRUE(db_.CreateTable(skew).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 256; ++i) {
    rows.push_back({I(i), I(7), S(std::string(32, 'z'))});
  }
  ASSERT_TRUE(db_.Insert("skew", rows).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());

  auto r = db_.Execute(
      "SELECT COUNT(*) FROM skew a, skew b WHERE a.k = b.k",
      SpillOptions(/*budget=*/512));
  ASSERT_FALSE(r.ok()) << "single-key build cannot fit in 512 bytes";
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("repartition depth"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(CountScratchEntries(scratch_), 0)
      << "temp files leaked after depth-cap abort";
}

// A grouped Apply's inner set has no spill path (DESIGN.md §12): the rows
// it collects are charged as they arrive, and nothing can move them to
// disk. Here the inner is a hash join whose build spills first; its output,
// 512 rows against a 2 KB budget, then trips the budget inside the grouped
// build, as fig8 Mag does on its spill ladder. The trip is a clean
// kResourceExhausted that leaves no temp files and no charge behind.
TEST_F(SpillExecTest, GroupedApplyInnerSetTripsCleanly) {
  auto fact = db_.catalog().GetTable("fact");
  auto dim = db_.catalog().GetTable("dim");
  ASSERT_TRUE(fact.ok() && dim.ok());
  std::vector<ExprPtr> left_key, right_key, probe_key;
  left_key.push_back(MakeSlotRef(1, TypeId::kInt64));   // f.grp
  right_key.push_back(MakeSlotRef(0, TypeId::kInt64));  // d.g
  auto join = std::make_unique<HashJoinOp>(
      std::make_unique<SeqScanOp>(*fact, std::vector<int>{0, 1}, nullptr),
      std::make_unique<SeqScanOp>(*dim, std::vector<int>{0, 1}, nullptr),
      std::move(left_key), std::move(right_key), nullptr, JoinType::kInner);
  const HashJoinOp* spilling = join.get();
  probe_key.push_back(MakeSlotRef(0, TypeId::kInt64));
  SubquerySemantics exists;
  exists.mode = SubqueryMode::kExists;
  auto outer = std::make_shared<const std::vector<Row>>(
      std::vector<Row>{{I(1)}, {I(2)}});
  auto plan = std::make_unique<ApplyOp>(
      std::make_unique<RowsScanOp>(outer, 1), std::move(join),
      /*inner_key_cols=*/std::vector<int>{1}, std::move(probe_key),
      std::move(exists));

  ResourceGuard guard;
  guard.memory().set_budget(2048);
  {
    TempFileManager temp(scratch_, 0);
    ASSERT_TRUE(temp.Open().ok());
    ExecStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    ctx.guard = &guard;
    ctx.temp = &temp;
    auto rows = CollectRows(plan.get(), &ctx);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted)
        << rows.status().ToString();
    EXPECT_GT(spilling->metrics().spill_partitions, 0)
        << "the join under the grouped build should have spilled first";
    plan.reset();
  }
  EXPECT_EQ(guard.memory().used(), 0);
  EXPECT_EQ(CountScratchEntries(scratch_), 0)
      << "temp files leaked after the grouped build tripped the budget";
}

TEST_F(SpillExecTest, CancellationMidSpillLeavesNoTempFiles) {
  QueryOptions o = SpillOptions(/*budget=*/2048);
  o.limits.cancel = std::make_shared<CancellationToken>();
  o.limits.cancel->CancelAfterChecks(400);  // lands mid-build, after spilling
  auto r = db_.Execute(
      "SELECT COUNT(*) FROM fact f, dim d WHERE f.grp = d.g", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(CountScratchEntries(scratch_), 0)
      << "temp files leaked after cancellation";
}

TEST_F(SpillExecTest, SpillDiskBudgetExceededSurfacesCleanly) {
  QueryOptions o = SpillOptions(/*budget=*/2048);
  o.spill_bytes = kSpillPageSize;  // one page of scratch: cannot possibly fit
  auto r = db_.Execute(
      "SELECT COUNT(*) FROM fact f, dim d WHERE f.grp = d.g", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("disk budget"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(CountScratchEntries(scratch_), 0);
}

TEST_F(SpillExecTest, UnwritableTempDirFailsBeforeExecution) {
  QueryOptions o = SpillOptions(/*budget=*/2048);
  o.temp_dir = scratch_ + "/missing/nested";
  auto r = db_.Execute(
      "SELECT COUNT(*) FROM fact f, dim d WHERE f.grp = d.g", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError)
      << r.status().ToString();
  // kIoError never triggers the NI fallback (it would just fail again or,
  // worse, silently mask a broken temp_dir configuration).
  QueryOptions with_fallback = o;
  with_fallback.fallback = true;
  with_fallback.strategy = Strategy::kMagic;
  auto r2 = db_.Execute(
      "SELECT COUNT(*) FROM fact f, dim d WHERE f.grp = d.g", with_fallback);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kIoError);
}

TEST_F(SpillExecTest, InjectedTempIoFaultsPropagateVerbatimAndLeakNothing) {
  const std::string sql =
      "SELECT COUNT(*) FROM fact f, dim d WHERE f.grp = d.g";
  for (const char* site :
       {"storage.tmpfile.create", "storage.tmpfile.write",
        "storage.tmpfile.read", "storage.tmpfile.corrupt",
        "exec.spill.join.partition"}) {
    const Status injected =
        Status::Internal(std::string("spill-chaos: ") + site);
    FaultInjector::Global().Arm(site, injected);
    auto r = db_.Execute(sql, SpillOptions(/*budget=*/2048));
    FaultInjector::Global().Reset();
    ASSERT_FALSE(r.ok()) << site << " never fired";
    EXPECT_EQ(r.status().code(), StatusCode::kInternal) << site;
    EXPECT_EQ(r.status().message(), injected.message()) << site;
    EXPECT_EQ(CountScratchEntries(scratch_), 0)
        << "temp files leaked after injected fault at " << site;
    // The database answers the next query correctly: no stale rows, no
    // partial hash state, no poisoned accounting.
    auto clean = db_.Execute(sql, SpillOptions(/*budget=*/2048));
    ASSERT_TRUE(clean.ok())
        << site << " leaked into a clean run: " << clean.status().ToString();
    EXPECT_EQ(clean->rows.size(), 1u);
  }
}

TEST_F(SpillExecTest, SpillCountersSurfaceInExplainAnalyze) {
  const std::string sql =
      "SELECT COUNT(*) FROM fact f, dim d WHERE f.grp = d.g";
  QueryOptions base;
  base.fallback = false;
  auto unlimited = db_.ExplainAnalyze(sql, base);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  EXPECT_EQ(unlimited->analyze_text.find("spill_parts="), std::string::npos)
      << "spill counters must not render for in-memory runs";

  QueryOptions o = SpillOptions(unlimited->stats.peak_memory_bytes / 2);
  o.profile = true;
  auto r = db_.ExplainAnalyze(sql, o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->analyze_text.find("spill_parts="), std::string::npos)
      << r->analyze_text;
  EXPECT_NE(r->analyze_text.find("spilled="), std::string::npos);
}

}  // namespace
}  // namespace decorr
