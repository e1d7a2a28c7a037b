// Operator-level tests: each physical operator exercised in isolation with
// hand-built plans, and the in-place storage filter checked against the row
// evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "decorr/common/key_table.h"
#include "decorr/common/resource.h"
#include "decorr/common/string_util.h"
#include "decorr/exec/aggregate.h"
#include "decorr/exec/apply.h"
#include "decorr/exec/filter_project.h"
#include "decorr/exec/join.h"
#include "decorr/exec/misc_ops.h"
#include "decorr/exec/scan.h"
#include "decorr/expr/eval.h"
#include "decorr/storage/temp_file.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

// A tiny rows source for operator inputs.
OperatorPtr Rows(std::vector<Row> rows, int width) {
  auto data = std::make_shared<const std::vector<Row>>(std::move(rows));
  return std::make_unique<RowsScanOp>(data, width);
}

std::vector<Row> Drain(Operator* op, const Row* params = nullptr,
                       ExecStats* stats_out = nullptr) {
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = stats_out != nullptr ? stats_out : &stats;
  ctx.params = params;
  auto result = CollectRows(op, &ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.MoveValue() : std::vector<Row>{};
}

TablePtr SmallTable() {
  TableSchema schema("t", {{"k", TypeId::kInt64, false},
                           {"v", TypeId::kString, true}});
  auto table = std::make_shared<Table>(schema);
  (void)table->AppendRow({I(1), S("a")});
  (void)table->AppendRow({I(2), S("b")});
  (void)table->AppendRow({I(3), N()});
  (void)table->AppendRow({I(2), S("c")});
  return table;
}

// ---- scans ----

TEST(SeqScanTest, FullScan) {
  SeqScanOp scan(SmallTable(), {0, 1}, nullptr);
  auto rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(rows[0][0].Equals(I(1)));
}

TEST(SeqScanTest, FusedFilter) {
  ExprPtr filter = MakeComparison(BinaryOp::kEq,
                                  MakeSlotRef(0, TypeId::kInt64),
                                  MakeConstant(I(2)));
  SeqScanOp scan(SmallTable(), {1}, std::move(filter));
  auto rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].string_value(), "b");
  EXPECT_EQ(rows[1][0].string_value(), "c");
}

TEST(SeqScanTest, FilterWithParam) {
  ExprPtr filter = MakeComparison(BinaryOp::kEq,
                                  MakeSlotRef(0, TypeId::kInt64),
                                  MakeParamRef(0, TypeId::kInt64));
  SeqScanOp scan(SmallTable(), {0}, std::move(filter));
  Row params = {I(3)};
  auto rows = Drain(&scan, &params);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].Equals(I(3)));
}

TEST(SeqScanTest, CountsScannedRows) {
  SeqScanOp scan(SmallTable(), {0}, nullptr);
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  auto rows = CollectRows(&scan, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(stats.rows_scanned, 4);
}

TEST(IndexLookupTest, LookupAndResidual) {
  TablePtr table = SmallTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{0});
  std::vector<ExprPtr> keys;
  keys.push_back(MakeConstant(I(2)));
  ExprPtr residual = MakeComparison(BinaryOp::kEq,
                                    MakeSlotRef(1, TypeId::kString),
                                    MakeConstant(S("c")));
  IndexLookupOp lookup(table, index, std::move(keys), {0, 1},
                       std::move(residual));
  auto rows = Drain(&lookup);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].string_value(), "c");
}

TEST(IndexLookupTest, NullKeyMatchesNothing) {
  TablePtr table = SmallTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{0});
  std::vector<ExprPtr> keys;
  keys.push_back(MakeConstant(Value::Null()));
  IndexLookupOp lookup(table, index, std::move(keys), {0}, nullptr);
  EXPECT_TRUE(Drain(&lookup).empty());
}

TEST(IndexLookupTest, ParamKeyReopens) {
  // Apply-style: the operator is re-opened with different params.
  TablePtr table = SmallTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{0});
  std::vector<ExprPtr> keys;
  keys.push_back(MakeParamRef(0, TypeId::kInt64));
  IndexLookupOp lookup(table, index, std::move(keys), {0}, nullptr);
  Row p1 = {I(2)};
  EXPECT_EQ(Drain(&lookup, &p1).size(), 2u);
  Row p2 = {I(1)};
  EXPECT_EQ(Drain(&lookup, &p2).size(), 1u);
}

// ---- filter / project ----

TEST(FilterTest, RejectsFalseAndUnknown) {
  // v = 'a' is UNKNOWN for the NULL row; only the 'a' row passes.
  ExprPtr pred = MakeComparison(BinaryOp::kEq, MakeSlotRef(1, TypeId::kString),
                                MakeConstant(S("a")));
  FilterOp filter(Rows({{I(1), S("a")}, {I(3), N()}, {I(2), S("b")}}, 2),
                  std::move(pred));
  auto rows = Drain(&filter);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].Equals(I(1)));
}

TEST(ProjectTest, ComputesExpressions) {
  std::vector<ExprPtr> exprs;
  exprs.push_back(MakeArithmetic(BinaryOp::kMul, MakeSlotRef(0, TypeId::kInt64),
                                 MakeConstant(I(10))));
  ASSERT_TRUE(InferTypes(exprs[0].get()).ok());
  ProjectOp project(Rows({{I(1)}, {I(2)}}, 1), std::move(exprs));
  auto rows = Drain(&project);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[1][0].Equals(I(20)));
}

// ---- joins ----

OperatorPtr LeftRows() {
  return Rows({{I(1), S("l1")}, {I(2), S("l2")}, {I(9), S("l9")}}, 2);
}
OperatorPtr RightRows() {
  return Rows({{I(1), S("r1")}, {I(2), S("r2a")}, {I(2), S("r2b")}}, 2);
}

std::vector<ExprPtr> KeyAt(int slot) {
  std::vector<ExprPtr> keys;
  keys.push_back(MakeSlotRef(slot, TypeId::kInt64));
  return keys;
}

TEST(HashJoinTest, InnerJoinWithDuplicates) {
  HashJoinOp join(LeftRows(), RightRows(), KeyAt(0), KeyAt(0), nullptr,
                  JoinType::kInner);
  auto rows = Drain(&join);
  EXPECT_EQ(rows.size(), 3u);  // 1x1 + 2x2
  for (const Row& row : rows) {
    EXPECT_TRUE(row[0].Equals(row[2]));
    EXPECT_EQ(row.size(), 4u);
  }
}

TEST(HashJoinTest, LeftOuterPadsUnmatched) {
  HashJoinOp join(LeftRows(), RightRows(), KeyAt(0), KeyAt(0), nullptr,
                  JoinType::kLeftOuter);
  auto rows = Drain(&join);
  EXPECT_EQ(rows.size(), 4u);
  int padded = 0;
  for (const Row& row : rows) {
    if (row[2].is_null()) {
      ++padded;
      EXPECT_TRUE(row[0].Equals(I(9)));
      EXPECT_TRUE(row[3].is_null());
    }
  }
  EXPECT_EQ(padded, 1);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  HashJoinOp join(Rows({{N()}}, 1), Rows({{N()}}, 1), KeyAt(0), KeyAt(0),
                  nullptr, JoinType::kInner);
  EXPECT_TRUE(Drain(&join).empty());
}

TEST(HashJoinTest, NullKeyLeftOuterStillPads) {
  HashJoinOp join(Rows({{N()}}, 1), Rows({{N()}}, 1), KeyAt(0), KeyAt(0),
                  nullptr, JoinType::kLeftOuter);
  auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(HashJoinTest, NullSafeKeysMatchNull) {
  // `<=>` keys (IS NOT DISTINCT FROM): both NULL probe rows find the NULL
  // build row.
  HashJoinOp join(Rows({{N(), S("ln")}, {I(1), S("l1")}, {N(), S("ln2")}}, 2),
                  Rows({{N(), S("rn")}, {I(1), S("r1")}, {I(2), S("r2")}}, 2),
                  KeyAt(0), KeyAt(0), nullptr, JoinType::kInner,
                  std::vector<bool>{true});
  auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 3u);
  int null_matches = 0;
  for (const Row& row : rows) {
    if (row[0].is_null()) {
      ++null_matches;
      EXPECT_EQ(row[3].string_value(), "rn");
    }
  }
  EXPECT_EQ(null_matches, 2);
}

TEST(HashJoinTest, ResidualFiltersMatches) {
  // Join on key but keep only right value "r2b"; LOJ must pad when the
  // residual kills all matches.
  ExprPtr residual = MakeComparison(BinaryOp::kEq,
                                    MakeSlotRef(3, TypeId::kString),
                                    MakeConstant(S("r2b")));
  HashJoinOp join(LeftRows(), RightRows(), KeyAt(0), KeyAt(0),
                  std::move(residual), JoinType::kLeftOuter);
  auto rows = Drain(&join);
  EXPECT_EQ(rows.size(), 3u);  // l1 padded, l2+r2b, l9 padded
  int padded = 0;
  for (const Row& row : rows) {
    if (row[2].is_null()) ++padded;
  }
  EXPECT_EQ(padded, 2);
}

// An INT64 key other than `key` whose hash agrees with `key`'s in the low
// 12 bits, so the two share a KeyTable bucket at any directory size up to
// 4096.
int64_t BucketMate(int64_t key) {
  const Row k = {I(key)};
  const size_t mask = 4095;
  const size_t want = KeyTable::Hash(k.data(), 1) & mask;
  for (int64_t other = key + 1;; ++other) {
    const Row o = {I(other)};
    if ((KeyTable::Hash(o.data(), 1) & mask) == want) return other;
  }
}

TEST(HashJoinTest, RepeatedBuildKeyMatchesComeBackInBuildOrder) {
  const int64_t mate = BucketMate(1);
  // Key 1 repeats five times, interleaved with a key in the same bucket.
  std::vector<Row> build;
  for (int i = 0; i < 5; ++i) {
    build.push_back({I(1), I(i)});
    build.push_back({I(mate), I(100 + i)});
  }
  HashJoinOp join(Rows({{I(mate)}, {I(1)}, {I(7)}}, 1), Rows(build, 2),
                  KeyAt(0), KeyAt(0), nullptr, JoinType::kInner);
  auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 10u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(rows[i][0].Equals(I(mate)));
    EXPECT_TRUE(rows[i][2].Equals(I(100 + i))) << RowToString(rows[i]);
    EXPECT_TRUE(rows[5 + i][0].Equals(I(1)));
    EXPECT_TRUE(rows[5 + i][2].Equals(I(i))) << RowToString(rows[5 + i]);
  }
}

TEST(HashJoinTest, OutputRowsHaveTheirFinalWidth) {
  // Matches, residual survivors and LOJ padding alike are allocated at the
  // combined width, not copied from the probe row and grown.
  HashJoinOp join(Rows({{I(1), S("l1"), S("x")}, {I(9), S("l9"), S("y")}}, 3),
                  RightRows(), KeyAt(0), KeyAt(0), nullptr,
                  JoinType::kLeftOuter);
  auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& row : rows) {
    EXPECT_EQ(row.size(), 5u);
    EXPECT_EQ(row.capacity(), 5u);
  }
  EXPECT_TRUE(rows[1][3].is_null());
  EXPECT_TRUE(rows[1][4].is_null());
}

TEST(NestedLoopJoinTest, CrossProduct) {
  NestedLoopJoinOp join(Rows({{I(1)}, {I(2)}}, 1), Rows({{S("x")}, {S("y")}},
                                                        1),
                        nullptr, JoinType::kInner);
  EXPECT_EQ(Drain(&join).size(), 4u);
}

TEST(NestedLoopJoinTest, ThetaJoin) {
  ExprPtr pred = MakeComparison(BinaryOp::kLt, MakeSlotRef(0, TypeId::kInt64),
                                MakeSlotRef(1, TypeId::kInt64));
  NestedLoopJoinOp join(Rows({{I(1)}, {I(5)}}, 1), Rows({{I(3)}}, 1),
                        std::move(pred), JoinType::kInner);
  auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].Equals(I(1)));
}

TEST(IndexJoinTest, ProbesPerLeftRow) {
  TablePtr table = SmallTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{0});
  IndexJoinOp join(Rows({{I(2)}, {I(7)}, {I(1)}}, 1), table, index, KeyAt(0),
                   {0, 1}, nullptr, nullptr);
  auto rows = Drain(&join);
  EXPECT_EQ(rows.size(), 3u);  // k=2 twice, k=7 none, k=1 once
  for (const Row& row : rows) {
    EXPECT_TRUE(row[0].Equals(row[1]));
  }
}

// ---- In-place filter over column storage ----

// NULL-heavy table: i INT64, d DOUBLE, s STRING, b BOOL — each column NULL
// on a different residue so every NULL combination occurs.
TablePtr NullHeavyTable() {
  TableSchema schema("nh", {{"i", TypeId::kInt64, true},
                            {"d", TypeId::kDouble, true},
                            {"s", TypeId::kString, true},
                            {"b", TypeId::kBool, true}});
  auto table = std::make_shared<Table>(schema);
  const char* words[] = {"apple", "banana", "ab",   "",     "xab",
                         "Apple", "abc",    "xabc", "abcx", "xabcx",
                         "ac",    "abbc",   "bc",   "b",    "abcabc",
                         "%",     "a_c",    "bb"};
  constexpr int64_t kWords = sizeof(words) / sizeof(words[0]);
  for (int64_t r = 0; r < 300; ++r) {
    (void)table->AppendRow(
        {r % 3 == 0 ? N() : I(r % 7), r % 4 == 0 ? N() : D((r % 5) * 0.5),
         r % 5 == 0 ? N() : S(words[r % kWords]),
         r % 6 == 0 ? N() : Value::Bool(r % 2 == 0)});
  }
  return table;
}

ExprPtr Items(ExprPtr lhs, std::vector<Value> items, bool negated) {
  std::vector<ExprPtr> list;
  for (Value& v : items) list.push_back(MakeConstant(std::move(v)));
  return MakeInList(std::move(lhs), std::move(list), negated);
}

// StorageFilter must agree with EvalPredicate over the materialized row on
// every row of `rows`.
void ExpectFilterMatchesScalar(const Table& table, const Expr& expr,
                               const RowSet& rows, const Row* params) {
  StorageFilter filter(table, &expr);
  std::vector<char> match;
  filter.Eval(params, rows, &match);
  ASSERT_EQ(match.size(), rows.size) << expr.ToString();
  for (size_t i = 0; i < rows.size; ++i) {
    const Row row = table.GetRow(rows[i]);
    EvalContext ectx;
    ectx.row = &row;
    ectx.params = params;
    EXPECT_EQ(match[i] != 0, EvalPredicate(expr, ectx))
        << expr.ToString() << " table row " << rows[i];
  }
}

TEST(StorageFilterTest, MatchesScalarEvalOverChunksAndMatchLists) {
  TablePtr table = NullHeavyTable();
  const ExprPtr i = MakeSlotRef(0, TypeId::kInt64, "i");
  const ExprPtr d = MakeSlotRef(1, TypeId::kDouble, "d");
  const ExprPtr s = MakeSlotRef(2, TypeId::kString, "s");
  const ExprPtr b = MakeSlotRef(3, TypeId::kBool, "b");
  Row params = {I(3), N(), S("%ab")};

  std::vector<ExprPtr> exprs;
  for (bool negated : {false, true}) {
    // Literal patterns and '%'/'_' wildcards at the ends, inside and alone:
    // the prepared equality, prefix, suffix and substring tests, and the
    // patterns that keep LikeMatch.
    for (const char* pattern :
         {"ab", "", "a%", "%ab", "%pp%", "%", "%%", "%b_", "a%e", "%a%b%",
          "abc", "abc%", "%abc", "%abc%", "a%c", "_bc%", "%%abc%%", "%_",
          "_"}) {
      exprs.push_back(MakeLike(s->Clone(), MakeConstant(S(pattern)), negated));
    }
    exprs.push_back(MakeLike(s->Clone(), MakeParamRef(2, TypeId::kString),
                             negated));
    exprs.push_back(MakeLike(s->Clone(), MakeParamRef(1, TypeId::kString),
                             negated));  // NULL pattern
    exprs.push_back(Items(i->Clone(), {I(1), I(4)}, negated));
    exprs.push_back(Items(i->Clone(), {I(1), N()}, negated));  // NULL item
    exprs.push_back(Items(i->Clone(), {I(2), D(3.0), D(4.5)}, negated));
    exprs.push_back(Items(d->Clone(), {I(1), D(1.5)}, negated));
    exprs.push_back(Items(s->Clone(), {S("ab"), S("")}, negated));
    exprs.push_back(Items(s->Clone(), {S("ab"), N()}, negated));
    exprs.push_back(Items(b->Clone(), {Value::Bool(true)}, negated));
    exprs.push_back(MakeIsNull(s->Clone(), negated));
  }
  for (bool negated : {false, true}) {
    std::vector<ExprPtr> list;
    list.push_back(MakeParamRef(0, TypeId::kInt64));
    list.push_back(MakeParamRef(1, TypeId::kInt64));  // NULL parameter
    exprs.push_back(MakeInList(i->Clone(), std::move(list), negated));
    // Prepared constants joined by a parameter item, over INT64 and DOUBLE
    // columns, with and without a NULL constant.
    for (const Expr* col : {i.get(), d.get()}) {
      for (bool with_null : {false, true}) {
        std::vector<ExprPtr> items;
        items.push_back(MakeConstant(I(1)));
        items.push_back(MakeParamRef(0, TypeId::kInt64));
        items.push_back(MakeConstant(D(1.5)));
        if (with_null) items.push_back(MakeConstant(N()));
        exprs.push_back(MakeInList(col->Clone(), std::move(items), negated));
      }
    }
    std::vector<ExprPtr> strings;
    strings.push_back(MakeConstant(S("abc")));
    strings.push_back(MakeParamRef(2, TypeId::kString));
    strings.push_back(MakeConstant(S("")));
    exprs.push_back(MakeInList(s->Clone(), std::move(strings), negated));
  }
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kGe, BinaryOp::kNullEq}) {
    exprs.push_back(
        MakeComparison(op, i->Clone(), MakeParamRef(0, TypeId::kInt64)));
    exprs.push_back(
        MakeComparison(op, MakeConstant(D(1.0)), d->Clone()));  // mirrored
    exprs.push_back(
        MakeComparison(op, i->Clone(), MakeParamRef(1, TypeId::kInt64)));
  }
  // Conjunctions narrow the candidates; disjunctions must still see the
  // rows the left side rejected.
  exprs.push_back(MakeAnd(Items(i->Clone(), {I(1), I(2), N()}, false),
                          MakeLike(s->Clone(), MakeConstant(S("%a%")), true)));
  exprs.push_back(MakeOr(Items(i->Clone(), {I(5), N()}, true),
                         MakeIsNull(d->Clone(), false)));
  exprs.push_back(MakeOr(
      MakeAnd(MakeComparison(BinaryOp::kGt, d->Clone(), MakeConstant(I(1))),
              MakeComparison(BinaryOp::kEq, b->Clone(),
                             MakeConstant(Value::Bool(false)))),
      MakeLike(s->Clone(), MakeConstant(S("x%")), false)));
  // Shapes left to the row evaluator.
  exprs.push_back(MakeNot(Items(i->Clone(), {I(1)}, false)));
  exprs.push_back(MakeComparison(BinaryOp::kLt, i->Clone(), d->Clone()));
  std::vector<ExprPtr> upper_args;
  upper_args.push_back(s->Clone());
  exprs.push_back(MakeAnd(
      MakeComparison(BinaryOp::kGt, i->Clone(), MakeConstant(I(0))),
      MakeComparison(BinaryOp::kEq,
                     MakeFunction(FuncKind::kUpper, std::move(upper_args)),
                     MakeConstant(S("APPLE")))));

  // Index match lists are not sorted by row id: visit the odd rows backwards.
  std::vector<uint32_t> ids;
  for (int r = 299; r >= 0; r -= 2) ids.push_back(static_cast<uint32_t>(r));
  const RowSet sets[] = {RowSet::Range(0, table->num_rows()),
                         RowSet::Range(17, 100), RowSet::List(ids),
                         RowSet::List(ids).Slice(5, 40)};
  for (const ExprPtr& expr : exprs) {
    ASSERT_TRUE(InferTypes(expr.get()).ok()) << expr->ToString();
    for (const RowSet& rows : sets) {
      ExpectFilterMatchesScalar(*table, *expr, rows, &params);
    }
  }
}

// ---- chunked cursor: failing rows are skipped a chunk at a time ----

// 3,100 rows k = 0..3099, all in index group g = 7, of which only k = 0 and
// 1023 (both ends of the first 1,024-row chunk), 1024 (the start of the
// second) and 3099 (the end of the partial tail chunk) pass; the third
// chunk, 2048..3071, passes nothing.
constexpr int64_t kChunkedRows = 3100;
const std::vector<int64_t> kChunkedPassing = {0, 1023, 1024, 3099};

TablePtr ChunkedTable() {
  TableSchema schema("c", {{"k", TypeId::kInt64, false},
                           {"g", TypeId::kInt64, false},
                           {"pass", TypeId::kInt64, false}});
  auto table = std::make_shared<Table>(schema);
  for (int64_t k = 0; k < kChunkedRows; ++k) {
    const bool pass = std::find(kChunkedPassing.begin(), kChunkedPassing.end(),
                                k) != kChunkedPassing.end();
    (void)table->AppendRow({I(k), I(7), I(pass ? 1 : 0)});
  }
  return table;
}

ExprPtr PassFilter() {
  return MakeComparison(BinaryOp::kEq, MakeSlotRef(2, TypeId::kInt64),
                        MakeConstant(I(1)));
}

std::vector<int64_t> ColumnValues(const std::vector<Row>& rows, int col) {
  std::vector<int64_t> out;
  for (const Row& row : rows) out.push_back(row[col].int64_value());
  return out;
}

TEST(ChunkedCursorTest, SeqScanReturnsPassingRowsAndCountsEveryRow) {
  static_assert(FilteredRowCursor::kChunkRows == 1024,
                "ChunkedTable places its passing rows at 1,024-row chunk "
                "edges");
  SeqScanOp scan(ChunkedTable(), {0}, PassFilter());
  ExecStats stats;
  EXPECT_EQ(ColumnValues(Drain(&scan, nullptr, &stats), 0), kChunkedPassing);
  EXPECT_EQ(stats.rows_scanned, kChunkedRows);
  EXPECT_EQ(scan.metrics().rows_in_self, kChunkedRows);
  EXPECT_EQ(scan.metrics().next_calls, 5);  // 4 rows + the eof call
}

TEST(ChunkedCursorTest, IndexLookupCountsEveryMatch) {
  TablePtr table = ChunkedTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{1});
  std::vector<ExprPtr> keys;
  keys.push_back(MakeConstant(I(7)));
  IndexLookupOp lookup(table, index, std::move(keys), {0}, PassFilter());
  ExecStats stats;
  EXPECT_EQ(ColumnValues(Drain(&lookup, nullptr, &stats), 0),
            kChunkedPassing);
  EXPECT_EQ(stats.index_lookups, 1);
  EXPECT_EQ(stats.rows_scanned, kChunkedRows);
  EXPECT_EQ(lookup.metrics().rows_in_self, kChunkedRows);
}

TEST(ChunkedCursorTest, IndexJoinCountsEveryMatchOfEveryProbe) {
  TablePtr table = ChunkedTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{1});
  IndexJoinOp join(Rows({{I(7)}, {I(8)}, {I(7)}}, 1), table, index, KeyAt(0),
                   {0}, PassFilter(), nullptr);
  ExecStats stats;
  std::vector<int64_t> expected = kChunkedPassing;
  expected.insert(expected.end(), kChunkedPassing.begin(),
                  kChunkedPassing.end());
  EXPECT_EQ(ColumnValues(Drain(&join, nullptr, &stats), 1), expected);
  EXPECT_EQ(stats.index_lookups, 3);
  EXPECT_EQ(stats.rows_scanned, 2 * kChunkedRows);
  EXPECT_EQ(join.metrics().rows_in_self, 2 * kChunkedRows);
}

// ---- runtime key filters ----

// 3,000 probe rows over three cursor chunks: k = r % 100, NULL when
// r % 7 == 0; g = r % 5 (the index group); s = "s<k>".
constexpr int64_t kProbeRows = 3000;

TablePtr ProbeTable() {
  TableSchema schema("p", {{"k", TypeId::kInt64, true},
                           {"g", TypeId::kInt64, false},
                           {"s", TypeId::kString, false}});
  auto table = std::make_shared<Table>(schema);
  for (int64_t r = 0; r < kProbeRows; ++r) {
    const std::string digits = std::to_string(r % 100);
    (void)table->AppendRow(
        {r % 7 == 0 ? N() : I(r % 100), I(r % 5), S("s" + digits)});
  }
  return table;
}

// Probe rows whose k is one of `keys` (NULL entries match NULL k).
int64_t CountProbeKeys(const std::vector<Value>& keys) {
  int64_t n = 0;
  for (int64_t r = 0; r < kProbeRows; ++r) {
    const Value k = r % 7 == 0 ? N() : I(r % 100);
    for (const Value& key : keys) {
      if (key.Equals(k)) {
        ++n;
        break;
      }
    }
  }
  return n;
}

std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

// A one-column build side holding `keys`.
OperatorPtr BuildKeys(const std::vector<Value>& keys) {
  std::vector<Row> rows;
  for (const Value& key : keys) rows.push_back({key});
  return Rows(std::move(rows), 1);
}

// `op` drained on its own: the rows an access path yields without a key
// filter, as a RowsScan, which takes none.
OperatorPtr Unfiltered(Operator* op, const Row* params = nullptr) {
  const int width = op->output_width();
  return Rows(Drain(op, params), width);
}

OperatorPtr KeyJoin(OperatorPtr probe, int probe_col, OperatorPtr build,
                    bool null_safe = false) {
  return std::make_unique<HashJoinOp>(
      std::move(probe), std::move(build), KeyAt(probe_col), KeyAt(0),
      nullptr, JoinType::kInner, std::vector<bool>{null_safe});
}

TEST(KeyFilterTest, SeqScanProbeSideKeepsRowsAndOrder) {
  TablePtr table = ProbeTable();
  const std::vector<Value> keys = {I(3), I(42), I(3), I(1000)};
  auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{2, 0},
                                          nullptr);
  SeqScanOp* probe = scan.get();
  OperatorPtr join = KeyJoin(std::move(scan), 1, BuildKeys(keys));
  SeqScanOp reference_scan(table, {2, 0}, nullptr);
  OperatorPtr reference =
      KeyJoin(Unfiltered(&reference_scan), 1, BuildKeys(keys));

  ExecStats stats;
  EXPECT_EQ(Render(Drain(join.get(), nullptr, &stats)),
            Render(Drain(reference.get())));
  const int64_t passing = CountProbeKeys(keys);
  EXPECT_EQ(probe->metrics().rows_out, passing);
  EXPECT_EQ(probe->metrics().rows_in_self, kProbeRows);
  EXPECT_EQ(probe->metrics().keyfilter_rejected, kProbeRows - passing);
  EXPECT_EQ(stats.rows_scanned, kProbeRows);
}

TEST(KeyFilterTest, IndexLookupProbeSideKeepsRowsAndOrder) {
  TablePtr table = ProbeTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{1});
  auto lookup = [&] {
    std::vector<ExprPtr> key;
    key.push_back(MakeConstant(I(2)));
    return std::make_unique<IndexLookupOp>(table, index, std::move(key),
                                           std::vector<int>{0, 2}, nullptr);
  };
  const std::vector<Value> keys = {I(12), I(37), I(97)};
  auto filtered = lookup();
  IndexLookupOp* probe = filtered.get();
  OperatorPtr join = KeyJoin(std::move(filtered), 0, BuildKeys(keys));
  auto reference_lookup = lookup();
  OperatorPtr reference =
      KeyJoin(Unfiltered(reference_lookup.get()), 0, BuildKeys(keys));

  ExecStats stats;
  const std::vector<std::string> rows =
      Render(Drain(join.get(), nullptr, &stats));
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(rows, Render(Drain(reference.get())));
  EXPECT_EQ(stats.index_lookups, 1);
  EXPECT_EQ(probe->metrics().rows_in_self, kProbeRows / 5);
  EXPECT_EQ(probe->metrics().rows_out, static_cast<int64_t>(rows.size()));
  EXPECT_EQ(probe->metrics().keyfilter_rejected,
            kProbeRows / 5 - static_cast<int64_t>(rows.size()));
}

TEST(KeyFilterTest, IndexJoinTakesOnlyItsTableColumns) {
  TablePtr table = ProbeTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{1});
  // Output: outer g ++ [k, s] of the matching table rows.
  auto index_join = [&] {
    return std::make_unique<IndexJoinOp>(Rows({{I(1)}, {I(4)}, {I(9)}}, 1),
                                         table, index, KeyAt(0),
                                         std::vector<int>{0, 2}, nullptr,
                                         nullptr);
  };
  const std::vector<Value> keys = {I(1), I(4), I(14), I(99)};
  auto filtered = index_join();
  IndexJoinOp* probe = filtered.get();
  OperatorPtr join = KeyJoin(std::move(filtered), 1, BuildKeys(keys));
  auto reference_join = index_join();
  OperatorPtr reference =
      KeyJoin(Unfiltered(reference_join.get()), 1, BuildKeys(keys));

  ExecStats stats;
  const std::vector<std::string> rows =
      Render(Drain(join.get(), nullptr, &stats));
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(rows, Render(Drain(reference.get())));
  EXPECT_EQ(stats.index_lookups, 3);
  EXPECT_EQ(probe->metrics().index_probes, 3);
  EXPECT_EQ(probe->metrics().rows_in_self, 2 * kProbeRows / 5);
  EXPECT_EQ(probe->metrics().rows_out, static_cast<int64_t>(rows.size()));
  EXPECT_GT(probe->metrics().keyfilter_rejected, 0);

  // A key on the outer column is not passed to the left input: filtering it
  // would skip index probes.
  auto outer = std::make_unique<SeqScanOp>(table, std::vector<int>{1},
                                           nullptr);
  SeqScanOp* outer_scan = outer.get();
  OperatorPtr on_outer = KeyJoin(
      std::make_unique<IndexJoinOp>(std::move(outer), table, index, KeyAt(0),
                                    std::vector<int>{0}, nullptr, nullptr),
      0, BuildKeys({I(4)}));
  ExecStats outer_stats;
  EXPECT_EQ(Drain(on_outer.get(), nullptr, &outer_stats).size(),
            static_cast<size_t>(kProbeRows / 5 * kProbeRows / 5));
  EXPECT_EQ(outer_scan->metrics().rows_out, kProbeRows);
  EXPECT_EQ(outer_scan->metrics().keyfilter_rejected, 0);
  EXPECT_EQ(outer_stats.index_lookups, kProbeRows);
}

TEST(KeyFilterTest, PassesThroughFilterProjectAndProbeSidesOnly) {
  TablePtr table = ProbeTable();
  const std::vector<Value> keys = {I(3), I(42)};
  const int64_t passing = CountProbeKeys(keys);
  auto scan = [&](SeqScanOp** probe) {
    auto op = std::make_unique<SeqScanOp>(table, std::vector<int>{0, 2},
                                          nullptr);
    *probe = op.get();
    return op;
  };
  // [s, k, k + 0] over a Filter over the scan [k, s].
  auto project = [&](OperatorPtr input) {
    std::vector<ExprPtr> exprs;
    exprs.push_back(MakeSlotRef(1, TypeId::kString));
    exprs.push_back(MakeSlotRef(0, TypeId::kInt64));
    exprs.push_back(MakeArithmetic(BinaryOp::kAdd,
                                   MakeSlotRef(0, TypeId::kInt64),
                                   MakeConstant(I(0))));
    return std::make_unique<ProjectOp>(
        std::make_unique<FilterOp>(
            std::move(input), MakeIsNull(MakeSlotRef(0, TypeId::kInt64),
                                         /*negated=*/true)),
        std::move(exprs));
  };
  SeqScanOp* probe = nullptr;
  OperatorPtr by_column = KeyJoin(project(scan(&probe)), 1, BuildKeys(keys));
  SeqScanOp reference_scan(table, {0, 2}, nullptr);
  OperatorPtr reference =
      KeyJoin(project(Unfiltered(&reference_scan)), 1, BuildKeys(keys));
  EXPECT_EQ(Render(Drain(by_column.get())), Render(Drain(reference.get())));
  EXPECT_EQ(probe->metrics().rows_out, passing);

  // A computed output is not the scan's column.
  OperatorPtr computed = KeyJoin(project(scan(&probe)), 2, BuildKeys(keys));
  EXPECT_EQ(static_cast<int64_t>(Drain(computed.get()).size()), passing);
  EXPECT_EQ(probe->metrics().keyfilter_rejected, 0);

  // Through a hash join's probe side both joins' filters apply; its build
  // side takes none.
  SeqScanOp* build = nullptr;
  auto inner = std::make_unique<HashJoinOp>(
      scan(&probe), scan(&build), KeyAt(0), KeyAt(0), nullptr,
      JoinType::kInner);
  OperatorPtr outer = KeyJoin(std::move(inner), 0, BuildKeys({I(3)}));
  Drain(outer.get());
  EXPECT_EQ(probe->metrics().rows_out, CountProbeKeys({I(3)}));
  EXPECT_EQ(build->metrics().rows_out, kProbeRows);
  auto inner_on_build = std::make_unique<HashJoinOp>(
      scan(&probe), scan(&build), KeyAt(0), KeyAt(0), nullptr,
      JoinType::kInner);
  OperatorPtr on_build =
      KeyJoin(std::move(inner_on_build), 2, BuildKeys({I(3)}));
  Drain(on_build.get());
  EXPECT_EQ(build->metrics().keyfilter_rejected, 0);
  EXPECT_EQ(probe->metrics().rows_out, kProbeRows - CountProbeKeys({N()}));

  // A direct-addressed filter (dense keys on g) and a chained one (sparse
  // keys on k) on one scan, nested in both orders: the scan applies direct
  // tables first, and either way keeps and rejects the same rows.
  const std::vector<Value> dense = {I(1), I(3)};
  const std::vector<Value> sparse = {I(3), I(41), I(97)};
  for (const auto& [keys, direct] :
       {std::pair{dense, true}, std::pair{sparse, false}}) {
    KeyTable table_of(1);
    for (const Value& key : keys) table_of.Append(&key, key.Hash());
    table_of.FinishBuild();
    ASSERT_EQ(table_of.direct(), direct);
  }
  // The scan's [k, g] of each output row.
  auto probe_columns = [](std::vector<Row> rows) {
    for (Row& row : rows) row.resize(2);
    return Render(rows);
  };
  auto scan_kg = [&](SeqScanOp** out) {
    auto op = std::make_unique<SeqScanOp>(table, std::vector<int>{0, 1},
                                          nullptr);
    *out = op.get();
    return op;
  };
  SeqScanOp* direct_inner = nullptr;
  OperatorPtr dense_then_sparse =
      KeyJoin(KeyJoin(scan_kg(&direct_inner), 1, BuildKeys(dense)), 0,
              BuildKeys(sparse));
  SeqScanOp* chained_inner = nullptr;
  OperatorPtr sparse_then_dense =
      KeyJoin(KeyJoin(scan_kg(&chained_inner), 0, BuildKeys(sparse)), 1,
              BuildKeys(dense));
  SeqScanOp both_reference(table, {0, 1}, nullptr);
  OperatorPtr both = KeyJoin(
      KeyJoin(Unfiltered(&both_reference), 1, BuildKeys(dense)), 0,
      BuildKeys(sparse));
  const std::vector<std::string> expected = probe_columns(Drain(both.get()));
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(probe_columns(Drain(dense_then_sparse.get())), expected);
  EXPECT_EQ(probe_columns(Drain(sparse_then_dense.get())), expected);
  const int64_t rejected = kProbeRows - static_cast<int64_t>(expected.size());
  EXPECT_EQ(direct_inner->metrics().keyfilter_rejected, rejected);
  EXPECT_EQ(chained_inner->metrics().keyfilter_rejected, rejected);
}

TEST(KeyFilterTest, NullProbeKeysFollowTheJoinKeySemantics) {
  TablePtr table = ProbeTable();
  const int64_t nulls = CountProbeKeys({N()});
  struct Case {
    bool null_safe;
    std::vector<Value> keys;
    int64_t passing;
  };
  const Case cases[] = {
      // A plain key never matches NULL, even if the build had one.
      {false, {I(5), N()}, CountProbeKeys({I(5)})},
      // A null-safe key keeps NULL probe keys exactly when the build holds
      // a NULL key.
      {true, {I(5), N()}, CountProbeKeys({I(5)}) + nulls},
      {true, {I(5)}, CountProbeKeys({I(5)})},
  };
  for (const Case& c : cases) {
    auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{0, 1},
                                            nullptr);
    SeqScanOp* probe = scan.get();
    OperatorPtr join =
        KeyJoin(std::move(scan), 0, BuildKeys(c.keys), c.null_safe);
    SeqScanOp reference_scan(table, {0, 1}, nullptr);
    OperatorPtr reference = KeyJoin(Unfiltered(&reference_scan), 0,
                                    BuildKeys(c.keys), c.null_safe);
    EXPECT_EQ(Render(Drain(join.get())), Render(Drain(reference.get())));
    EXPECT_EQ(probe->metrics().rows_out, c.passing)
        << "null_safe=" << c.null_safe << " keys=" << c.keys.size();
    EXPECT_EQ(probe->metrics().keyfilter_rejected, kProbeRows - c.passing);
  }
}

TEST(KeyFilterTest, Int64ProbeKeyMatchesDoubleBuildKey) {
  TablePtr table = ProbeTable();
  auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{0},
                                          nullptr);
  SeqScanOp* probe = scan.get();
  OperatorPtr join = KeyJoin(std::move(scan), 0, BuildKeys({D(7.0), D(7.5)}));
  const std::vector<Row> rows = Drain(join.get());
  ASSERT_EQ(static_cast<int64_t>(rows.size()), CountProbeKeys({I(7)}));
  EXPECT_TRUE(rows[0][0].Equals(I(7)));
  EXPECT_EQ(probe->metrics().rows_out, CountProbeKeys({I(7)}));
}

TEST(KeyFilterTest, EmptyBuildRejectsEveryRow) {
  TablePtr table = ProbeTable();
  auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{0},
                                          nullptr);
  SeqScanOp* probe = scan.get();
  OperatorPtr join = KeyJoin(std::move(scan), 0, BuildKeys({}));
  EXPECT_TRUE(Drain(join.get()).empty());
  EXPECT_EQ(probe->metrics().rows_out, 0);
  EXPECT_EQ(probe->metrics().rows_in_self, kProbeRows);
  EXPECT_EQ(probe->metrics().keyfilter_rejected, kProbeRows);
}

TEST(KeyFilterTest, OuterMultiKeyAndComputedKeyJoinsOfferNone) {
  TablePtr table = ProbeTable();
  std::vector<std::function<OperatorPtr(OperatorPtr)>> joins;
  joins.push_back([](OperatorPtr probe) {
    return std::make_unique<HashJoinOp>(std::move(probe), BuildKeys({I(5)}),
                                        KeyAt(0), KeyAt(0), nullptr,
                                        JoinType::kLeftOuter);
  });
  joins.push_back([](OperatorPtr probe) {
    std::vector<ExprPtr> left = KeyAt(0);
    left.push_back(MakeSlotRef(1, TypeId::kInt64));
    std::vector<ExprPtr> right = KeyAt(0);
    right.push_back(MakeSlotRef(1, TypeId::kInt64));
    return std::make_unique<HashJoinOp>(std::move(probe),
                                        Rows({{I(5), I(0)}}, 2),
                                        std::move(left), std::move(right),
                                        nullptr, JoinType::kInner);
  });
  joins.push_back([](OperatorPtr probe) {
    std::vector<ExprPtr> left;
    left.push_back(MakeArithmetic(BinaryOp::kAdd,
                                  MakeSlotRef(0, TypeId::kInt64),
                                  MakeConstant(I(0))));
    return std::make_unique<HashJoinOp>(std::move(probe), BuildKeys({I(5)}),
                                        std::move(left), KeyAt(0), nullptr,
                                        JoinType::kInner);
  });
  for (size_t j = 0; j < joins.size(); ++j) {
    auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{0, 1},
                                            nullptr);
    SeqScanOp* probe = scan.get();
    OperatorPtr join = joins[j](std::move(scan));
    EXPECT_FALSE(Drain(join.get()).empty()) << "join " << j;
    EXPECT_EQ(probe->metrics().rows_out, kProbeRows) << "join " << j;
    EXPECT_EQ(probe->metrics().keyfilter_rejected, 0) << "join " << j;
  }
}

TEST(KeyFilterTest, LiveOnlyFromBuildToClose) {
  TablePtr table = ProbeTable();
  auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{0},
                                          nullptr);
  SeqScanOp* probe = scan.get();
  OperatorPtr join = KeyJoin(std::move(scan), 0, BuildKeys({I(5)}));
  EXPECT_EQ(static_cast<int64_t>(Drain(join.get()).size()),
            CountProbeKeys({I(5)}));
  // Closed, the join's filter no longer applies to its probe side.
  EXPECT_EQ(static_cast<int64_t>(Drain(probe).size()), kProbeRows);
}

TEST(KeyFilterTest, ReopenedJoinFiltersByItsNewBuild) {
  TablePtr table = ProbeTable();
  // Per outer row x, the inner join's build holds x and x + 50.
  auto inner = [](OperatorPtr probe) {
    std::vector<Row> keys;
    for (int64_t k = 0; k < 100; ++k) keys.push_back({I(k)});
    ExprPtr pick = MakeOr(
        MakeComparison(BinaryOp::kEq, MakeSlotRef(0, TypeId::kInt64),
                       MakeParamRef(0, TypeId::kInt64)),
        MakeComparison(BinaryOp::kEq, MakeSlotRef(0, TypeId::kInt64),
                       MakeArithmetic(BinaryOp::kAdd,
                                      MakeParamRef(0, TypeId::kInt64),
                                      MakeConstant(I(50)))));
    return KeyJoin(std::move(probe), 0,
                   std::make_unique<FilterOp>(Rows(std::move(keys), 1),
                                              std::move(pick)));
  };
  const std::vector<Row> outer = {{I(3)}, {I(40)}, {I(3)}, {I(11)}};
  auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{0, 2},
                                          nullptr);
  SeqScanOp* probe = scan.get();
  ApplyOp lateral(Rows(outer, 1), inner(std::move(scan)), {{false, 0}}, 3);
  SeqScanOp reference_scan(table, {0, 2}, nullptr);
  ApplyOp reference(Rows(outer, 1), inner(Unfiltered(&reference_scan)),
                    {{false, 0}}, 3);
  ExecStats stats;
  EXPECT_EQ(Render(Drain(&lateral, nullptr, &stats)),
            Render(Drain(&reference)));
  int64_t passing = 0;
  for (const Row& row : outer) {
    const int64_t x = row[0].int64_value();
    passing += CountProbeKeys({I(x), I(x + 50)});
  }
  EXPECT_EQ(stats.subquery_invocations, 4);
  EXPECT_EQ(probe->metrics().rows_in_self, 4 * kProbeRows);
  EXPECT_EQ(probe->metrics().rows_out, passing);
  EXPECT_EQ(probe->metrics().keyfilter_rejected, 4 * kProbeRows - passing);
}

TEST(KeyFilterTest, SpillingJoinOffersNone) {
  TablePtr table = ProbeTable();
  // 2,000 build keys, of which only 3 and 42 occur on the probe side.
  std::vector<Value> keys = {I(3), I(42)};
  for (int64_t k = 1000; k < 3000; ++k) keys.push_back(I(k));
  auto run = [&](bool spill, SeqScanOp** probe, HashJoinOp** join_out) {
    auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{0, 2},
                                            nullptr);
    *probe = scan.get();
    auto join = std::make_unique<HashJoinOp>(
        std::move(scan), BuildKeys(keys), KeyAt(0), KeyAt(0), nullptr,
        JoinType::kInner);
    *join_out = join.get();
    TempFileManager temp(::testing::TempDir(), 0);
    EXPECT_TRUE(temp.Open().ok());
    ResourceGuard guard;
    if (spill) guard.memory().set_budget(60000);
    ExecStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    ctx.guard = &guard;
    ctx.temp = &temp;
    auto rows = CollectRows(join.get(), &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::string> out = rows.ok() ? Render(*rows)
                                             : std::vector<std::string>{};
    std::sort(out.begin(), out.end());
    return std::make_pair(std::move(join), std::move(out));
  };
  SeqScanOp* in_memory_probe = nullptr;
  SeqScanOp* spilled_probe = nullptr;
  HashJoinOp* in_memory = nullptr;
  HashJoinOp* spilled = nullptr;
  auto a = run(false, &in_memory_probe, &in_memory);
  auto b = run(true, &spilled_probe, &spilled);
  EXPECT_EQ(in_memory->metrics().spill_partitions, 0);
  EXPECT_GT(spilled->metrics().spill_partitions, 0);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(in_memory_probe->metrics().rows_out,
            CountProbeKeys({I(3), I(42)}));
  EXPECT_EQ(spilled_probe->metrics().rows_out, kProbeRows);
  EXPECT_EQ(spilled_probe->metrics().keyfilter_rejected, 0);
}

// Operators that would change what is counted, shared or cut short if a
// filter reached below them refuse the offer. Each case is run under a
// one-key join, which offers a filter on its k column, and under its
// two-key twin (the same key twice), which offers none: the answers and the
// query's counters must agree, and no access path may reject a row.
TEST(KeyFilterTest, NoFilterPassesOperatorsThatCountShareOrCut) {
  TablePtr table = ProbeTable();
  auto index = std::make_shared<HashIndex>(*table, std::vector<int>{1});
  using Paths = std::vector<const Operator*>;  // the access paths below
  auto scan = [&](Paths* paths) {  // [k, g]
    auto op = std::make_unique<SeqScanOp>(table, std::vector<int>{0, 1},
                                          nullptr);
    paths->push_back(op.get());
    return op;
  };
  auto g_lookup = [&](Paths* paths) {  // [k] of the rows in group :p0
    std::vector<ExprPtr> key;
    key.push_back(MakeParamRef(0, TypeId::kInt64));
    auto op = std::make_unique<IndexLookupOp>(table, index, std::move(key),
                                              std::vector<int>{0}, nullptr);
    paths->push_back(op.get());
    return op;
  };
  struct Case {
    const char* name;
    int k_column;  // the output column the join keys on
    std::function<OperatorPtr(Paths*)> make;
  };
  std::vector<Case> cases;
  cases.push_back({"IndexJoin left", 0, [&](Paths* paths) {
    return std::make_unique<IndexJoinOp>(scan(paths), table, index,
                                         KeyAt(1), std::vector<int>{2},
                                         nullptr, nullptr);
  }});
  cases.push_back({"Apply", 0, [&](Paths* paths) {
    SubquerySemantics exists;
    exists.mode = SubqueryMode::kExists;
    return std::make_unique<ApplyOp>(scan(paths), g_lookup(paths),
                                     std::vector<ParamSource>{{false, 1}},
                                     std::move(exists));
  }});
  cases.push_back({"GroupProbeApply", 0, [&](Paths* paths) {
    SubquerySemantics exists;
    exists.mode = SubqueryMode::kExists;
    std::vector<ExprPtr> probe;
    probe.push_back(MakeSlotRef(0, TypeId::kInt64));
    return std::make_unique<ApplyOp>(scan(paths), BuildKeys({I(5), I(6)}),
                                     std::vector<int>{0}, std::move(probe),
                                     std::move(exists));
  }});
  cases.push_back({"LateralJoin inner", 1, [&](Paths* paths) {
    return std::make_unique<ApplyOp>(Rows({{I(1)}, {I(3)}}, 1),
                                     g_lookup(paths),
                                     std::vector<ParamSource>{{false, 0}}, 1);
  }});
  cases.push_back({"LateralJoin input", 0, [&](Paths* paths) {
    return std::make_unique<ApplyOp>(scan(paths), BuildKeys({I(9)}),
                                     std::vector<ParamSource>{}, 1);
  }});
  cases.push_back({"CachedMaterialize", 0, [&](Paths* paths) {
    auto shared = std::make_shared<SharedSubplan>();
    shared->plan = scan(paths);
    shared->width = 2;
    return std::make_unique<CachedMaterializeOp>(shared);
  }});
  cases.push_back({"HashAggregate", 0, [&](Paths* paths) {
    std::vector<AggSpec> aggs(1);
    return std::make_unique<HashAggregateOp>(scan(paths), KeyAt(0),
                                             std::move(aggs));
  }});
  cases.push_back({"Distinct", 0, [&](Paths* paths) {
    return MakeDistinct(scan(paths));
  }});
  cases.push_back({"Sort", 0, [&](Paths* paths) {
    return std::make_unique<SortOp>(
        scan(paths), std::vector<std::pair<int, bool>>{{1, true}});
  }});
  cases.push_back({"Limit", 0, [&](Paths* paths) {
    return std::make_unique<LimitOp>(scan(paths), 2000);
  }});
  cases.push_back({"UnionAll", 0, [&](Paths* paths) {
    std::vector<OperatorPtr> children;
    children.push_back(scan(paths));
    children.push_back(scan(paths));
    return std::make_unique<UnionAllOp>(std::move(children));
  }});

  struct Run {
    std::vector<std::string> rows;
    ExecStats stats;
  };
  auto run = [](Operator* plan) {
    Run out;
    ResourceGuard guard;
    ExecContext ctx;
    ctx.stats = &out.stats;
    ctx.guard = &guard;
    auto rows = CollectRows(plan, &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) out.rows = Render(*rows);
    out.stats.rows_materialized = guard.rows_materialized();
    return out;
  };
  const std::vector<Value> keys = {I(0), I(3), I(5), I(42)};
  for (const Case& c : cases) {
    const char* name = c.name;
    Paths paths;
    OperatorPtr input = c.make(&paths);
    KeyFilter filter;
    EXPECT_FALSE(input->OfferKeyFilter(c.k_column, &filter)) << name;
    OperatorPtr offering = KeyJoin(std::move(input), c.k_column,
                                   BuildKeys(keys));
    const Run offered = run(offering.get());

    Paths twin_paths;
    std::vector<ExprPtr> left = KeyAt(c.k_column);
    left.push_back(MakeSlotRef(c.k_column, TypeId::kInt64));
    std::vector<ExprPtr> right = KeyAt(0);
    right.push_back(MakeSlotRef(0, TypeId::kInt64));
    auto twin_join = std::make_unique<HashJoinOp>(
        c.make(&twin_paths), BuildKeys(keys), std::move(left),
        std::move(right), nullptr, JoinType::kInner);
    const Run twin = run(twin_join.get());

    EXPECT_FALSE(offered.rows.empty()) << name;
    EXPECT_EQ(offered.rows, twin.rows) << name;
    EXPECT_EQ(offered.stats.rows_scanned, twin.stats.rows_scanned) << name;
    EXPECT_EQ(offered.stats.index_lookups, twin.stats.index_lookups) << name;
    EXPECT_EQ(offered.stats.subquery_invocations,
              twin.stats.subquery_invocations)
        << name;
    EXPECT_EQ(offered.stats.rows_materialized, twin.stats.rows_materialized)
        << name;
    EXPECT_FALSE(paths.empty()) << name;
    for (const Operator* path : paths) {
      EXPECT_EQ(path->metrics().keyfilter_rejected, 0) << name;
    }
  }
}

// ---- direct-addressed builds and late NULLs ----

// A probe table whose first NULLs arrive after 2,000 non-NULL rows: k
// (INT64) = r % 10 and d (DOUBLE) = k, or k + 0.5 when r % 4 == 1, both
// NULL when r >= 2000 and r % 3 == 0; s (STRING) = "s<k>", NULL likewise.
// A NULL cell's stored payload is 0, 0.0 or "", so a scan that skipped a
// column's null map would take NULL rows for those values.
constexpr int64_t kLateRows = 3000;

bool LateNull(int64_t r) { return r >= 2000 && r % 3 == 0; }
Value LateK(int64_t r) { return LateNull(r) ? N() : I(r % 10); }
Value LateD(int64_t r) {
  return LateNull(r) ? N() : D(r % 10 + (r % 4 == 1 ? 0.5 : 0.0));
}

TablePtr LateNullTable() {
  TableSchema schema("late", {{"k", TypeId::kInt64, true},
                              {"d", TypeId::kDouble, true},
                              {"s", TypeId::kString, true}});
  auto table = std::make_shared<Table>(schema);
  for (int64_t r = 0; r < kLateRows; ++r) {
    const std::string digit = std::to_string(r % 10);
    const Value s = LateNull(r) ? N() : S("s" + digit);
    (void)table->AppendRow({LateK(r), LateD(r), s});
  }
  return table;
}

// Rows r for which pred(r) holds, counted from the generator, not the table.
int64_t CountLate(const std::function<bool(int64_t)>& pred) {
  int64_t n = 0;
  for (int64_t r = 0; r < kLateRows; ++r) n += pred(r) ? 1 : 0;
  return n;
}

// Probe cells equal (Value::Equals) to one of `keys`; a NULL cell counts
// only if `null_passes`.
int64_t CountLateKeys(const std::function<Value(int64_t)>& cell,
                      const std::vector<Value>& keys, bool null_passes) {
  return CountLate([&](int64_t r) {
    const Value v = cell(r);
    if (v.is_null()) return null_passes;
    for (const Value& key : keys) {
      if (!key.is_null() && key.Equals(v)) return true;
    }
    return false;
  });
}

// The build keys of `keys` as a finished KeyTable: true when the join's
// build table is direct.
bool DirectBuild(const std::vector<Value>& keys) {
  KeyTable table(1);
  bool inserted = false;
  for (const Value& key : keys) table.Insert({key}, &inserted);
  table.FinishBuild();
  return table.direct();
}

TEST(StorageFilterTest, FirstNullAfterNonNullRowsIsNullInPlace) {
  TablePtr table = LateNullTable();
  ASSERT_TRUE(table->column(0).has_nulls());
  const ExprPtr k = MakeSlotRef(0, TypeId::kInt64, "k");
  const ExprPtr d = MakeSlotRef(1, TypeId::kDouble, "d");
  const ExprPtr s = MakeSlotRef(2, TypeId::kString, "s");
  struct Case {
    ExprPtr filter;
    int64_t rows;
  };
  const int64_t nulls = CountLate(LateNull);
  std::vector<Case> cases;
  cases.push_back({MakeIsNull(k->Clone(), false), nulls});
  cases.push_back({MakeIsNull(d->Clone(), true), kLateRows - nulls});
  cases.push_back({MakeComparison(BinaryOp::kNullEq, k->Clone(),
                                  MakeConstant(N())),
                   nulls});
  cases.push_back({MakeComparison(BinaryOp::kEq, k->Clone(),
                                  MakeConstant(I(0))),
                   CountLate([](int64_t r) {
                     return !LateNull(r) && r % 10 == 0;
                   })});
  cases.push_back({MakeComparison(BinaryOp::kLt, d->Clone(),
                                  MakeConstant(D(1.0))),
                   CountLate([](int64_t r) {
                     return !LateNull(r) && r % 10 == 0 && r % 4 != 1;
                   })});
  cases.push_back({Items(s->Clone(), {S(""), S("s1")}, false),
                   CountLate([](int64_t r) {
                     return !LateNull(r) && r % 10 == 1;
                   })});
  cases.push_back({MakeLike(s->Clone(), MakeConstant(S("%")), false),
                   kLateRows - nulls});
  for (const Case& c : cases) {
    ASSERT_TRUE(InferTypes(c.filter.get()).ok());
    const std::string text = c.filter->ToString();
    SeqScanOp scan(table, {0}, c.filter->Clone());
    EXPECT_EQ(static_cast<int64_t>(Drain(&scan).size()), c.rows) << text;
    // Over a match list (row ids in descending order) too.
    std::vector<uint32_t> ids;
    for (int64_t r = kLateRows - 1; r >= 0; --r) {
      ids.push_back(static_cast<uint32_t>(r));
    }
    std::vector<char> match;
    StorageFilter(*table, c.filter.get()).Eval(nullptr, RowSet::List(ids),
                                               &match);
    EXPECT_EQ(std::count(match.begin(), match.end(), 1), c.rows) << text;
  }
}

// Key filters over INT64 build keys (a direct table) keep exactly the rows
// a chained table kept, and count the same rejections: on a DOUBLE column
// (integral cells pass, k + 0.5 cells do not), on a column whose NULLs
// arrive late, and under a null-safe key whose build holds NULL.
TEST(KeyFilterTest, DirectBuildKeepsTheChainedRowsAndRejections) {
  TablePtr table = LateNullTable();
  struct Case {
    int column;  // probe column: 0 = k, 1 = d
    std::vector<Value> keys;
    bool null_safe;
  };
  const Case cases[] = {
      {1, {I(0), I(1), I(2), I(3)}, false},
      {1, {I(0), I(1), I(2), I(3), N()}, true},
      {1, {I(9), N()}, false},
      {0, {I(0), I(1)}, false},
      {0, {I(0), I(4), N()}, true},
      {0, {I(0), I(4)}, true},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(DirectBuild(c.keys));
    const std::function<Value(int64_t)> cell =
        c.column == 0 ? std::function<Value(int64_t)>(LateK) : LateD;
    bool build_null = false;
    for (const Value& key : c.keys) build_null |= key.is_null();
    const int64_t passing =
        CountLateKeys(cell, c.keys, c.null_safe && build_null);

    auto scan = std::make_unique<SeqScanOp>(table, std::vector<int>{0, 1},
                                            nullptr);
    SeqScanOp* probe = scan.get();
    OperatorPtr join =
        KeyJoin(std::move(scan), c.column, BuildKeys(c.keys), c.null_safe);
    SeqScanOp reference_scan(table, {0, 1}, nullptr);
    OperatorPtr reference = KeyJoin(Unfiltered(&reference_scan), c.column,
                                    BuildKeys(c.keys), c.null_safe);
    const std::vector<std::string> rows = Render(Drain(join.get()));
    EXPECT_EQ(rows, Render(Drain(reference.get())));
    EXPECT_EQ(static_cast<int64_t>(rows.size()), passing);
    EXPECT_EQ(probe->metrics().rows_out, passing)
        << "column " << c.column << " null_safe " << c.null_safe;
    EXPECT_EQ(probe->metrics().keyfilter_rejected, kLateRows - passing)
        << "column " << c.column << " null_safe " << c.null_safe;
  }
}

// A hash join re-opened with another build, as under Apply, probes that
// build only. A dense in-memory build is addressed directly; a build that
// spills is probed partition by partition through the chains. Each order
// of the two must give each build's own matches.
TEST(HashJoinTest, ReopenedJoinNeverProbesThePreviousBuildsMap) {
  // Build rows [k, 10 k] for k in 0..99 and 1000..2999; an open keeps
  // those with param 0 <= k < param 1. Probe keys are 0..2999.
  std::vector<Row> build;
  std::vector<Row> probe;
  for (int64_t k = 0; k < 3000; ++k) {
    if (k < 100 || k >= 1000) build.push_back({I(k), I(10 * k)});
    probe.push_back({I(k)});
  }
  ExprPtr pick = MakeAnd(
      MakeComparison(BinaryOp::kGe, MakeSlotRef(0, TypeId::kInt64),
                     MakeParamRef(0, TypeId::kInt64)),
      MakeComparison(BinaryOp::kLt, MakeSlotRef(0, TypeId::kInt64),
                     MakeParamRef(1, TypeId::kInt64)));
  HashJoinOp join(Rows(probe, 1),
                  std::make_unique<FilterOp>(Rows(build, 2), std::move(pick)),
                  KeyAt(0), KeyAt(0), nullptr, JoinType::kInner);
  auto run = [&](int64_t lo, int64_t hi, bool spill) {
    TempFileManager temp(::testing::TempDir(), 0);
    EXPECT_TRUE(temp.Open().ok());
    ResourceGuard guard;
    // The large build needs about 250 KB, each of its partitions 32 KB.
    if (spill) guard.memory().set_budget(150000);
    ExecStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    ctx.guard = &guard;
    ctx.temp = &temp;
    const Row params = {I(lo), I(hi)};
    ctx.params = &params;
    const int64_t partitions = join.metrics().spill_partitions;
    // Drained by hand: CollectRows would charge the output to the budget.
    std::vector<std::string> out;
    Status st = join.Open(&ctx);
    for (bool eof = false; st.ok();) {
      Row row;
      st = join.Next(&row, &eof);
      if (!st.ok() || eof) break;
      out.push_back(RowToString(row));
    }
    join.Close();
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(join.metrics().spill_partitions > partitions, spill)
        << "keys " << lo << ".." << hi;
    std::sort(out.begin(), out.end());
    return out;
  };
  auto expected = [](int64_t lo, int64_t hi) {
    std::vector<std::string> out;
    for (int64_t k = lo; k < hi; ++k) {
      out.push_back(RowToString({I(k), I(k), I(10 * k)}));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<Value> small_keys;
  for (int64_t k = 0; k < 100; ++k) small_keys.push_back(I(k));
  ASSERT_TRUE(DirectBuild(small_keys));
  const std::vector<std::string> small = expected(0, 100);
  const std::vector<std::string> large = expected(1000, 3000);
  EXPECT_EQ(run(0, 100, false), small);  // in memory, direct
  EXPECT_EQ(run(1000, 3000, true), large);  // spilled, after a direct build
  EXPECT_EQ(run(0, 100, false), small);  // direct, after a spilled build
  EXPECT_EQ(run(1000, 3000, true), large);
}

// ---- aggregation ----

TEST(AggregateTest, GroupedCounts) {
  std::vector<ExprPtr> keys;
  keys.push_back(MakeSlotRef(0, TypeId::kInt64));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, false, TypeId::kInt64});
  HashAggregateOp agg(Rows({{I(1)}, {I(2)}, {I(1)}, {I(1)}}, 1),
                      std::move(keys), std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0][1].Equals(I(3)));  // group 1 first (insertion order)
  EXPECT_TRUE(rows[1][1].Equals(I(1)));
}

TEST(AggregateTest, GroupsComeOutInFirstOccurrenceOrder) {
  std::vector<ExprPtr> keys;
  keys.push_back(MakeSlotRef(0, TypeId::kInt64));
  keys.push_back(MakeSlotRef(1, TypeId::kString));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, false, TypeId::kInt64});
  HashAggregateOp agg(
      Rows({{I(3), S("c")}, {I(1), S("a")}, {I(3), S("c")}, {N(), S("n")},
            {I(2), S("b")}, {I(1), S("a")}, {I(3), S("d")}, {N(), S("n")}},
           2),
      std::move(keys), std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 5u);
  const std::vector<Row> want = {{I(3), S("c"), I(2)},
                                 {I(1), S("a"), I(2)},
                                 {N(), S("n"), I(2)},
                                 {I(2), S("b"), I(1)},
                                 {I(3), S("d"), I(1)}};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(RowEq()(rows[i], want[i])) << RowToString(rows[i]);
  }
}

TEST(AggregateTest, ScalarAggOnEmptyInputProducesOneRow) {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, false, TypeId::kInt64});
  AggSpec sum;
  sum.kind = AggKind::kSum;
  sum.arg = MakeSlotRef(0, TypeId::kInt64);
  sum.result_type = TypeId::kInt64;
  aggs.push_back(std::move(sum));
  HashAggregateOp agg(Rows({}, 1), {}, std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].Equals(I(0)));  // COUNT(*) = 0
  EXPECT_TRUE(rows[0][1].is_null());     // SUM = NULL
}

TEST(AggregateTest, GroupedAggOnEmptyInputProducesNoRows) {
  std::vector<ExprPtr> keys;
  keys.push_back(MakeSlotRef(0, TypeId::kInt64));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, false, TypeId::kInt64});
  HashAggregateOp agg(Rows({}, 1), std::move(keys), std::move(aggs));
  EXPECT_TRUE(Drain(&agg).empty());  // the COUNT bug's root cause
}

TEST(AggregateTest, NullsIgnoredByAggregates) {
  std::vector<AggSpec> aggs;
  AggSpec count;
  count.kind = AggKind::kCount;
  count.arg = MakeSlotRef(0, TypeId::kInt64);
  aggs.push_back(std::move(count));
  AggSpec avg;
  avg.kind = AggKind::kAvg;
  avg.arg = MakeSlotRef(0, TypeId::kInt64);
  avg.result_type = TypeId::kDouble;
  aggs.push_back(std::move(avg));
  HashAggregateOp agg(Rows({{I(4)}, {N()}, {I(8)}}, 1), {}, std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].Equals(I(2)));
  EXPECT_TRUE(rows[0][1].Equals(D(6.0)));
}

TEST(AggregateTest, MinMaxSum) {
  std::vector<AggSpec> aggs;
  for (AggKind kind : {AggKind::kMin, AggKind::kMax, AggKind::kSum}) {
    AggSpec spec;
    spec.kind = kind;
    spec.arg = MakeSlotRef(0, TypeId::kInt64);
    spec.result_type = TypeId::kInt64;
    aggs.push_back(std::move(spec));
  }
  HashAggregateOp agg(Rows({{I(7)}, {I(3)}, {I(5)}}, 1), {}, std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].Equals(I(3)));
  EXPECT_TRUE(rows[0][1].Equals(I(7)));
  EXPECT_TRUE(rows[0][2].Equals(I(15)));
}

TEST(AggregateTest, DistinctAggregate) {
  std::vector<AggSpec> aggs;
  AggSpec count;
  count.kind = AggKind::kCount;
  count.arg = MakeSlotRef(0, TypeId::kInt64);
  count.distinct = true;
  aggs.push_back(std::move(count));
  AggSpec sum;
  sum.kind = AggKind::kSum;
  sum.arg = MakeSlotRef(0, TypeId::kInt64);
  sum.distinct = true;
  sum.result_type = TypeId::kInt64;
  aggs.push_back(std::move(sum));
  HashAggregateOp agg(Rows({{I(2)}, {I(2)}, {I(3)}}, 1), {}, std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].Equals(I(2)));
  EXPECT_TRUE(rows[0][1].Equals(I(5)));
}

TEST(AggregateTest, NullGroupKeysFormOneGroup) {
  std::vector<ExprPtr> keys;
  keys.push_back(MakeSlotRef(0, TypeId::kInt64));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, false, TypeId::kInt64});
  HashAggregateOp agg(Rows({{N()}, {N()}, {I(1)}}, 1), std::move(keys),
                      std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0][1].Equals(I(2)));  // the NULL group
}

// DISTINCT values are compared as Values: DOUBLEs that agree in their
// first six significant digits (all %g renders) are still distinct.
TEST(AggregateTest, DistinctAggregatesCompareValuesNotTheirRendering) {
  std::vector<AggSpec> aggs;
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
    AggSpec spec;
    spec.kind = kind;
    spec.arg = MakeSlotRef(0, TypeId::kDouble);
    spec.distinct = true;
    spec.result_type =
        kind == AggKind::kCount ? TypeId::kInt64 : TypeId::kDouble;
    aggs.push_back(std::move(spec));
  }
  HashAggregateOp agg(Rows({{D(12345.67)},
                            {D(12345.68)},
                            {N()},
                            {D(12345.69)},
                            {D(0.1234561)},
                            {D(12345.68)},
                            {D(0.1234562)}},
                           1),
                      {}, std::move(aggs));
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 1u);
  const double sum = 12345.67 + 12345.68 + 12345.69 + 0.1234561 + 0.1234562;
  EXPECT_TRUE(rows[0][0].Equals(I(5))) << rows[0][0].ToString();
  EXPECT_NEAR(rows[0][1].double_value(), sum, 1e-9);
  EXPECT_NEAR(rows[0][2].double_value(), sum / 5, 1e-9);
}

TEST(DistinctTest, RemovesDuplicatesKeepsFirst) {
  OperatorPtr distinct =
      MakeDistinct(Rows({{I(1)}, {I(2)}, {I(1)}, {N()}, {N()}}, 1));
  auto rows = Drain(distinct.get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[2][0].is_null());
}

TEST(DistinctTest, EmitsInFirstOccurrenceOrder) {
  OperatorPtr distinct = MakeDistinct(Rows({{I(4), S("d")},
                                            {I(2), S("b")},
                                            {I(4), S("d")},
                                            {D(2.0), S("b")},  // = (2, 'b')
                                            {N(), S("n")},
                                            {I(4), S("e")},
                                            {N(), S("n")},
                                            {I(1), S("a")}},
                                           2));
  auto rows = Drain(distinct.get());
  const std::vector<Row> want = {{I(4), S("d")},
                                 {I(2), S("b")},
                                 {N(), S("n")},
                                 {I(4), S("e")},
                                 {I(1), S("a")}};
  ASSERT_EQ(rows.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(RowEq()(rows[i], want[i])) << RowToString(rows[i]);
  }
  // The first occurrence wins: the INT64 row, not the DOUBLE duplicate.
  EXPECT_EQ(rows[1][0].type(), TypeId::kInt64);
}

// EXPLAIN and the per-operator metrics name MakeDistinct's aggregate
// "Distinct"; a GROUP BY of another shape stays "HashAggregate".
TEST(DistinctTest, OnlyMakeDistinctsShapePrintsAsDistinct) {
  OperatorPtr distinct = MakeDistinct(Rows({}, 2));
  EXPECT_EQ(distinct->name(), "Distinct");
  EXPECT_EQ(distinct->ToString(0).rfind("Distinct\n", 0), 0u);

  // A subset of the columns, the columns out of order, or an aggregate.
  auto agg_name = [](std::vector<int> slots, size_t num_aggs) {
    std::vector<ExprPtr> keys;
    for (int slot : slots) keys.push_back(MakeSlotRef(slot, TypeId::kInt64));
    HashAggregateOp agg(Rows({}, 2), std::move(keys),
                        std::vector<AggSpec>(num_aggs));
    return agg.name();
  };
  EXPECT_EQ(agg_name({0, 1}, 0), "Distinct");
  EXPECT_EQ(agg_name({0}, 0), "HashAggregate");
  EXPECT_EQ(agg_name({1, 0}, 0), "HashAggregate");
  EXPECT_EQ(agg_name({0, 1}, 1), "HashAggregate");
}

// ---- union / sort / limit / materialize ----

TEST(UnionAllTest, Concatenates) {
  std::vector<OperatorPtr> children;
  children.push_back(Rows({{I(1)}, {I(2)}}, 1));
  children.push_back(Rows({{I(3)}}, 1));
  children.push_back(Rows({}, 1));
  UnionAllOp u(std::move(children));
  EXPECT_EQ(Drain(&u).size(), 3u);
}

TEST(SortTest, MultiKeyWithDirections) {
  SortOp sort(Rows({{I(2), S("b")}, {I(1), S("z")}, {I(2), S("a")}}, 2),
              {{0, true}, {1, false}});
  auto rows = Drain(&sort);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0][0].Equals(I(1)));
  EXPECT_EQ(rows[1][1].string_value(), "b");  // within key 2: desc by string
  EXPECT_EQ(rows[2][1].string_value(), "a");
}

TEST(SortTest, NullsSortFirst) {
  SortOp sort(Rows({{I(5)}, {N()}, {I(1)}}, 1), {{0, true}});
  auto rows = Drain(&sort);
  EXPECT_TRUE(rows[0][0].is_null());
}

TEST(LimitTest, Truncates) {
  LimitOp limit(Rows({{I(1)}, {I(2)}, {I(3)}}, 1), 2);
  EXPECT_EQ(Drain(&limit).size(), 2u);
  LimitOp zero(Rows({{I(1)}}, 1), 0);
  EXPECT_TRUE(Drain(&zero).empty());
}

TEST(CachedMaterializeTest, ComputesOnceSharesResult) {
  auto shared = std::make_shared<SharedSubplan>();
  shared->plan = Rows({{I(1)}, {I(2)}}, 1);
  shared->width = 1;
  CachedMaterializeOp a(shared);
  CachedMaterializeOp b(shared);
  EXPECT_EQ(Drain(&a).size(), 2u);
  EXPECT_TRUE(shared->computed);
  EXPECT_EQ(Drain(&b).size(), 2u);
}

// ---- subquery verdict semantics ----

TEST(SubqueryVerdictTest, ScalarSemantics) {
  Status st;
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kScalar, BinaryOp::kEq, Value(),
                              {}, false, &st)
                  .is_null());
  EXPECT_TRUE(st.ok());
  Value one = SubqueryVerdict(SubqueryMode::kScalar, BinaryOp::kEq, Value(),
                              {{I(7)}}, false, &st);
  EXPECT_TRUE(one.Equals(I(7)));
  SubqueryVerdict(SubqueryMode::kScalar, BinaryOp::kEq, Value(),
                  {{I(1)}, {I(2)}}, false, &st);
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
}

TEST(SubqueryVerdictTest, ExistsAndNegation) {
  Status st;
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kExists, BinaryOp::kEq, Value(),
                              {{I(1)}}, false, &st)
                  .bool_value());
  EXPECT_FALSE(SubqueryVerdict(SubqueryMode::kExists, BinaryOp::kEq, Value(),
                               {{I(1)}}, true, &st)
                   .bool_value());
  EXPECT_FALSE(SubqueryVerdict(SubqueryMode::kExists, BinaryOp::kEq, Value(),
                               {}, false, &st)
                   .bool_value());
}

TEST(SubqueryVerdictTest, InWithNullSemantics) {
  Status st;
  // 5 IN (1, NULL) -> UNKNOWN; 1 IN (1, NULL) -> TRUE.
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kIn, BinaryOp::kEq, I(5),
                              {{I(1)}, {N()}}, false, &st)
                  .is_null());
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kIn, BinaryOp::kEq, I(1),
                              {{I(1)}, {N()}}, false, &st)
                  .bool_value());
  // NULL IN anything non-empty -> UNKNOWN.
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kIn, BinaryOp::kEq, N(),
                              {{I(1)}}, false, &st)
                  .is_null());
  // NOT IN flips TRUE/FALSE but not UNKNOWN.
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kIn, BinaryOp::kEq, I(5),
                              {{I(1)}, {N()}}, true, &st)
                  .is_null());
}

TEST(SubqueryVerdictTest, AllOnEmptySetIsVacuouslyTrue) {
  Status st;
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kAll, BinaryOp::kGt, I(0), {},
                              false, &st)
                  .bool_value());
  // 5 > ALL (1, 2) -> TRUE; 5 > ALL (1, 9) -> FALSE; 5 > ALL (1, NULL) ->
  // UNKNOWN.
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kAll, BinaryOp::kGt, I(5),
                              {{I(1)}, {I(2)}}, false, &st)
                  .bool_value());
  EXPECT_FALSE(SubqueryVerdict(SubqueryMode::kAll, BinaryOp::kGt, I(5),
                               {{I(1)}, {I(9)}}, false, &st)
                   .bool_value());
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kAll, BinaryOp::kGt, I(5),
                              {{I(1)}, {N()}}, false, &st)
                  .is_null());
}

TEST(SubqueryVerdictTest, AnySemantics) {
  Status st;
  EXPECT_FALSE(SubqueryVerdict(SubqueryMode::kAny, BinaryOp::kEq, I(5), {},
                               false, &st)
                   .bool_value());
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kAny, BinaryOp::kLt, I(1),
                              {{I(0)}, {I(2)}}, false, &st)
                  .bool_value());
  EXPECT_TRUE(SubqueryVerdict(SubqueryMode::kAny, BinaryOp::kLt, I(5),
                              {{I(0)}, {N()}}, false, &st)
                  .is_null());
}

// ---- apply operators ----

// A filter over `rows` keeping the rows whose column 0 equals parameter 0,
// projected to `columns`.
OperatorPtr KeyedInner(std::vector<Row> rows, int width,
                       std::vector<int> columns) {
  ExprPtr pred = MakeComparison(BinaryOp::kEq, MakeSlotRef(0, TypeId::kInt64),
                                MakeParamRef(0, TypeId::kInt64));
  OperatorPtr filter =
      std::make_unique<FilterOp>(Rows(std::move(rows), width), std::move(pred));
  std::vector<ExprPtr> proj;
  for (int c : columns) proj.push_back(MakeSlotRef(c, TypeId::kInt64));
  return std::make_unique<ProjectOp>(std::move(filter), std::move(proj));
}

SubquerySemantics Mode(SubqueryMode mode) {
  SubquerySemantics semantics;
  semantics.mode = mode;
  return semantics;
}

TEST(ApplyTest, ScalarSubqueryAppendsValue) {
  ApplyOp apply(Rows({{I(1)}, {I(2)}, {I(3)}}, 1),
                KeyedInner({{I(1), I(100)}, {I(2), I(200)}}, 2, {1}),
                {{false, 0}}, Mode(SubqueryMode::kScalar));
  auto rows = Drain(&apply);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0][1].Equals(I(100)));
  EXPECT_TRUE(rows[1][1].Equals(I(200)));
  EXPECT_TRUE(rows[2][1].is_null());  // no match -> NULL
}

TEST(ApplyTest, CountsInvocations) {
  ApplyOp apply(Rows({{I(1)}, {I(2)}}, 1), Rows({{I(1)}}, 1), {{false, 0}},
                Mode(SubqueryMode::kExists));
  ExecStats stats;
  Drain(&apply, nullptr, &stats);
  EXPECT_EQ(stats.subquery_invocations, 2);
}

TEST(ApplyTest, InvariantSubqueryCachedAcrossRows) {
  // No params, no lhs: the width-0 key, run once per Open.
  ApplyOp apply(Rows({{I(1)}, {I(2)}, {I(3)}}, 1), Rows({{I(42)}}, 1), {},
                Mode(SubqueryMode::kScalar));
  ExecStats stats;
  auto rows = Drain(&apply, nullptr, &stats);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(stats.subquery_invocations, 1);
  EXPECT_EQ(stats.subquery_cache_hits + stats.subquery_cache_misses, 0);
  EXPECT_TRUE(rows[2][1].Equals(I(42)));
}

// A subquery whose predicate references zero outer columns (degenerate
// correlation, e.g. an uncorrelated IN list surviving rewrite cleanup) runs
// its inner once even though its row-dependent lhs makes each verdict
// differ: the row set is invariant.
TEST(ApplyTest, DegenerateCorrelationRunsInnerOnce) {
  SubquerySemantics in = Mode(SubqueryMode::kIn);
  in.lhs = MakeSlotRef(0, TypeId::kInt64);  // per-row lhs, no params
  ApplyOp apply(Rows({{I(100)}, {I(300)}, {I(200)}}, 1),
                Rows({{I(100)}, {I(200)}}, 1), {}, std::move(in));
  ExecStats stats;
  auto rows = Drain(&apply, nullptr, &stats);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0][1].Equals(Value::Bool(true)));
  EXPECT_TRUE(rows[1][1].Equals(Value::Bool(false)));
  EXPECT_TRUE(rows[2][1].Equals(Value::Bool(true)));
  EXPECT_EQ(stats.subquery_invocations, 1);
}

TEST(ApplyTest, GroupedExistential) {
  std::vector<ExprPtr> probe;
  probe.push_back(MakeSlotRef(0, TypeId::kInt64));
  ApplyOp op(Rows({{I(1)}, {I(5)}}, 1),
             Rows({{I(1), S("x")}, {I(1), S("y")}, {I(2), S("z")}}, 2), {0},
             std::move(probe), Mode(SubqueryMode::kExists));
  EXPECT_EQ(op.name(), "GroupProbeApply");
  auto rows = Drain(&op);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0][1].bool_value());
  EXPECT_FALSE(rows[1][1].bool_value());
}

TEST(ApplyTest, GroupedScalar) {
  std::vector<ExprPtr> probe;
  probe.push_back(MakeSlotRef(0, TypeId::kInt64));
  ApplyOp op(Rows({{I(2)}, {I(7)}}, 1),
             Rows({{I(100), I(1)}, {I(200), I(2)}}, 2), {1}, std::move(probe),
             Mode(SubqueryMode::kScalar));
  auto rows = Drain(&op);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0][1].Equals(I(200)));
  EXPECT_TRUE(rows[1][1].is_null());
}

TEST(ApplyTest, LateralEmitsInnerRowsPerOuterRow) {
  ApplyOp lateral(Rows({{I(1)}, {I(2)}, {I(9)}}, 1),
                  KeyedInner({{I(1), I(10)}, {I(1), I(11)}, {I(2), I(20)}}, 2,
                             {0, 1}),
                  {{false, 0}}, 2);
  EXPECT_EQ(lateral.name(), "LateralJoin");
  EXPECT_EQ(lateral.output_width(), 3);
  auto rows = Drain(&lateral);
  ASSERT_EQ(rows.size(), 3u);  // 2 + 1 + 0 (inner-join semantics)
  EXPECT_EQ(rows[0].size(), 3u);
  EXPECT_TRUE(rows[1][2].Equals(I(11)));
  EXPECT_TRUE(rows[2][0].Equals(I(2)));
}

// The same outer rows and inner relation through the re-run, memo and
// grouped shapes give the verdict SubqueryVerdict gives for each binding's
// rows, in every mode. Outer rows are (binding, lhs); the inner relation
// (v, k) has two rows for binding 1, a NULL v for binding 2, none for 4
// and a NULL k, which no binding matches.
TEST(ApplyTest, ShapesAgreeOnEveryVerdict) {
  const std::vector<Row> inner = {{I(10), I(1)}, {I(20), I(1)},
                                  {I(30), I(2)}, {N(), I(2)},
                                  {I(40), I(3)}, {I(50), N()}};
  std::vector<Row> outer;
  for (const Value& b : {I(1), I(2), I(3), I(4), N()}) {
    for (const Value& lhs : {I(10), I(30), I(45), N()}) {
      outer.push_back({b, lhs});
    }
  }
  auto group_of = [&](const Value& b) {
    std::vector<Row> rows;
    for (const Row& row : inner) {
      if (!b.is_null() && row[1].Equals(b)) rows.push_back(row);
    }
    return rows;
  };
  enum Shape { kReRun, kMemo, kGrouped };
  // The verdict column the shape appends, or its error.
  auto run = [&](Shape shape, const std::vector<Row>& outer_rows,
                 SubqueryMode mode, BinaryOp op, bool negated,
                 ExecStats* stats) -> Result<std::vector<std::string>> {
    SubquerySemantics semantics = Mode(mode);
    semantics.op = op;
    semantics.negated = negated;
    if (mode != SubqueryMode::kScalar && mode != SubqueryMode::kExists) {
      semantics.lhs = MakeSlotRef(1, TypeId::kInt64);
    }
    OperatorPtr apply;
    if (shape == kGrouped) {
      std::vector<ExprPtr> probe;
      probe.push_back(MakeSlotRef(0, TypeId::kInt64));
      apply = std::make_unique<ApplyOp>(Rows(outer_rows, 2), Rows(inner, 2),
                                        std::vector<int>{1}, std::move(probe),
                                        std::move(semantics));
    } else {
      // (k, v) filtered on k = :0, projected to (v, k).
      std::vector<Row> kv;
      for (const Row& row : inner) kv.push_back({row[1], row[0]});
      apply = std::make_unique<ApplyOp>(
          Rows(outer_rows, 2), KeyedInner(std::move(kv), 2, {1, 0}),
          std::vector<ParamSource>{{false, 0}}, std::move(semantics));
    }
    ExecContext ctx;
    ctx.stats = stats;
    ctx.subquery_cache_bytes = shape == kMemo ? 1 << 20 : 0;
    DECORR_ASSIGN_OR_RETURN(std::vector<Row> rows,
                            CollectRows(apply.get(), &ctx));
    std::vector<std::string> column;
    for (const Row& row : rows) column.push_back(row[2].ToString());
    return column;
  };
  struct Case {
    SubqueryMode mode;
    BinaryOp op;
    bool negated;
  };
  const Case cases[] = {
      {SubqueryMode::kExists, BinaryOp::kEq, false},
      {SubqueryMode::kExists, BinaryOp::kEq, true},
      {SubqueryMode::kIn, BinaryOp::kEq, false},
      {SubqueryMode::kIn, BinaryOp::kEq, true},
      {SubqueryMode::kAny, BinaryOp::kLt, false},
      {SubqueryMode::kAny, BinaryOp::kLt, true},
      {SubqueryMode::kAll, BinaryOp::kLt, false},
      {SubqueryMode::kAll, BinaryOp::kGe, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(StrFormat("mode=%s op=%d negated=%d",
                           SubqueryModeName(c.mode), static_cast<int>(c.op),
                           c.negated));
    std::vector<std::string> expected;
    for (const Row& row : outer) {
      Status st;
      const Value v = SubqueryVerdict(c.mode, c.op, row[1], group_of(row[0]),
                                      c.negated, &st);
      ASSERT_TRUE(st.ok());
      expected.push_back(v.ToString());
    }
    ExecStats rerun, memo, grouped;
    auto a = run(kReRun, outer, c.mode, c.op, c.negated, &rerun);
    auto b = run(kMemo, outer, c.mode, c.op, c.negated, &memo);
    auto g = run(kGrouped, outer, c.mode, c.op, c.negated, &grouped);
    ASSERT_TRUE(a.ok() && b.ok() && g.ok());
    EXPECT_EQ(*a, expected);
    EXPECT_EQ(*b, expected);
    EXPECT_EQ(*g, expected);
    EXPECT_EQ(rerun.subquery_invocations, 20);
    // Five distinct bindings, NULL one of them; each recurs four times.
    EXPECT_EQ(memo.subquery_invocations, 5);
    EXPECT_EQ(memo.subquery_cache_misses, 5);
    EXPECT_EQ(memo.subquery_cache_hits, 15);
    EXPECT_EQ(grouped.subquery_invocations, 0);
    EXPECT_EQ(grouped.index_lookups, 16);  // a NULL binding probes nothing
  }
  // Scalar: bindings with at most one row (3, 4 and NULL) agree; binding 1's
  // two rows fail every shape the same way.
  std::vector<Row> single;
  for (const Row& row : outer) {
    if (row[0].is_null() || row[0].int64_value() >= 3) single.push_back(row);
  }
  std::vector<std::string> expected;
  for (const Row& row : single) {
    expected.push_back(row[0].Equals(I(3)) ? "40" : "NULL");
  }
  for (Shape shape : {kReRun, kMemo, kGrouped}) {
    ExecStats stats;
    auto ok = run(shape, single, SubqueryMode::kScalar, BinaryOp::kEq, false,
                  &stats);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(*ok, expected);
    auto two = run(shape, {{I(1), I(10)}}, SubqueryMode::kScalar,
                   BinaryOp::kEq, false, &stats);
    ASSERT_FALSE(two.ok());
    EXPECT_EQ(two.status().code(), StatusCode::kExecutionError);
    EXPECT_EQ(two.status().message(),
              "scalar subquery produced more than one row");
  }
}

// The grouped build hands back, at once, the charge of the inner rows it
// drops for a NULL key, and keeps the rest until Close.
TEST(ApplyTest, GroupedBuildReleasesNullKeyRows) {
  const Row kept_a = {I(1), S("a")};
  const Row dropped = {N(), S("this string is too long to be inline")};
  const Row kept_b = {I(2), S("b")};
  std::vector<ExprPtr> probe;
  probe.push_back(MakeSlotRef(0, TypeId::kInt64));
  ApplyOp op(Rows({{I(1)}, {N()}}, 1), Rows({kept_a, dropped, kept_b}, 2),
             {0}, std::move(probe), Mode(SubqueryMode::kExists));
  ResourceGuard guard;
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  ctx.guard = &guard;
  ASSERT_TRUE(op.Open(&ctx).ok());
  EXPECT_EQ(guard.memory().used(),
            ApproxRowBytes(kept_a) + ApproxRowBytes(kept_b));
  EXPECT_EQ(op.metrics().bytes_charged, ApproxRowBytes(kept_a) +
                                            ApproxRowBytes(dropped) +
                                            ApproxRowBytes(kept_b));
  op.Close();
  EXPECT_EQ(guard.memory().used(), 0);
}

// Every shape reports what it charged in bytes_charged (EXPLAIN ANALYZE's
// bytes=) and hands all of it back by Close.
TEST(ApplyTest, EveryShapeReportsItsCharges) {
  const std::vector<Row> inner = {{I(1), I(10)}, {I(1), I(11)}, {I(2), I(20)}};
  const std::vector<Row> outer = {{I(1)}, {I(2)}, {I(1)}};
  auto charged = [](Operator* op, int64_t cache_bytes) {
    ResourceGuard guard;
    ExecStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    ctx.guard = &guard;
    ctx.subquery_cache_bytes = cache_bytes;
    auto rows = CollectRows(op, &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(guard.memory().used(), 0);
    return op->metrics().bytes_charged;
  };
  const int64_t one = ApproxRowBytes({I(10)});  // every inner row's charge
  const int64_t key = ApproxRowBytes({I(1)});
  ApplyOp rerun(Rows(outer, 1), KeyedInner(inner, 2, {1}), {{false, 0}},
                Mode(SubqueryMode::kExists));
  EXPECT_EQ(charged(&rerun, 0), 5 * one);  // 2 + 1 + 2 rows
  ApplyOp memo(Rows(outer, 1), KeyedInner(inner, 2, {1}), {{false, 0}},
               Mode(SubqueryMode::kExists));
  EXPECT_EQ(charged(&memo, 1 << 20), 3 * one + 2 * key);  // two misses
  ApplyOp lateral(Rows(outer, 1), KeyedInner(inner, 2, {1}), {{false, 0}}, 1);
  EXPECT_EQ(charged(&lateral, 0), 5 * one);
  std::vector<ExprPtr> probe;
  probe.push_back(MakeSlotRef(0, TypeId::kInt64));
  ApplyOp grouped(Rows(outer, 1), Rows(inner, 2), {0}, std::move(probe),
                  Mode(SubqueryMode::kExists));
  EXPECT_EQ(charged(&grouped, 0), 3 * ApproxRowBytes(inner[0]));
}

}  // namespace
}  // namespace decorr
