// Vectorized execution tests (DESIGN.md §14): Batch/selection-vector
// semantics, the vectorized expression evaluator and the in-place storage
// filter differentially against the scalar one, the row→batch shim (tail
// batches, batch_size=1), and — the honesty layer — per-operator
// batch-vs-tuple row identity on hand-built plans, including the `<=>`
// null-safe key round-trip.
#include <gtest/gtest.h>

#include <functional>

#include "decorr/exec/aggregate.h"
#include "decorr/exec/exchange.h"
#include "decorr/exec/filter_project.h"
#include "decorr/exec/join.h"
#include "decorr/exec/misc_ops.h"
#include "decorr/exec/scan.h"
#include "decorr/expr/eval.h"
#include "decorr/expr/eval_vector.h"
#include "decorr/runtime/database.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  return a.Equals(b);
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

std::string RowStr(const Row& row) { return RowToString(row); }

OperatorPtr Rows(std::vector<Row> rows, int width) {
  auto data = std::make_shared<const std::vector<Row>>(std::move(rows));
  return std::make_unique<RowsScanOp>(data, width);
}

// Drains `op` root-side with the given batch size (0 = tuple mode).
std::vector<Row> DrainWith(Operator* op, int batch_size,
                           const Row* params = nullptr) {
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  ctx.params = params;
  ctx.batch_size = batch_size;
  auto result = CollectRows(op, &ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.MoveValue() : std::vector<Row>{};
}

// The differential core: the same plan, rebuilt per mode, must produce the
// exact same row *sequence* in tuple mode and under several batch sizes
// (every converted operator is order-preserving, so order is part of the
// contract — a stronger check than multiset equality).
void ExpectModesAgree(const std::function<OperatorPtr()>& make_plan,
                      const Row* params = nullptr) {
  OperatorPtr baseline_op = make_plan();
  std::vector<Row> baseline = DrainWith(baseline_op.get(), 0, params);
  for (int batch_size : {1, 3, 1024}) {
    OperatorPtr op = make_plan();
    std::vector<Row> got = DrainWith(op.get(), batch_size, params);
    ASSERT_EQ(got.size(), baseline.size()) << "batch_size=" << batch_size;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameRow(got[i], baseline[i]))
          << "batch_size=" << batch_size << " row " << i << ": "
          << RowStr(got[i]) << " vs " << RowStr(baseline[i]);
    }
  }
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

// A bigger table so batches actually span chunk boundaries: 100 rows,
// k = 0..99, v = NULL every 7th row.
TablePtr WideTable() {
  TableSchema schema("w", {{"k", TypeId::kInt64, false},
                           {"v", TypeId::kInt64, true}});
  auto table = std::make_shared<Table>(schema);
  for (int64_t i = 0; i < 100; ++i) {
    (void)table->AppendRow({I(i), i % 7 == 0 ? N() : I(i * 10)});
  }
  return table;
}

// ---- Batch semantics ----

TEST(BatchTest, AppendAndGetRowRoundTripsNulls) {
  Batch b;
  b.Reset(2);
  b.AppendRow({I(1), N()});
  b.AppendRow({N(), S("x")});
  EXPECT_EQ(b.width(), 2);
  EXPECT_EQ(b.num_rows(), 2);
  EXPECT_EQ(b.live_rows(), 2);
  Row row;
  b.GetRow(0, &row);
  EXPECT_TRUE(SameRow(row, {I(1), N()}));
  b.GetRow(1, &row);
  EXPECT_TRUE(SameRow(row, {N(), S("x")}));
  // NULLs are ordinary Value entries, so RowHash/RowEq (the `<=>` null-safe
  // key machinery) see the identical Row the tuple path would produce.
  Row direct = {N(), S("x")};
  EXPECT_TRUE(RowEq()(row, direct));
  EXPECT_EQ(RowHash()(row), RowHash()(direct));
}

TEST(BatchTest, SelectionNarrowsLiveRows) {
  Batch b;
  b.Reset(1);
  for (int64_t i = 0; i < 5; ++i) b.AppendRow({I(i)});
  b.SetSelection({1, 3, 4});
  EXPECT_EQ(b.num_rows(), 5);
  EXPECT_EQ(b.live_rows(), 3);
  EXPECT_TRUE(b.has_selection());
  EXPECT_EQ(b.row_index(0), 1);
  EXPECT_EQ(b.row_index(2), 4);
  Row row;
  b.GetRow(1, &row);
  EXPECT_TRUE(row[0].Equals(I(3)));
  b.ClearSelection();
  EXPECT_EQ(b.live_rows(), 5);
}

TEST(BatchTest, CompactMaterializesSelection) {
  Batch b;
  b.Reset(2);
  for (int64_t i = 0; i < 6; ++i) {
    b.AppendRow({I(i), i % 2 == 0 ? S("even") : N()});
  }
  b.SetSelection({0, 2, 5});
  b.Compact();
  EXPECT_FALSE(b.has_selection());
  EXPECT_EQ(b.num_rows(), 3);
  EXPECT_EQ(b.live_rows(), 3);
  Row row;
  b.GetRow(0, &row);
  EXPECT_TRUE(SameRow(row, {I(0), S("even")}));
  b.GetRow(2, &row);
  EXPECT_TRUE(SameRow(row, {I(5), N()}));
  // Compacting an unfiltered batch is a no-op.
  b.Compact();
  EXPECT_EQ(b.num_rows(), 3);
}

TEST(BatchTest, ResetReusesAcrossWidths) {
  Batch b;
  b.Reset(3);
  b.AppendRow({I(1), I(2), I(3)});
  b.SetSelection({0});
  b.Reset(1);
  EXPECT_EQ(b.width(), 1);
  EXPECT_EQ(b.num_rows(), 0);
  EXPECT_EQ(b.live_rows(), 0);
  EXPECT_FALSE(b.has_selection());
  b.AppendRow({I(9)});
  EXPECT_EQ(b.live_rows(), 1);
}

// ---- vectorized evaluator vs scalar evaluator ----

// Evaluates `expr` both ways over a batch with a selection and asserts
// element-wise value identity against per-row scalar Eval.
void ExpectVectorMatchesScalar(const Expr& expr, const Batch& batch,
                               const Row* params) {
  std::vector<Value> vec;
  ASSERT_TRUE(EvalVector(expr, batch, params, &vec).ok());
  ASSERT_EQ(static_cast<int>(vec.size()), batch.live_rows());
  for (int i = 0; i < batch.live_rows(); ++i) {
    Row row;
    batch.GetRow(i, &row);
    EvalContext ectx;
    ectx.row = &row;
    ectx.params = params;
    Value scalar = Eval(expr, ectx);
    EXPECT_TRUE(SameValue(vec[static_cast<size_t>(i)], scalar))
        << expr.ToString() << " row " << i;
  }
  // And the predicate form agrees with EvalPredicate.
  std::vector<char> match;
  ASSERT_TRUE(EvalPredicateVector(expr, batch, params, &match).ok());
  for (int i = 0; i < batch.live_rows(); ++i) {
    Row row;
    batch.GetRow(i, &row);
    EvalContext ectx;
    ectx.row = &row;
    ectx.params = params;
    EXPECT_EQ(match[static_cast<size_t>(i)] != 0, EvalPredicate(expr, ectx))
        << expr.ToString() << " row " << i;
  }
}

TEST(VectorEvalTest, AllExprKindsMatchScalarEval) {
  // Columns: int64 (with NULLs), string (with NULLs), double.
  Batch b;
  b.Reset(3);
  b.AppendRow({I(1), S("apple"), D(1.5)});
  b.AppendRow({N(), S("banana"), D(-2.0)});
  b.AppendRow({I(0), N(), D(0.0)});
  b.AppendRow({I(-7), S("Cherry"), D(7.25)});
  b.AppendRow({I(42), S(""), D(4.0)});
  b.AppendRow({I(2), S("app"), D(-0.5)});
  // Skip physical row 2 so the evaluator must honor the selection.
  b.SetSelection({0, 1, 3, 4, 5});
  Row params = {I(2)};

  std::vector<ExprPtr> exprs;
  exprs.push_back(MakeConstant(I(5)));
  exprs.push_back(MakeConstant(N()));
  exprs.push_back(MakeSlotRef(0, TypeId::kInt64));
  exprs.push_back(MakeParamRef(0, TypeId::kInt64));
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    exprs.push_back(MakeComparison(op, MakeSlotRef(0, TypeId::kInt64),
                                   MakeParamRef(0, TypeId::kInt64)));
  }
  // AND/OR over three-valued operands (NULL slot vs comparisons).
  ExprPtr cmp_pos = MakeComparison(BinaryOp::kGt,
                                   MakeSlotRef(0, TypeId::kInt64),
                                   MakeConstant(I(0)));
  ExprPtr null_cmp = MakeComparison(BinaryOp::kEq,
                                    MakeSlotRef(0, TypeId::kInt64),
                                    MakeConstant(N()));
  exprs.push_back(MakeAnd(cmp_pos->Clone(), null_cmp->Clone()));
  exprs.push_back(MakeOr(cmp_pos->Clone(), null_cmp->Clone()));
  exprs.push_back(MakeNot(cmp_pos->Clone()));
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv}) {
    exprs.push_back(MakeArithmetic(op, MakeSlotRef(0, TypeId::kInt64),
                                   MakeSlotRef(0, TypeId::kInt64)));
  }
  // Division by zero must yield NULL element-wise, exactly like scalar Eval.
  exprs.push_back(MakeArithmetic(BinaryOp::kDiv, MakeConstant(I(10)),
                                 MakeSlotRef(0, TypeId::kInt64)));
  exprs.push_back(MakeNegate(MakeSlotRef(2, TypeId::kDouble)));
  exprs.push_back(MakeIsNull(MakeSlotRef(1, TypeId::kString), false));
  exprs.push_back(MakeIsNull(MakeSlotRef(1, TypeId::kString), true));
  for (bool negated : {false, true}) {
    std::vector<ExprPtr> list;
    list.push_back(MakeConstant(I(1)));
    list.push_back(MakeConstant(N()));
    list.push_back(MakeConstant(I(42)));
    exprs.push_back(MakeInList(MakeSlotRef(0, TypeId::kInt64),
                               std::move(list), negated));
  }
  exprs.push_back(MakeLike(MakeSlotRef(1, TypeId::kString),
                           MakeConstant(S("app%")), false));
  exprs.push_back(MakeLike(MakeSlotRef(1, TypeId::kString),
                           MakeConstant(S("_a%")), true));
  {
    // CASE WHEN k > 0 THEN k WHEN k IS NULL THEN -1 ELSE 99 END
    std::vector<ExprPtr> kids;
    kids.push_back(cmp_pos->Clone());
    kids.push_back(MakeSlotRef(0, TypeId::kInt64));
    kids.push_back(MakeIsNull(MakeSlotRef(0, TypeId::kInt64), false));
    kids.push_back(MakeConstant(I(-1)));
    kids.push_back(MakeConstant(I(99)));
    exprs.push_back(MakeCase(std::move(kids)));
  }
  {
    // CASE with no ELSE -> NULL fallthrough.
    std::vector<ExprPtr> kids;
    kids.push_back(null_cmp->Clone());
    kids.push_back(MakeConstant(I(1)));
    exprs.push_back(MakeCase(std::move(kids)));
  }
  {
    std::vector<ExprPtr> args;
    args.push_back(MakeSlotRef(1, TypeId::kString));
    args.push_back(MakeConstant(S("fallback")));
    exprs.push_back(MakeFunction(FuncKind::kCoalesce, std::move(args)));
  }
  for (FuncKind fn : {FuncKind::kUpper, FuncKind::kLower, FuncKind::kLength}) {
    std::vector<ExprPtr> args;
    args.push_back(MakeSlotRef(1, TypeId::kString));
    exprs.push_back(MakeFunction(fn, std::move(args)));
  }
  {
    std::vector<ExprPtr> args;
    args.push_back(MakeSlotRef(0, TypeId::kInt64));
    exprs.push_back(MakeFunction(FuncKind::kAbs, std::move(args)));
  }

  for (const ExprPtr& expr : exprs) {
    ASSERT_TRUE(InferTypes(expr.get()).ok()) << expr->ToString();
    ExpectVectorMatchesScalar(*expr, b, &params);
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
  const char* words[] = {"apple", "banana", "ab", "", "xab", "Apple"};
  for (int64_t r = 0; r < 300; ++r) {
    (void)table->AppendRow(
        {r % 3 == 0 ? N() : I(r % 7), r % 4 == 0 ? N() : D((r % 5) * 0.5),
         r % 5 == 0 ? N() : S(words[r % 6]),
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
    // Literal patterns and '%'/'_' wildcards at the ends, inside and alone.
    for (const char* pattern :
         {"ab", "", "a%", "%ab", "%pp%", "%", "%%", "%b_", "a%e", "%a%b%"}) {
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
  {
    std::vector<ExprPtr> list;
    list.push_back(MakeParamRef(0, TypeId::kInt64));
    list.push_back(MakeParamRef(1, TypeId::kInt64));  // NULL parameter
    exprs.push_back(MakeInList(i->Clone(), std::move(list), false));
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

// ---- row→batch shim ----

TEST(ShimTest, UnconvertedOperatorServedInBatchesWithOddTail) {
  // SortOp has no NextBatchImpl: the base shim must loop NextImpl and emit
  // full batches plus a smaller tail (10 rows at batch_size 4 -> 4, 4, 2).
  std::vector<Row> input;
  for (int64_t i = 0; i < 10; ++i) input.push_back({I(9 - i)});
  SortOp sort(Rows(std::move(input), 1),
              std::vector<std::pair<int, bool>>{{0, true}});
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  ctx.batch_size = 4;
  ASSERT_TRUE(sort.Open(&ctx).ok());
  std::vector<int> sizes;
  int64_t next_expected = 0;
  while (true) {
    Batch batch;
    bool eof = false;
    ASSERT_TRUE(sort.NextBatch(&batch, &eof).ok());
    if (eof) break;
    ASSERT_GE(batch.live_rows(), 1);  // returned batches are never empty
    sizes.push_back(batch.live_rows());
    for (int i = 0; i < batch.live_rows(); ++i) {
      Row row;
      batch.GetRow(i, &row);
      EXPECT_TRUE(row[0].Equals(I(next_expected++)));
    }
  }
  sort.Close();
  EXPECT_EQ(next_expected, 10);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 4);
  EXPECT_EQ(sizes[1], 4);
  EXPECT_EQ(sizes[2], 2);  // the odd-sized tail batch
}

TEST(ShimTest, BatchSizeOneDegeneratesToTuples) {
  DistinctOp distinct(Rows({{I(1)}, {I(2)}, {I(1)}, {N()}, {N()}}, 1));
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  ctx.batch_size = 1;
  ASSERT_TRUE(distinct.Open(&ctx).ok());
  int batches = 0;
  while (true) {
    Batch batch;
    bool eof = false;
    ASSERT_TRUE(distinct.NextBatch(&batch, &eof).ok());
    if (eof) break;
    EXPECT_EQ(batch.live_rows(), 1);
    ++batches;
  }
  distinct.Close();
  EXPECT_EQ(batches, 3);  // 1, 2, NULL
}

TEST(ShimTest, EofAfterEofStaysEof) {
  SeqScanOp scan(SmallTable(), {0}, nullptr);
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  ctx.batch_size = 1024;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  Batch batch;
  bool eof = false;
  ASSERT_TRUE(scan.NextBatch(&batch, &eof).ok());
  EXPECT_FALSE(eof);
  EXPECT_EQ(batch.live_rows(), 4);
  ASSERT_TRUE(scan.NextBatch(&batch, &eof).ok());
  EXPECT_TRUE(eof);
  ASSERT_TRUE(scan.NextBatch(&batch, &eof).ok());  // sticky eof
  EXPECT_TRUE(eof);
  scan.Close();
}

TEST(ShimTest, BatchModePopulatesBatchMetrics) {
  SeqScanOp scan(WideTable(), {0, 1}, nullptr);
  // Tuple mode: batches_out must stay zero (golden EXPLAIN safety).
  std::vector<Row> tuple_rows = DrainWith(&scan, 0);
  EXPECT_EQ(scan.metrics().batches_out, 0);
  SeqScanOp batch_scan(WideTable(), {0, 1}, nullptr);
  std::vector<Row> batch_rows = DrainWith(&batch_scan, 32);
  EXPECT_EQ(batch_rows.size(), tuple_rows.size());
  EXPECT_EQ(batch_scan.metrics().batches_out, 4);  // 100 rows / 32 -> 4
  EXPECT_EQ(batch_scan.metrics().rows_out, 100);
}

// ---- per-operator batch-vs-tuple identity on hand-built plans ----

TEST(BatchDiffTest, SeqScanFullScan) {
  ExpectModesAgree([] {
    return std::make_unique<SeqScanOp>(WideTable(), std::vector<int>{0, 1},
                                       nullptr);
  });
}

TEST(BatchDiffTest, SeqScanFusedFilter) {
  ExpectModesAgree([] {
    // k % filter via comparison: v > 300 (NULL v rows are UNKNOWN-rejected).
    ExprPtr filter = MakeComparison(BinaryOp::kGt,
                                    MakeSlotRef(1, TypeId::kInt64),
                                    MakeConstant(I(300)));
    return std::make_unique<SeqScanOp>(WideTable(), std::vector<int>{1, 0},
                                       std::move(filter));
  });
}

TEST(BatchDiffTest, SeqScanParamFilter) {
  Row params = {I(2)};
  ExpectModesAgree(
      [] {
        ExprPtr filter = MakeComparison(BinaryOp::kEq,
                                        MakeSlotRef(0, TypeId::kInt64),
                                        MakeParamRef(0, TypeId::kInt64));
        return std::make_unique<SeqScanOp>(SmallTable(), std::vector<int>{1},
                                           std::move(filter));
      },
      &params);
}

TEST(BatchDiffTest, FilterOverRows) {
  ExpectModesAgree([] {
    ExprPtr pred = MakeComparison(BinaryOp::kNe,
                                  MakeSlotRef(1, TypeId::kString),
                                  MakeConstant(S("b")));
    return std::make_unique<FilterOp>(
        Rows({{I(1), S("a")}, {I(3), N()}, {I(2), S("b")}, {I(4), S("d")}}, 2),
        std::move(pred));
  });
}

TEST(BatchDiffTest, ProjectComputesExpressions) {
  ExpectModesAgree([] {
    std::vector<ExprPtr> exprs;
    exprs.push_back(MakeArithmetic(BinaryOp::kMul,
                                   MakeSlotRef(0, TypeId::kInt64),
                                   MakeConstant(I(10))));
    exprs.push_back(MakeIsNull(MakeSlotRef(1, TypeId::kInt64), false));
    for (auto& e : exprs) {
      EXPECT_TRUE(InferTypes(e.get()).ok());
    }
    return std::make_unique<ProjectOp>(
        std::make_unique<SeqScanOp>(WideTable(), std::vector<int>{0, 1},
                                    nullptr),
        std::move(exprs));
  });
}

TEST(BatchDiffTest, FusedScanFilterProjectPipeline) {
  // The fused pipeline: scan -> filter (selection narrowing) -> project
  // (columnar eval through the selection).
  ExpectModesAgree([] {
    ExprPtr pred = MakeComparison(BinaryOp::kLt,
                                  MakeSlotRef(0, TypeId::kInt64),
                                  MakeConstant(I(50)));
    auto filter = std::make_unique<FilterOp>(
        std::make_unique<SeqScanOp>(WideTable(), std::vector<int>{0, 1},
                                    nullptr),
        std::move(pred));
    std::vector<ExprPtr> exprs;
    exprs.push_back(MakeArithmetic(BinaryOp::kAdd,
                                   MakeSlotRef(0, TypeId::kInt64),
                                   MakeSlotRef(1, TypeId::kInt64)));
    EXPECT_TRUE(InferTypes(exprs[0].get()).ok());
    return std::make_unique<ProjectOp>(std::move(filter), std::move(exprs));
  });
}

std::vector<ExprPtr> KeyAt(int slot) {
  std::vector<ExprPtr> keys;
  keys.push_back(MakeSlotRef(slot, TypeId::kInt64));
  return keys;
}

TEST(BatchDiffTest, HashJoinInnerWithDuplicates) {
  ExpectModesAgree([] {
    return std::make_unique<HashJoinOp>(
        Rows({{I(1), S("l1")}, {I(2), S("l2")}, {I(9), S("l9")}}, 2),
        Rows({{I(1), S("r1")}, {I(2), S("r2a")}, {I(2), S("r2b")}}, 2),
        KeyAt(0), KeyAt(0), nullptr, JoinType::kInner);
  });
}

TEST(BatchDiffTest, HashJoinLeftOuterWithResidual) {
  ExpectModesAgree([] {
    ExprPtr residual = MakeComparison(BinaryOp::kEq,
                                      MakeSlotRef(3, TypeId::kString),
                                      MakeConstant(S("r2b")));
    return std::make_unique<HashJoinOp>(
        Rows({{I(1), S("l1")}, {I(2), S("l2")}, {I(9), S("l9")}}, 2),
        Rows({{I(1), S("r1")}, {I(2), S("r2a")}, {I(2), S("r2b")}}, 2),
        KeyAt(0), KeyAt(0), std::move(residual), JoinType::kLeftOuter);
  });
}

TEST(BatchDiffTest, HashJoinNullSafeKeysRoundTripNulls) {
  // The `<=>` path: null_safe_keys marks the key position as IS NOT
  // DISTINCT FROM, so NULL must match NULL — and a NULL that round-tripped
  // through a Batch must still hash/compare identically to a tuple-path
  // NULL. A representation change (e.g. a validity bitmap that forgot to
  // restore nullness) would break exactly this test.
  ExpectModesAgree([] {
    return std::make_unique<HashJoinOp>(
        Rows({{N(), S("ln")}, {I(1), S("l1")}, {N(), S("ln2")}}, 2),
        Rows({{N(), S("rn")}, {I(1), S("r1")}, {I(2), S("r2")}}, 2),
        KeyAt(0), KeyAt(0), nullptr, JoinType::kInner,
        std::vector<bool>{true});
  });
  // And sanity-check the batch-mode answer itself: both NULL left rows must
  // find the NULL build row.
  auto join = std::make_unique<HashJoinOp>(
      Rows({{N(), S("ln")}, {I(1), S("l1")}, {N(), S("ln2")}}, 2),
      Rows({{N(), S("rn")}, {I(1), S("r1")}, {I(2), S("r2")}}, 2),
      KeyAt(0), KeyAt(0), nullptr, JoinType::kInner, std::vector<bool>{true});
  std::vector<Row> rows = DrainWith(join.get(), 1024);
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

TEST(BatchDiffTest, HashAggregateGroupedWithNullGroup) {
  ExpectModesAgree([] {
    std::vector<ExprPtr> keys;
    keys.push_back(MakeSlotRef(1, TypeId::kInt64));
    std::vector<AggSpec> aggs;
    aggs.push_back({AggKind::kCountStar, nullptr, false, TypeId::kInt64});
    AggSpec sum;
    sum.kind = AggKind::kSum;
    sum.arg = MakeSlotRef(0, TypeId::kInt64);
    sum.result_type = TypeId::kInt64;
    aggs.push_back(std::move(sum));
    return std::make_unique<HashAggregateOp>(
        Rows({{I(1), I(10)}, {I(2), N()}, {I(3), I(10)}, {I(4), N()},
              {I(5), I(20)}},
             2),
        std::move(keys), std::move(aggs));
  });
}

TEST(BatchDiffTest, ParallelScanMorselsAsBatches) {
  ExpectModesAgree([] {
    ExprPtr filter = MakeComparison(BinaryOp::kGt,
                                    MakeSlotRef(0, TypeId::kInt64),
                                    MakeConstant(I(20)));
    return std::make_unique<ParallelScanOp>(WideTable(),
                                            std::vector<int>{0, 1},
                                            std::move(filter), /*dop=*/4);
  });
}

TEST(BatchDiffTest, NestedLoopJoinViaShim) {
  ExpectModesAgree([] {
    ExprPtr pred = MakeComparison(BinaryOp::kLt,
                                  MakeSlotRef(0, TypeId::kInt64),
                                  MakeSlotRef(1, TypeId::kInt64));
    return std::make_unique<NestedLoopJoinOp>(
        Rows({{I(1)}, {I(5)}, {I(2)}}, 1), Rows({{I(3)}, {I(4)}}, 1),
        std::move(pred), JoinType::kInner);
  });
}

TEST(BatchDiffTest, SortAndDistinctViaShim) {
  ExpectModesAgree([] {
    return std::make_unique<SortOp>(
        Rows({{I(2), S("b")}, {I(1), S("z")}, {I(2), S("a")}, {N(), S("n")}},
             2),
        std::vector<std::pair<int, bool>>{{0, true}, {1, false}});
  });
  ExpectModesAgree([] {
    return std::make_unique<DistinctOp>(
        Rows({{I(1)}, {I(2)}, {I(1)}, {N()}, {N()}}, 1));
  });
}

// ---- end-to-end: SQL in, identical rows out ----

TEST(BatchE2eTest, PaperQueryIdenticalAcrossStrategiesAndBatchSizes) {
  Database db(MakeEmpDeptCatalog());
  for (Strategy strategy :
       {Strategy::kNestedIteration, Strategy::kDayal, Strategy::kMagic}) {
    QueryOptions tuple;
    tuple.strategy = strategy;
    tuple.fallback = false;
    auto baseline = db.Execute(kPaperExampleQuery, tuple);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (int batch_size : {1, 1024}) {
      QueryOptions batched = tuple;
      batched.batch_size = batch_size;
      auto got = db.Execute(kPaperExampleQuery, batched);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->rows.size(), baseline->rows.size())
          << StrategyName(strategy) << " batch_size=" << batch_size;
      for (size_t i = 0; i < got->rows.size(); ++i) {
        EXPECT_TRUE(SameRow(got->rows[i], baseline->rows[i]))
            << StrategyName(strategy) << " batch_size=" << batch_size;
      }
    }
  }
}

TEST(BatchE2eTest, BatchModeWithParallelismAndOrderBy) {
  Database db(MakeEmpDeptCatalog());
  QueryOptions tuple;
  tuple.fallback = false;
  QueryOptions batched = tuple;
  batched.batch_size = 1024;
  batched.dop = 4;
  const char* sql =
      "SELECT d.name, COUNT(*) FROM dept d, emp e "
      "WHERE d.building = e.building GROUP BY d.name ORDER BY 1";
  auto a = db.Execute(sql, tuple);
  auto b = db.Execute(sql, batched);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->rows.size(), b->rows.size());
  for (size_t i = 0; i < a->rows.size(); ++i) {
    EXPECT_TRUE(SameRow(a->rows[i], b->rows[i]));
  }
}

}  // namespace
}  // namespace decorr
