// CSV import/export tests plus LIKE-operator coverage (parser, evaluator,
// end-to-end, and the decorrelation path with LIKE predicates).
#include <gtest/gtest.h>

#include "decorr/expr/eval.h"
#include "decorr/parser/parser.h"
#include "decorr/runtime/csv.h"
#include "decorr/runtime/database.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

// ---- CSV parsing ----

TEST(CsvParseTest, BasicRows) {
  auto rows = ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0], "a");
  EXPECT_EQ((*rows)[1][2], "3");
}

TEST(CsvParseTest, QuotingAndEscapes) {
  auto rows = ParseCsv("\"a,b\",\"say \"\"hi\"\"\",plain\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "a,b");
  EXPECT_EQ((*rows)[0][1], "say \"hi\"");
  EXPECT_EQ((*rows)[0][2], "plain");
}

TEST(CsvParseTest, CrLfAndBlankLines) {
  auto rows = ParseCsv("a,b\r\n\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(CsvParseTest, UnterminatedQuoteRejected) {
  EXPECT_FALSE(ParseCsv("\"oops").ok());
}

TEST(CsvParseTest, MissingTrailingNewlineOk) {
  auto rows = ParseCsv("x,y");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].size(), 2u);
}

// ---- import ----

class CsvImportTest : public ::testing::Test {
 protected:
  CsvImportTest() {
    (void)db_.CreateTable(TableSchema("t",
                                      {{"k", TypeId::kInt64, false},
                                       {"name", TypeId::kString, true},
                                       {"score", TypeId::kDouble, true}},
                                      {0}));
  }
  Database db_;
};

TEST_F(CsvImportTest, ImportWithHeader) {
  auto n = ImportCsv(&db_, "t", "k,name,score\n1,alice,3.5\n2,bob,4.0\n",
                     true);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2);
  auto result = db_.Execute("SELECT name FROM t WHERE score > 3.7");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].string_value(), "bob");
}

// A column's first NULL may arrive after thousands of non-NULL rows, from a
// later import or late in one file: it is NULL to IsNull and to a scan's
// in-place filters, which would otherwise read the stored 0.0 or "".
TEST_F(CsvImportTest, FirstNullAfterNonNullRowsIsNull) {
  std::string first;
  for (int k = 0; k < 2000; ++k) {
    first += std::to_string(k) + ",n" + std::to_string(k % 10) + "," +
             std::to_string(k % 10) + ".0\n";
  }
  ASSERT_TRUE(ImportCsv(&db_, "t", first, false).ok());
  const TablePtr table = *db_.catalog().GetTable("t");
  EXPECT_FALSE(table->column(1).has_nulls());
  EXPECT_FALSE(table->column(2).has_nulls());
  // Within one file: 500 more non-NULL rows, then every third row NULL.
  std::string second;
  for (int k = 2000; k < 3000; ++k) {
    const bool null = k >= 2500 && k % 3 == 0;
    const std::string digit = std::to_string(k % 10);
    second += std::to_string(k) + "," + (null ? "" : "n" + digit) + "," +
              (null ? "" : digit + ".0") + "\n";
  }
  ASSERT_TRUE(ImportCsv(&db_, "t", second, false).ok());
  int64_t nulls = 0;
  int64_t zeros = 0;  // non-NULL score 0.0; a NULL cell stores 0.0 too
  for (int k = 0; k < 3000; ++k) {
    const bool null = k >= 2500 && k % 3 == 0;
    EXPECT_EQ(table->column(1).IsNull(k), null) << k;
    EXPECT_EQ(table->column(2).IsNull(k), null) << k;
    nulls += null;
    zeros += !null && k % 10 == 0;
  }
  auto count = [&](const std::string& sql) -> int64_t {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? static_cast<int64_t>(result->rows.size()) : -1;
  };
  EXPECT_EQ(count("SELECT k FROM t WHERE name IS NULL"), nulls);
  EXPECT_EQ(count("SELECT k FROM t WHERE score IS NOT NULL"), 3000 - nulls);
  EXPECT_EQ(count("SELECT k FROM t WHERE score = 0"), zeros);
  EXPECT_EQ(count("SELECT k FROM t WHERE score < 0.5"), zeros);
  EXPECT_EQ(count("SELECT k FROM t WHERE name IN ('', 'n0')"), zeros);
}

TEST_F(CsvImportTest, EmptyUnquotedIsNullQuotedIsEmptyString) {
  ASSERT_TRUE(ImportCsv(&db_, "t", "1,,2.0\n2,\"\",\n", false).ok());
  auto result = db_.Execute("SELECT k FROM t WHERE name IS NULL");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(result->rows[0][0].Equals(I(1)));
  auto empty = db_.Execute("SELECT k FROM t WHERE name = ''");
  ASSERT_TRUE(empty.ok());
  ASSERT_EQ(empty->rows.size(), 1u);
  EXPECT_TRUE(empty->rows[0][0].Equals(I(2)));
}

TEST_F(CsvImportTest, TypeErrorsRejected) {
  EXPECT_FALSE(ImportCsv(&db_, "t", "xx,alice,1.0\n", false).ok());
  EXPECT_FALSE(ImportCsv(&db_, "t", "1,alice\n", false).ok());  // arity
  EXPECT_FALSE(ImportCsv(&db_, "nope", "1,a,1.0\n", false).ok());
}

TEST_F(CsvImportTest, RoundTrip) {
  ASSERT_TRUE(
      ImportCsv(&db_, "t", "1,\"a,b\",1.5\n2,,2.5\n", false).ok());
  auto table = db_.catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  const std::string csv = ExportTableCsv(**table);
  Database db2;
  ASSERT_TRUE(db2.CreateTable((*table)->schema()).ok());
  auto n = ImportCsv(&db2, "t", csv, true);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2);
  auto t2 = db2.catalog().GetTable("t");
  for (size_t r = 0; r < (*table)->num_rows(); ++r) {
    EXPECT_TRUE(RowEq()((*table)->GetRow(r), (*t2)->GetRow(r)));
  }
}

TEST_F(CsvImportTest, ExportQueryResult) {
  ASSERT_TRUE(ImportCsv(&db_, "t", "1,alice,3.5\n", false).ok());
  auto result = db_.Execute("SELECT k, name FROM t");
  ASSERT_TRUE(result.ok());
  const std::string csv = ExportCsv(*result);
  EXPECT_EQ(csv, "k,name\n1,alice\n");
}

// ---- LIKE ----

TEST(LikeTest, ParserAcceptsLike) {
  auto q = ParseQuery("SELECT a FROM t WHERE a LIKE '%x_' AND b NOT LIKE 'y%'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const AstExpr& where = *(*q)->branches[0]->where;
  EXPECT_EQ(where.children[0]->kind, AstExprKind::kLike);
  EXPECT_FALSE(where.children[0]->negated);
  EXPECT_TRUE(where.children[1]->negated);
}

TEST(LikeTest, MatchingSemantics) {
  auto match = [](const char* text, const char* pattern) {
    ExprPtr e = MakeLike(MakeConstant(S(text)), MakeConstant(S(pattern)),
                         false);
    Row row;
    EvalContext ctx;
    ctx.row = &row;
    return Eval(*e, ctx).bool_value();
  };
  EXPECT_TRUE(match("STANDARD ANODIZED BRASS", "%BRASS"));
  EXPECT_FALSE(match("STANDARD ANODIZED STEEL", "%BRASS"));
  EXPECT_TRUE(match("abc", "abc"));
  EXPECT_FALSE(match("abc", "ab"));
  EXPECT_TRUE(match("abc", "a_c"));
  EXPECT_FALSE(match("abc", "a_d"));
  EXPECT_TRUE(match("abc", "%"));
  EXPECT_TRUE(match("", "%"));
  EXPECT_FALSE(match("", "_"));
  EXPECT_TRUE(match("aXbXc", "a%b%c"));
  EXPECT_TRUE(match("mississippi", "%iss%ppi"));
  EXPECT_FALSE(match("mississippi", "%issx%"));
}

TEST(LikeTest, NullPropagation) {
  Row row;
  EvalContext ctx;
  ctx.row = &row;
  ExprPtr e = MakeLike(MakeConstant(Value::Null()), MakeConstant(S("%")),
                       false);
  EXPECT_TRUE(Eval(*e, ctx).is_null());
  e = MakeLike(MakeConstant(S("x")), MakeConstant(Value::Null()), true);
  EXPECT_TRUE(Eval(*e, ctx).is_null());  // NOT LIKE of UNKNOWN is UNKNOWN
}

TEST(LikeTest, EndToEndWithDecorrelation) {
  Database db(MakeEmpDeptCatalog());
  const char* sql =
      "SELECT d.name FROM dept d WHERE d.name LIKE '%s' AND d.num_emps > "
      "(SELECT COUNT(*) FROM emp e WHERE e.building = d.building)";
  QueryOptions ni, mag;
  ni.strategy = Strategy::kNestedIteration;
  mag.strategy = Strategy::kMagic;
  auto a = db.Execute(sql, ni);
  auto b = db.Execute(sql, mag);
  ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString() << " "
                                << b.status().ToString();
  ASSERT_EQ(a->rows.size(), b->rows.size());
  // 'physics' and 'cs' end in 's'; only physics passes the count filter...
  // physics: 1 > 0 yes; cs: 6 > 3 yes.
  EXPECT_EQ(a->rows.size(), 2u);
}

TEST(LikeTest, NonStringOperandRejected) {
  Database db(MakeEmpDeptCatalog());
  auto result = db.Execute("SELECT name FROM dept WHERE budget LIKE '%1%'");
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

// ---- CASE expressions ----

TEST(CaseTest, ParserShapes) {
  auto q = ParseQuery(
      "SELECT CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' "
      "ELSE 'small' END FROM t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const AstExpr& e = *(*q)->branches[0]->items[0].expr;
  EXPECT_EQ(e.kind, AstExprKind::kCase);
  EXPECT_EQ(e.children.size(), 5u);  // 2 pairs + ELSE
  EXPECT_FALSE(ParseQuery("SELECT CASE ELSE 1 END FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT CASE WHEN a THEN 1 FROM t").ok());
}

TEST(CaseTest, EvaluationOrderAndElse) {
  Database db(MakeEmpDeptCatalog());
  auto result = db.Execute(
      "SELECT name, CASE WHEN budget < 1000 THEN 'tiny' "
      "WHEN budget < 6000 THEN 'small' ELSE 'large' END AS size "
      "FROM dept ORDER BY name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const Row& row : result->rows) {
    const std::string_view name = row[0].string_value();
    const std::string_view size = row[1].string_value();
    if (name == "physics") {
      EXPECT_EQ(size, "tiny");
    }
    if (name == "math") {
      EXPECT_EQ(size, "small");
    }
    if (name == "bio") {
      EXPECT_EQ(size, "large");
    }
  }
}

TEST(CaseTest, MissingElseYieldsNull) {
  Database db(MakeEmpDeptCatalog());
  auto result = db.Execute(
      "SELECT CASE WHEN budget < 0 THEN 1 END FROM dept LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows[0][0].is_null());
}

TEST(CaseTest, TypePromotionAcrossBranches) {
  Database db(MakeEmpDeptCatalog());
  auto result = db.Execute(
      "SELECT CASE WHEN budget > 0 THEN budget ELSE 0.5 END FROM dept "
      "LIMIT 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].type(), TypeId::kDouble);
  // Incompatible branches rejected at bind time.
  EXPECT_EQ(db.Execute("SELECT CASE WHEN budget > 0 THEN 'x' ELSE 1 END "
                       "FROM dept")
                .status()
                .code(),
            StatusCode::kBindError);
}

TEST(CaseTest, WorksInsideDecorrelatedSubquery) {
  Database db(MakeEmpDeptCatalog());
  const char* sql =
      "SELECT d.name FROM dept d WHERE d.num_emps > "
      "(SELECT SUM(CASE WHEN e.salary > 60 THEN 1 ELSE 0 END) FROM emp e "
      " WHERE e.building = d.building)";
  QueryOptions ni, mag;
  ni.strategy = Strategy::kNestedIteration;
  mag.strategy = Strategy::kMagic;
  auto a = db.Execute(sql, ni);
  auto b = db.Execute(sql, mag);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->rows.size(), b->rows.size());
}

}  // namespace
}  // namespace decorr
