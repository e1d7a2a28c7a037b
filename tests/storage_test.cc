#include <gtest/gtest.h>

#include <limits>

#include "decorr/catalog/catalog.h"
#include "decorr/catalog/schema.h"
#include "decorr/catalog/statistics.h"
#include "decorr/runtime/database.h"
#include "decorr/storage/hash_index.h"
#include "decorr/storage/table.h"
#include "tests/test_util.h"

namespace decorr {
namespace {

TableSchema TwoColSchema() {
  return TableSchema("t", {{"k", TypeId::kInt64, false},
                           {"s", TypeId::kString, true}},
                     {0});
}

// ---- Schema ----

TEST(SchemaTest, FindColumnIsCaseInsensitive) {
  TableSchema schema = TwoColSchema();
  EXPECT_EQ(schema.FindColumn("K").value(), 0);
  EXPECT_EQ(schema.FindColumn("s").value(), 1);
  EXPECT_FALSE(schema.FindColumn("nope").has_value());
}

TEST(SchemaTest, IsKey) {
  TableSchema schema = TwoColSchema();
  EXPECT_TRUE(schema.IsKey({0}));
  EXPECT_TRUE(schema.IsKey({0, 1}));
  EXPECT_FALSE(schema.IsKey({1}));
  TableSchema keyless("u", {{"a", TypeId::kInt64, true}});
  EXPECT_FALSE(keyless.IsKey({0}));
}

// ---- Table ----

TEST(TableTest, AppendAndRead) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({I(1), S("one")}).ok());
  ASSERT_TRUE(t.AppendRow({I(2), N()}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.GetValue(0, 0).Equals(I(1)));
  EXPECT_TRUE(t.GetValue(1, 1).is_null());
  Row r = t.GetRow(0);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r[1].string_value(), "one");
}

TEST(TableTest, ArityMismatchRejected) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.AppendRow({I(1)}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, TypeMismatchRejected) {
  Table t(TwoColSchema());
  EXPECT_FALSE(t.AppendRow({S("oops"), S("x")}).ok());
  EXPECT_EQ(t.num_rows(), 0u);  // rejected rows leave no partial state
}

TEST(TableTest, IntCoercesToDoubleColumn) {
  Table t(TableSchema("d", {{"v", TypeId::kDouble, false}}));
  ASSERT_TRUE(t.AppendRow({I(5)}).ok());
  EXPECT_TRUE(t.GetValue(0, 0).Equals(D(5.0)));
  EXPECT_EQ(t.GetValue(0, 0).type(), TypeId::kDouble);
}

TEST(ColumnTest, RawAccessors) {
  Column col(TypeId::kInt64);
  col.Append(I(10));
  col.Append(N());
  EXPECT_EQ(col.size(), 2u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.Int64At(0), 10);
}

// A column keeps no null map until its first NULL, which may arrive after
// any number of non-NULL rows.
TEST(ColumnTest, FirstNullAfterNonNullRowsIsNull) {
  for (TypeId type : {TypeId::kInt64, TypeId::kDouble, TypeId::kString,
                      TypeId::kBool}) {
    const Value cell = type == TypeId::kInt64    ? I(7)
                       : type == TypeId::kDouble ? D(7.5)
                       : type == TypeId::kString ? S("seven")
                                                 : Value::Bool(true);
    Column col(type);
    for (int i = 0; i < 2500; ++i) col.Append(cell);
    EXPECT_FALSE(col.has_nulls());
    EXPECT_FALSE(col.IsNull(2499));
    col.Append(N());
    col.Append(cell);
    col.Append(N());
    ASSERT_EQ(col.size(), 2503u);
    EXPECT_TRUE(col.has_nulls());
    for (size_t r = 0; r < col.size(); ++r) {
      EXPECT_EQ(col.IsNull(r), r == 2500 || r == 2502) << TypeName(type) << r;
      EXPECT_EQ(col.GetValue(r).is_null(), r == 2500 || r == 2502);
    }
    EXPECT_TRUE(col.GetValue(2501).Equals(cell));
  }
}

// ---- HashIndex ----

TEST(HashIndexTest, SingleColumnLookup) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({I(1), S("a")}).ok());
  ASSERT_TRUE(t.AppendRow({I(2), S("b")}).ok());
  ASSERT_TRUE(t.AppendRow({I(1), S("c")}).ok());
  HashIndex index(t, {0});
  EXPECT_EQ(index.Lookup({I(1)}).size(), 2u);
  EXPECT_EQ(index.Lookup({I(2)}).size(), 1u);
  EXPECT_TRUE(index.Lookup({I(99)}).empty());
  EXPECT_EQ(index.num_distinct_keys(), 2u);
}

TEST(HashIndexTest, NullKeysNotIndexed) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({I(1), N()}).ok());
  ASSERT_TRUE(t.AppendRow({I(2), S("x")}).ok());
  ASSERT_TRUE(t.AppendRow({I(3), N()}).ok());
  ASSERT_TRUE(t.AppendRow({I(4), S("x")}).ok());
  HashIndex index(t, {1});
  EXPECT_EQ(index.num_distinct_keys(), 1u);
  EXPECT_TRUE(index.Lookup({N()}).empty());
  const auto ids = index.Lookup({S("x")});
  EXPECT_EQ(std::vector<uint32_t>(ids.begin(), ids.end()),
            (std::vector<uint32_t>{1, 3}));
}

TEST(HashIndexTest, IdsComeBackAscendingPerKey) {
  Table t(TwoColSchema());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.AppendRow({I((i * 7) % 13), S("v")}).ok());
  }
  HashIndex index(t, {0});
  EXPECT_EQ(index.num_distinct_keys(), 13u);
  size_t total = 0;
  for (int k = 0; k < 13; ++k) {
    const auto ids = index.Lookup({I(k)});
    ASSERT_FALSE(ids.empty());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(t.GetValue(ids[i], 0).Equals(I(k)));
      if (i > 0) {
        EXPECT_LT(ids[i - 1], ids[i]);
      }
    }
    total += ids.size();
  }
  EXPECT_EQ(total, 1000u);
  // Lookups compare like hash keys: a DOUBLE finds its equal INT64.
  EXPECT_EQ(index.Lookup({D(5.0)}).size(), index.Lookup({I(5)}).size());
  // A key of the wrong arity matches nothing.
  EXPECT_TRUE(index.Lookup({I(5), I(5)}).empty());
}

// Row ids whose column `col` equals `key` (never for a NULL key), ascending:
// what the chained index answered.
std::vector<uint32_t> ScanFor(const Table& t, int col, const Value& key) {
  std::vector<uint32_t> ids;
  if (key.is_null() || key.type() == TypeId::kBool ||
      key.type() == TypeId::kString) {
    return ids;  // never equal to an INT64 cell
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const Value cell = t.GetValue(r, col);
    if (!cell.is_null() && cell.Equals(key)) {
      ids.push_back(static_cast<uint32_t>(r));
    }
  }
  return ids;
}

// A one-column index over dense INT64 keys looks them up by offset; its
// answers are the chained index's, also after Database::Insert rebuilds it
// over a wider key range or over a NULL key.
TEST(HashIndexTest, DirectLookupsGiveTheChainedAnswers) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"k", TypeId::kInt64, true},
                                                {"v", TypeId::kInt64, false}}))
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 600; ++i) {
    rows.push_back({I((i * 37) % 200), I(i)});  // keys 0..199
  }
  ASSERT_TRUE(db.Insert("t", rows).ok());
  ASSERT_TRUE(db.CreateIndex("t", "t_k", {"k"}).ok());
  const TablePtr table = *db.catalog().GetTable("t");
  auto index = [&] { return db.catalog().FindIndexCoveredBy("t", {0}); };
  auto check = [&](const char* stage) {
    // A NULL probe must not find key 0 (a NULL cell's stored payload).
    std::vector<Value> probes = {N(),       Value::Bool(false), S("150"),
                                 D(150.0),  D(150.5),           D(-0.0),
                                 D(1e19),   I(1000000),
                                 I(std::numeric_limits<int64_t>::min())};
    for (int64_t k = -5; k < 205; ++k) probes.push_back(I(k));
    const std::shared_ptr<HashIndex> idx = index();
    for (const Value& probe : probes) {
      const auto ids = idx->Lookup({probe});
      EXPECT_EQ(std::vector<uint32_t>(ids.begin(), ids.end()),
                ScanFor(*table, 0, probe))
          << stage << ": probe " << probe.ToString();
    }
  };
  EXPECT_TRUE(index()->direct());
  check("dense");
  // A NULL key is not indexed; the range stays dense.
  ASSERT_TRUE(db.Insert("t", {{N(), I(600)}, {I(0), I(601)}}).ok());
  EXPECT_TRUE(index()->direct());
  check("NULL key");
  // One far key widens the range past kDirectSpan times the key count.
  ASSERT_TRUE(db.Insert("t", {{I(1000000), I(602)}}).ok());
  EXPECT_FALSE(index()->direct());
  check("widened");
}

TEST(HashIndexTest, MultiColumnKey) {
  Table t(TableSchema("m", {{"a", TypeId::kInt64, false},
                            {"b", TypeId::kInt64, false}}));
  ASSERT_TRUE(t.AppendRow({I(1), I(1)}).ok());
  ASSERT_TRUE(t.AppendRow({I(1), I(2)}).ok());
  HashIndex index(t, {0, 1});
  EXPECT_EQ(index.Lookup({I(1), I(2)}).size(), 1u);
  EXPECT_TRUE(index.Lookup({I(2), I(1)}).empty());
}

// ---- Statistics ----

TEST(StatsTest, ComputeStats) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({I(1), S("a")}).ok());
  ASSERT_TRUE(t.AppendRow({I(2), S("a")}).ok());
  ASSERT_TRUE(t.AppendRow({I(2), N()}).ok());
  TableStats stats = ComputeStats(t);
  EXPECT_EQ(stats.row_count, 3u);
  EXPECT_EQ(stats.columns[0].distinct_count, 2u);
  EXPECT_EQ(stats.columns[1].distinct_count, 1u);
  EXPECT_EQ(stats.columns[1].null_count, 1u);
  EXPECT_TRUE(stats.columns[0].min.Equals(I(1)));
  EXPECT_TRUE(stats.columns[0].max.Equals(I(2)));
}

TEST(StatsTest, Selectivities) {
  Table t(TwoColSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({I(i % 5), S("x")}).ok());
  }
  TableStats stats = ComputeStats(t);
  EXPECT_DOUBLE_EQ(stats.EqualitySelectivity(0), 1.0 / 5.0);
  EXPECT_GT(stats.RangeSelectivity(0), 0.0);
}

// ---- Catalog ----

TEST(CatalogTest, RegisterAndLookup) {
  auto catalog = MakeEmpDeptCatalog();
  auto dept = catalog->GetTable("DEPT");
  ASSERT_TRUE(dept.ok());
  EXPECT_EQ((*dept)->num_rows(), 6u);
  EXPECT_FALSE(catalog->GetTable("nope").ok());
}

TEST(CatalogTest, DuplicateRejected) {
  auto catalog = MakeEmpDeptCatalog();
  auto dup = std::make_shared<Table>(TableSchema("dept", {{"x", TypeId::kInt64,
                                                           false}}));
  EXPECT_EQ(catalog->RegisterTable(dup).code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, StatsComputedOnRegister) {
  auto catalog = MakeEmpDeptCatalog();
  const CatalogEntry* entry = catalog->FindEntry("emp");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->stats.row_count, 8u);
  EXPECT_EQ(entry->stats.columns[2].distinct_count, 3u);  // buildings 10/20/40
}

TEST(CatalogTest, CreateAndDropIndex) {
  auto catalog = MakeEmpDeptCatalog();
  ASSERT_TRUE(catalog->CreateIndex("emp", "emp_building", {"building"}).ok());
  auto idx = catalog->FindIndexCoveredBy("emp", {2});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup({I(10)}).size(), 3u);
  EXPECT_EQ(catalog->CreateIndex("emp", "emp_building", {"building"}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog->DropIndex("emp", "emp_building").ok());
  EXPECT_EQ(catalog->FindIndexCoveredBy("emp", {2}), nullptr);
}

TEST(CatalogTest, FindIndexCoveredByPrefersWiderIndex) {
  auto catalog = MakeEmpDeptCatalog();
  ASSERT_TRUE(catalog->CreateIndex("emp", "i1", {"building"}).ok());
  ASSERT_TRUE(catalog->CreateIndex("emp", "i2", {"building", "salary"}).ok());
  auto idx = catalog->FindIndexCoveredBy("emp", {2, 3});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->key_columns().size(), 2u);
  // Only single-column available for {2}.
  auto idx1 = catalog->FindIndexCoveredBy("emp", {2});
  ASSERT_NE(idx1, nullptr);
  EXPECT_EQ(idx1->key_columns().size(), 1u);
}

TEST(CatalogTest, IndexOnUnknownColumnFails) {
  auto catalog = MakeEmpDeptCatalog();
  EXPECT_EQ(catalog->CreateIndex("emp", "bad", {"nope"}).code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, DropTable) {
  auto catalog = MakeEmpDeptCatalog();
  ASSERT_TRUE(catalog->DropTable("emp").ok());
  EXPECT_FALSE(catalog->GetTable("emp").ok());
  EXPECT_EQ(catalog->DropTable("emp").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace decorr
