#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <set>
#include <string>
#include <thread>

#include "decorr/common/fault.h"
#include "decorr/common/key_table.h"
#include "decorr/common/resource.h"
#include "decorr/common/rng.h"
#include "decorr/common/status.h"
#include "decorr/common/string_util.h"
#include "decorr/common/types.h"
#include "decorr/common/value.h"

namespace decorr {
namespace {

// ---- Status ----

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("no such table: foo");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "no such table: foo");
  EXPECT_EQ(st.ToString(), "NotFound: no such table: foo");
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_EQ(b.code(), StatusCode::kInternal);
}

TEST(StatusTest, EveryCodeHasAName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kBindError), "BindError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kExecutionError), "ExecutionError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
}

TEST(StatusTest, GuardrailFactories) {
  Status c = Status::Cancelled("stop");
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_EQ(c.ToString(), "Cancelled: stop");
  Status d = Status::DeadlineExceeded("late");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.message(), "late");
  Status r = Status::ResourceExhausted("budget");
  EXPECT_EQ(r.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.ToString(), "ResourceExhausted: budget");
}

TEST(StatusTest, CopySharesRepAndOutlivesOriginal) {
  Status copy;
  {
    Status original = Status::ResourceExhausted("budget blown");
    copy = original;
  }  // `original` destroyed; the shared Rep keeps the message alive
  EXPECT_EQ(copy.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(copy.message(), "budget blown");
  Status ok_copy = copy = Status::OK();  // reassignment drops the Rep
  EXPECT_TRUE(copy.ok());
  EXPECT_TRUE(ok_copy.ok());
  EXPECT_EQ(ok_copy.code(), StatusCode::kOk);
}

// ---- Resource governance ----

TEST(MemoryTrackerTest, ChargesAgainstBudget) {
  MemoryTracker t;
  t.set_budget(100);
  EXPECT_TRUE(t.Charge(60).ok());
  EXPECT_EQ(t.used(), 60);
  Status st = t.Charge(50);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(t.used(), 110);  // over-budget charge still recorded...
  t.Release(110);            // ...so callers release symmetrically
  EXPECT_EQ(t.used(), 0);
  EXPECT_EQ(t.peak(), 110);
}

TEST(MemoryTrackerTest, UnlimitedByDefaultAndReleaseClamps) {
  MemoryTracker t;
  EXPECT_TRUE(t.Charge(1'000'000'000).ok());
  t.Release(2'000'000'000);
  EXPECT_EQ(t.used(), 0);
}

TEST(CancellationTokenTest, CancelAfterChecksTripsOnNthPoll) {
  CancellationToken token;
  token.CancelAfterChecks(3);
  EXPECT_FALSE(token.Poll());
  EXPECT_FALSE(token.Poll());
  EXPECT_TRUE(token.Poll());  // third poll trips
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.Poll());  // and it stays tripped
}

TEST(ResourceGuardTest, RowBudgetExceeded) {
  ResourceGuard g;
  g.set_row_budget(3);
  EXPECT_TRUE(g.ChargeRows(3).ok());
  Status st = g.ChargeRows(1);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("row budget"), std::string::npos);
  EXPECT_EQ(g.rows_materialized(), 4);
}

TEST(ResourceGuardTest, ExpiredDeadlineFailsOnFirstCheck) {
  ResourceGuard g;
  g.set_deadline_after_micros(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(g.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(ResourceGuardTest, CancellationPolledOnEveryCheck) {
  auto token = std::make_shared<CancellationToken>();
  ResourceGuard g;
  g.set_cancel(token);
  EXPECT_TRUE(g.Check().ok());
  token->Cancel();
  EXPECT_EQ(g.Check().code(), StatusCode::kCancelled);
}

// ---- Fault injection ----

// The injector is process-global; every test leaves it disarmed.
class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

Status HitTwice(const char* site) {
  DECORR_FAULT_POINT(site);
  DECORR_FAULT_POINT(site);
  return Status::OK();
}

TEST_F(FaultInjectorTest, InactiveByDefault) {
  EXPECT_FALSE(FaultInjector::Global().active());
  EXPECT_TRUE(HitTwice("test.site").ok());
  EXPECT_TRUE(FaultInjector::Global().Sites().empty());
}

TEST_F(FaultInjectorTest, RecordingCountsSites) {
  FaultInjector& fi = FaultInjector::Global();
  fi.EnableRecording();
  EXPECT_TRUE(HitTwice("test.a").ok());
  EXPECT_TRUE(HitTwice("test.b").ok());
  EXPECT_EQ(fi.HitCount("test.a"), 2);
  EXPECT_EQ(fi.HitCount("test.b"), 2);
  EXPECT_EQ(fi.Sites(), (std::vector<std::string>{"test.a", "test.b"}));
}

TEST_F(FaultInjectorTest, ArmedSiteFailsAfterSkip) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm("test.a", Status::Internal("injected"), /*skip=*/1);
  Status st = HitTwice("test.a");  // first hit skipped, second fails
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "injected");
  EXPECT_TRUE(HitTwice("test.other").ok());  // other sites unaffected
}

TEST_F(FaultInjectorTest, RandomFaultingIsDeterministic) {
  FaultInjector& fi = FaultInjector::Global();
  auto first_failure = [&](uint64_t seed) {
    fi.Reset();
    fi.ArmRandom(seed, /*period=*/7, Status::Internal("chaos"));
    for (int i = 0; i < 1000; ++i) {
      Status st = HitTwice("test.site");
      if (!st.ok()) return i;
    }
    return -1;
  };
  const int a = first_failure(42);
  const int b = first_failure(42);
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0) << "period 7 over 2000 hits should fault at least once";
}

Result<int> ReturnsValue() { return 42; }
Result<int> ReturnsError() { return Status::InvalidArgument("nope"); }

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ReturnsValue();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = ReturnsError();
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

Status UsesReturnIfError(bool fail) {
  DECORR_RETURN_IF_ERROR(fail ? Status::Internal("inner") : Status::OK());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(false).ok());
  EXPECT_EQ(UsesReturnIfError(true).code(), StatusCode::kInternal);
}

Result<int> UsesAssignOrReturn(bool fail) {
  DECORR_ASSIGN_OR_RETURN(int v, fail ? ReturnsError() : ReturnsValue());
  return v + 1;
}

TEST(ResultTest, AssignOrReturn) {
  Result<int> ok = UsesAssignOrReturn(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 43);
  EXPECT_FALSE(UsesAssignOrReturn(true).ok());
}

// ---- Types ----

TEST(TypesTest, Names) {
  EXPECT_STREQ(TypeName(TypeId::kInt64), "INT64");
  EXPECT_STREQ(TypeName(TypeId::kString), "STRING");
  EXPECT_STREQ(TypeName(TypeId::kNull), "NULL");
}

TEST(TypesTest, Coercibility) {
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kInt64, TypeId::kInt64));
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kNull, TypeId::kString));
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kInt64, TypeId::kDouble));
  EXPECT_FALSE(IsImplicitlyCoercible(TypeId::kDouble, TypeId::kInt64));
  EXPECT_FALSE(IsImplicitlyCoercible(TypeId::kString, TypeId::kInt64));
}

TEST(TypesTest, CommonType) {
  bool ok = false;
  EXPECT_EQ(CommonType(TypeId::kInt64, TypeId::kDouble, &ok), TypeId::kDouble);
  EXPECT_TRUE(ok);
  EXPECT_EQ(CommonType(TypeId::kNull, TypeId::kString, &ok), TypeId::kString);
  EXPECT_TRUE(ok);
  CommonType(TypeId::kString, TypeId::kInt64, &ok);
  EXPECT_FALSE(ok);
}

// ---- Value ----

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_TRUE(v.Equals(Value::Null()));
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Int64(7).int64_value(), 7);
  EXPECT_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("hi").string_value(), "hi");
  EXPECT_TRUE(Value::Bool(true).bool_value());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int64(4).Compare(Value::Double(4.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(10.0).Compare(Value::Int64(9)), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(-100)), 0);
  EXPECT_GT(Value::Int64(-100).Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value::Int64(4).Hash(), Value::Double(4.0).Hash());
  EXPECT_EQ(Value::String("k").Hash(), Value::String("k").Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("a'b").ToString(), "'a'b'");
  EXPECT_EQ(Value::Bool(false).ToString(), "FALSE");
}

// Distinct text of each length: inline up to Value::kInlineCapacity (22)
// bytes, on the heap beyond.
std::string TextOfLength(size_t n) {
  std::string text(n, ' ');
  for (size_t i = 0; i < n; ++i) text[i] = static_cast<char>('a' + i % 26);
  return text;
}

TEST(ValueTest, StringsRoundTripThroughCopiesAndMoves) {
  const size_t lengths[] = {0, 1, 22, 23, 1000};
  for (size_t n : lengths) {
    const std::string text = TextOfLength(n);
    const Value v = Value::String(text);
    EXPECT_EQ(v.string_value(), text) << n;
    Value copy(v);
    EXPECT_EQ(copy.string_value(), text) << n;
    EXPECT_EQ(v.string_value(), text) << n;
    const Value moved(std::move(copy));
    EXPECT_EQ(moved.string_value(), text) << n;
    // Self-assignment keeps the value.
    Value self = v;
    const Value& alias = self;
    self = alias;
    EXPECT_EQ(self.string_value(), text) << n;
  }
  // Assignment between every pair of lengths: inline to heap, heap to
  // inline, heap to heap, and over a number.
  for (size_t from : lengths) {
    for (size_t to : lengths) {
      const std::string text = TextOfLength(to);
      const Value source = Value::String(text);
      Value copied = Value::String(TextOfLength(from));
      copied = source;
      EXPECT_EQ(copied.string_value(), text) << from << " <- " << to;
      EXPECT_EQ(source.string_value(), text) << from << " <- " << to;
      Value moved = Value::String(TextOfLength(from));
      Value donor = source;
      moved = std::move(donor);
      EXPECT_EQ(moved.string_value(), text) << from << " <- " << to;
    }
    Value number = Value::Int64(7);
    number = Value::String(TextOfLength(from));
    EXPECT_EQ(number.string_value(), TextOfLength(from));
    number = Value::Double(1.5);
    EXPECT_EQ(number.double_value(), 1.5);
  }
}

TEST(ValueTest, StringOrderEqualityAndHashAreStdStrings) {
  const std::string prefix = TextOfLength(22);
  const std::vector<std::string> texts = {
      "",
      "a",
      "ab",
      std::string("a\0b", 3),
      std::string("a\0c", 3),
      std::string("a\0", 2),
      prefix.substr(0, 21),
      prefix,
      prefix + "x",  // 23 bytes, sharing 22 with the next two
      prefix + "y",
      prefix + std::string("\0", 1),
      prefix + TextOfLength(100),
  };
  for (const std::string& a : texts) {
    const Value va = Value::String(a);
    EXPECT_EQ(va.Hash(), Value::HashString(a));
    for (const std::string& b : texts) {
      const Value vb = Value::String(b);
      const int expected = a.compare(b);
      const int got = va.Compare(vb);
      EXPECT_EQ(got < 0, expected < 0) << RowToString({va, vb});
      EXPECT_EQ(got > 0, expected > 0) << RowToString({va, vb});
      EXPECT_EQ(va.Equals(vb), a == b) << RowToString({va, vb});
      if (a == b) {
        EXPECT_EQ(va.Hash(), vb.Hash());
      }
    }
  }
}

TEST(ValueTest, MemoryChargeCountsHeapBytesOnly) {
  EXPECT_EQ(ApproxValueBytes(Value::Int64(1)), 24);
  EXPECT_EQ(ApproxValueBytes(Value::String("")), 24);
  EXPECT_EQ(ApproxValueBytes(Value::String(TextOfLength(22))), 24);
  EXPECT_EQ(ApproxValueBytes(Value::String(TextOfLength(23))), 24 + 23);
  EXPECT_EQ(ApproxValueBytes(Value::String(TextOfLength(1000))), 24 + 1000);
  Row row = {Value::String(TextOfLength(22)), Value::String(TextOfLength(40))};
  row.shrink_to_fit();
  EXPECT_EQ(ApproxRowBytes(row),
            static_cast<int64_t>(sizeof(Row)) + 2 * 24 + 40);
}

TEST(RowTest, HashAndEquality) {
  Row a = {Value::Int64(1), Value::String("x")};
  Row b = {Value::Int64(1), Value::String("x")};
  Row c = {Value::Int64(2), Value::String("x")};
  EXPECT_TRUE(RowEq()(a, b));
  EXPECT_FALSE(RowEq()(a, c));
  EXPECT_EQ(RowHash()(a), RowHash()(b));
}

TEST(RowTest, NullsEqualInRowKeys) {
  // DISTINCT / GROUP BY treat NULLs as equal; RowEq must too.
  Row a = {Value::Null()};
  Row b = {Value::Null()};
  EXPECT_TRUE(RowEq()(a, b));
  EXPECT_EQ(RowHash()(a), RowHash()(b));
}

// ---- KeyTable ----

uint32_t Put(KeyTable* table, const Row& key, bool* inserted = nullptr) {
  bool fresh = false;
  const uint32_t id = table->Insert(key, &fresh);
  if (inserted != nullptr) *inserted = fresh;
  return id;
}

TEST(KeyTableTest, HashIsRowHash) {
  for (const Row& key : {Row{}, Row{Value::Int64(7)},
                         Row{Value::Null(), Value::String("s")},
                         Row{Value::Double(2.5), Value::Bool(true)}}) {
    EXPECT_EQ(KeyTable::Hash(key.data(), key.size()), RowHash()(key));
  }
}

TEST(KeyTableTest, DuplicateKeysKeepTheirFirstInsertionId) {
  KeyTable table(1);
  bool inserted = false;
  EXPECT_EQ(Put(&table, {Value::Int64(5)}, &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(Put(&table, {Value::Int64(9)}, &inserted), 1u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(Put(&table, {Value::Int64(5)}, &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(Put(&table, {Value::Int64(2)}, &inserted), 2u);
  EXPECT_EQ(Put(&table, {Value::Int64(9)}, &inserted), 1u);
  EXPECT_FALSE(inserted);
  // Ids, and so the order callers emit groups in, follow first insertion.
  ASSERT_EQ(table.size(), 3u);
  EXPECT_TRUE(RowEq()(table.KeyRow(0), {Value::Int64(5)}));
  EXPECT_TRUE(RowEq()(table.KeyRow(1), {Value::Int64(9)}));
  EXPECT_TRUE(RowEq()(table.KeyRow(2), {Value::Int64(2)}));
}

TEST(KeyTableTest, NullKeyEqualsNullKey) {
  KeyTable table(2);
  const uint32_t id = Put(&table, {Value::Null(), Value::Int64(1)});
  EXPECT_EQ(table.Find({Value::Null(), Value::Int64(1)}), id);
  EXPECT_EQ(table.Find({Value::Null(), Value::Int64(2)}), KeyTable::kNotFound);
  EXPECT_EQ(table.Find({Value::Int64(1), Value::Null()}), KeyTable::kNotFound);
}

TEST(KeyTableTest, Int64MatchesEqualDouble) {
  KeyTable table(1);
  const uint32_t id = Put(&table, {Value::Int64(4)});
  EXPECT_EQ(table.Find({Value::Double(4.0)}), id);
  EXPECT_EQ(table.Find({Value::Double(4.5)}), KeyTable::kNotFound);
  bool inserted = true;
  EXPECT_EQ(Put(&table, {Value::Double(4.0)}, &inserted), id);
  EXPECT_FALSE(inserted);
}

TEST(KeyTableTest, MultiColumnKeysDifferingInOneColumnStayApart) {
  KeyTable table(3);
  const Row a = {Value::Int64(1), Value::String("x"), Value::Int64(7)};
  const Row b = {Value::Int64(1), Value::String("y"), Value::Int64(7)};
  const Row c = {Value::Int64(1), Value::String("x"), Value::Int64(8)};
  const Row d = {Value::Int64(2), Value::String("x"), Value::Int64(7)};
  EXPECT_EQ(Put(&table, a), 0u);
  EXPECT_EQ(Put(&table, b), 1u);
  EXPECT_EQ(Put(&table, c), 2u);
  EXPECT_EQ(Put(&table, d), 3u);
  EXPECT_EQ(table.Find(a), 0u);
  EXPECT_EQ(table.Find(b), 1u);
  EXPECT_EQ(table.Find(c), 2u);
  EXPECT_EQ(table.Find(d), 3u);
  // Equal hashes do not make keys equal: every column is compared (here a
  // probe for (1, 'x', 8) carries the hash of (1, 'x', 7)).
  const Row e = {Value::Int64(1), Value::String("x"), Value::Int64(8)};
  KeyTable only_a(3);
  Put(&only_a, a);
  EXPECT_EQ(only_a.Find(e.data(), KeyTable::Hash(a.data(), a.size())),
            KeyTable::kNotFound);
}

TEST(KeyTableTest, StringKeys) {
  KeyTable table(1);
  const std::string long_name(40, 'n');  // on the heap
  EXPECT_EQ(Put(&table, {Value::String("")}), 0u);
  EXPECT_EQ(Put(&table, {Value::String("abc")}), 1u);
  EXPECT_EQ(Put(&table, {Value::String(long_name)}), 2u);
  EXPECT_EQ(table.Find({Value::String("abc")}), 1u);
  EXPECT_EQ(table.Find({Value::String(long_name)}), 2u);
  EXPECT_EQ(table.Find({Value::String("")}), 0u);
  EXPECT_EQ(table.Find({Value::String("abd")}), KeyTable::kNotFound);
  EXPECT_EQ(table.key(2)[0].string_value(), long_name);
}

TEST(KeyTableTest, StringKeysAtTheInlineBoundSurviveGrowth) {
  // Keys of 22 (inline) and 23 or more (heap) bytes, through enough
  // inserts that the key array is reallocated many times.
  KeyTable table(1);
  constexpr int kKeys = 3000;
  auto text = [](int i) {
    const size_t lengths[] = {22, 23, 40};
    std::string out = StrFormat("%d-", i);
    out.resize(lengths[i % 3], '.');
    return out;
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(Put(&table, {Value::String(text(i))}),
              static_cast<uint32_t>(i));
  }
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.Find({Value::String(text(i))}), static_cast<uint32_t>(i));
    EXPECT_EQ(table.key(static_cast<uint32_t>(i))[0].string_value(),
              text(i));
  }
  EXPECT_EQ(table.Find({Value::String(text(1) + "!")}), KeyTable::kNotFound);
}

TEST(KeyTableTest, EveryKeyFoundAfterGrowthThroughManyRehashes) {
  KeyTable table(2);
  constexpr int64_t kKeys = 150000;  // about 13 directory doublings
  for (int64_t i = 0; i < kKeys; ++i) {
    bool inserted = false;
    ASSERT_EQ(Put(&table, {Value::Int64(i), Value::String(std::to_string(i))},
                  &inserted),
              static_cast<uint32_t>(i));
    ASSERT_TRUE(inserted);
  }
  ASSERT_EQ(table.size(), static_cast<size_t>(kKeys));
  for (int64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(table.Find({Value::Int64(i), Value::String(std::to_string(i))}),
              static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.Find({Value::Int64(kKeys), Value::String("0")}),
            KeyTable::kNotFound);
  // Clear() forgets every key; the table is reusable at once.
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find({Value::Int64(3), Value::String("3")}),
            KeyTable::kNotFound);
  EXPECT_EQ(Put(&table, {Value::Int64(3), Value::String("3")}), 0u);
  EXPECT_EQ(table.Find({Value::Int64(3), Value::String("3")}), 0u);
}

TEST(KeyTableTest, ZeroWidthKeysAreOneGroup) {
  KeyTable table(0);
  EXPECT_EQ(Put(&table, {}), 0u);
  EXPECT_EQ(Put(&table, {}), 0u);
  EXPECT_EQ(table.size(), 1u);
}

// Direct addressing (FinishBuild) must give exactly the chained answers:
// the same ids for every probe Value::Equals matches, the same misses for
// every other. Each key set is inserted in one random order into two
// tables, only one of them finished.
TEST(KeyTableTest, DirectAddressingGivesTheChainedIdsAndMisses) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kExact = int64_t{1} << 53;
  Rng rng(1801);
  auto range = [](int64_t lo, int64_t n) {
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < n; ++i) keys.push_back(lo + i);
    return keys;
  };
  auto sample = [&](int64_t lo, int64_t hi, int n) {
    std::set<int64_t> keys;
    while (static_cast<int>(keys.size()) < n) keys.insert(rng.Uniform(lo, hi));
    return std::vector<int64_t>(keys.begin(), keys.end());
  };
  struct Case {
    const char* name;
    std::vector<int64_t> keys;
    bool null_key;
    bool direct;
  };
  const std::vector<Case> cases = {
      {"dense", range(1, 2000), false, true},
      {"dense with NULL", range(1, 2000), true, true},
      {"sparse", sample(-300, 3000, 500), false, true},
      {"negative", sample(-5000, -4000, 400), true, true},
      {"one key", {42}, false, true},
      {"edge of exact doubles", range(kExact - 299, 300), false, true},
      {"just beyond exact doubles", range(kExact + 1, 300), false, false},
      {"too sparse", sample(0, 100000, 500), false, false},
      {"dense beyond exact doubles", range(kMax - 299, 300), false, false},
      {"dense at INT64_MIN", range(kMin, 300), true, false},
      {"INT64_MIN..INT64_MAX", {kMin, -1, 0, 1, kMax}, false, false},
  };
  for (const Case& c : cases) {
    std::vector<Value> keys;
    for (int64_t k : c.keys) keys.push_back(Value::Int64(k));
    if (c.null_key) keys.push_back(Value::Null());
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.Uniform(0, static_cast<int64_t>(i) - 1)]);
    }
    KeyTable chained(1);
    KeyTable direct(1);
    for (const Value& key : keys) {
      Put(&chained, {key});
      Put(&direct, {key});
    }
    direct.FinishBuild();
    EXPECT_EQ(direct.direct(), c.direct) << c.name;
    EXPECT_FALSE(chained.direct()) << c.name;

    std::vector<Value> probes = {
        Value::Null(), Value::Bool(true), Value::Bool(false),
        Value::String("1"), Value::Int64(kMin), Value::Int64(kMax),
        Value::Double(0.0), Value::Double(-0.0), Value::Double(0.5),
        Value::Double(static_cast<double>(kExact)),
        Value::Double(static_cast<double>(kExact) + 2.0),
        Value::Double(static_cast<double>(kMax)),
        Value::Double(static_cast<double>(kMin)), Value::Double(1e300),
        Value::Double(-std::numeric_limits<double>::infinity())};
    for (int64_t k : c.keys) {
      for (int64_t d : {-1, 0, 1}) {
        // Wrapping sums probe the far end of the key space.
        const int64_t v = static_cast<int64_t>(static_cast<uint64_t>(k) +
                                               static_cast<uint64_t>(d));
        probes.push_back(Value::Int64(v));
        probes.push_back(Value::Double(static_cast<double>(v)));
      }
      probes.push_back(Value::Double(static_cast<double>(k) + 0.5));
      probes.push_back(Value::Double(static_cast<double>(k) - 0.25));
    }
    for (int i = 0; i < 200; ++i) {
      probes.push_back(Value::Int64(static_cast<int64_t>(rng.Next())));
    }
    int found = 0;
    for (const Value& probe : probes) {
      const uint32_t want = chained.Find(Row{probe});
      ASSERT_EQ(direct.Find(Row{probe}), want)
          << c.name << ": probe " << probe.ToString();
      if (want != KeyTable::kNotFound) ++found;
    }
    EXPECT_GE(found, static_cast<int>(c.keys.size())) << c.name;
    // Ids and the keys behind them are unchanged.
    ASSERT_EQ(direct.size(), chained.size()) << c.name;
    for (uint32_t id = 0; id < direct.size(); ++id) {
      EXPECT_TRUE(direct.key(id)->Equals(*chained.key(id))) << c.name;
    }
    // Clear() ends direct addressing; the table refills as a chained one.
    direct.Clear();
    EXPECT_FALSE(direct.direct()) << c.name;
    EXPECT_EQ(direct.Find(Row{keys[0]}), KeyTable::kNotFound) << c.name;
    EXPECT_EQ(Put(&direct, {Value::Int64(7)}), 0u) << c.name;
    EXPECT_EQ(direct.Find(Row{Value::Int64(7)}), 0u) << c.name;
  }
}

TEST(KeyTableTest, OnlyOneColumnInt64TablesGoDirect) {
  KeyTable doubles(1);
  Put(&doubles, {Value::Int64(1)});
  Put(&doubles, {Value::Double(2.0)});
  doubles.FinishBuild();
  EXPECT_FALSE(doubles.direct());
  EXPECT_EQ(doubles.Find(Row{Value::Int64(2)}), 1u);

  KeyTable strings(1);
  Put(&strings, {Value::String("a")});
  strings.FinishBuild();
  EXPECT_FALSE(strings.direct());

  KeyTable nulls_only(1);
  Put(&nulls_only, {Value::Null()});
  nulls_only.FinishBuild();
  EXPECT_FALSE(nulls_only.direct());
  EXPECT_EQ(nulls_only.Find(Row{Value::Null()}), 0u);

  KeyTable wide(2);
  Put(&wide, {Value::Int64(1), Value::Int64(2)});
  wide.FinishBuild();
  EXPECT_FALSE(wide.direct());
  EXPECT_EQ(wide.Find({Value::Int64(1), Value::Int64(2)}), 0u);
}

// ---- Rng ----

TEST(RngTest, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(99);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// ---- Strings ----

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("from"), "FROM");
  EXPECT_TRUE(EqualsIgnoreCase("Dept", "DEPT"));
  EXPECT_FALSE(EqualsIgnoreCase("Dept", "Dep"));
}

TEST(StringUtilTest, JoinAndFormat) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(Repeat("ab", 3), "ababab");
}

}  // namespace
}  // namespace decorr
