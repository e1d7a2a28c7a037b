// The COUNT bug, live (Section 2 of the paper).
//
// Kim's method rewrites a correlated COUNT subquery into a grouped join —
// and silently loses outer rows whose correlation value has no matching
// inner rows. This example runs the same query under nested iteration
// (ground truth), Kim's method (buggy) and magic decorrelation (fixed via
// left outer join + COALESCE), and diffs the answers.
//
//   $ ./build/examples/count_bug
#include <cstdio>

#include "decorr/runtime/database.h"

using namespace decorr;

int main() {
  Database db;
  (void)db.CreateTable(TableSchema("dept",
                                   {{"name", TypeId::kString, false},
                                    {"budget", TypeId::kInt64, false},
                                    {"num_emps", TypeId::kInt64, false},
                                    {"building", TypeId::kInt64, false}},
                                   {0}));
  (void)db.CreateTable(TableSchema("emp",
                                   {{"name", TypeId::kString, false},
                                    {"building", TypeId::kInt64, false}},
                                   {0}));
  // Department "physics" sits in building 30 — which has NO employees.
  // With budget 500 and num_emps 1 it must be an answer: 1 > COUNT(*) = 0.
  (void)db.Insert("dept",
                  {{Value::String("math"), Value::Int64(5000),
                    Value::Int64(4), Value::Int64(10)},
                   {Value::String("cs"), Value::Int64(8000), Value::Int64(6),
                    Value::Int64(10)},
                   {Value::String("physics"), Value::Int64(500),
                    Value::Int64(1), Value::Int64(30)}});
  (void)db.Insert("emp", {{Value::String("ann"), Value::Int64(10)},
                          {Value::String("bob"), Value::Int64(10)},
                          {Value::String("cat"), Value::Int64(10)}});
  (void)db.AnalyzeAll();

  const char* sql =
      "SELECT d.name FROM dept d "
      "WHERE d.budget < 10000 AND d.num_emps > "
      "  (SELECT COUNT(*) FROM emp e WHERE d.building = e.building)";
  std::printf("query:\n  %s\n", sql);

  for (Strategy s : {Strategy::kNestedIteration, Strategy::kKim,
                     Strategy::kMagic}) {
    QueryOptions options;
    options.strategy = s;
    auto result = db.Execute(sql, options);
    if (!result.ok()) {
      std::printf("%-6s error: %s\n", StrategyName(s),
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("\n%-6s answers:", StrategyName(s));
    bool has_physics = false;
    for (const Row& row : result->rows) {
      std::printf(" %s", std::string(row[0].string_value()).c_str());
      if (row[0].string_value() == "physics") has_physics = true;
    }
    if (s == Strategy::kKim && !has_physics) {
      std::printf("   <-- the COUNT bug! physics (empty building) vanished");
    }
    if (s == Strategy::kMagic && has_physics) {
      std::printf("   <-- fixed: LOJ + COALESCE(count, 0)");
    }
    std::printf("\n");
  }

  // Show the COALESCE in the decorrelated graph.
  QueryOptions magic;
  magic.strategy = Strategy::kMagic;
  magic.capture_qgm = true;
  auto result = db.Execute(sql, magic);
  std::printf("\nmagic-decorrelated query graph (note the LOJ box and "
              "COALESCE):\n%s\n", result->qgm_after.c_str());
  return 0;
}
