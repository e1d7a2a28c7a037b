// Shared fixtures for decorr tests: the paper's EMP/DEPT example database
// (Section 2) and small helpers.
#ifndef DECORR_TESTS_TEST_UTIL_H_
#define DECORR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "decorr/catalog/catalog.h"
#include "decorr/common/value.h"
#include "decorr/storage/table.h"

namespace decorr {

inline Value I(int64_t v) { return Value::Int64(v); }
inline Value D(double v) { return Value::Double(v); }
inline Value S(std::string v) { return Value::String(std::move(v)); }
inline Value N() { return Value::Null(); }

// A directory path under ::testing::TempDir() named `name` plus this
// process's id, so two runs of one test binary at once (say, from two build
// trees) never create, sweep or remove each other's.
inline std::string ProcessScratchDir(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "-" + std::to_string(::getpid());
}

// The paper's running example (Section 2): departments in buildings;
// employees assigned to buildings. Crafted so that:
//   * dept "physics" (budget 500, num_emps 1) sits in building 30 which has
//     NO employees — the COUNT-bug probe: a correct answer set includes it.
//   * buildings 10 and 20 are shared by several departments (duplicates in
//     the correlation column).
inline std::shared_ptr<Catalog> MakeEmpDeptCatalog() {
  auto catalog = std::make_shared<Catalog>();

  TableSchema dept_schema(
      "dept",
      {{"name", TypeId::kString, false},
       {"budget", TypeId::kInt64, false},
       {"num_emps", TypeId::kInt64, false},
       {"building", TypeId::kInt64, false}},
      /*primary_key=*/{0});
  auto dept = std::make_shared<Table>(dept_schema);
  // name, budget, num_emps, building
  (void)dept->AppendRow({S("math"), I(5000), I(4), I(10)});
  (void)dept->AppendRow({S("cs"), I(8000), I(6), I(10)});
  (void)dept->AppendRow({S("ee"), I(7000), I(2), I(20)});
  (void)dept->AppendRow({S("physics"), I(500), I(1), I(30)});
  (void)dept->AppendRow({S("bio"), I(20000), I(9), I(20)});  // over budget cap
  (void)dept->AppendRow({S("chem"), I(3000), I(1), I(20)});
  (void)catalog->RegisterTable(dept);

  TableSchema emp_schema("emp",
                         {{"emp_id", TypeId::kInt64, false},
                          {"name", TypeId::kString, false},
                          {"building", TypeId::kInt64, false},
                          {"salary", TypeId::kInt64, false}},
                         /*primary_key=*/{0});
  auto emp = std::make_shared<Table>(emp_schema);
  (void)emp->AppendRow({I(1), S("ann"), I(10), I(50)});
  (void)emp->AppendRow({I(2), S("bob"), I(10), I(60)});
  (void)emp->AppendRow({I(3), S("cat"), I(10), I(70)});
  (void)emp->AppendRow({I(4), S("dan"), I(20), I(55)});
  (void)emp->AppendRow({I(5), S("eve"), I(20), I(65)});
  (void)emp->AppendRow({I(6), S("fox"), I(20), I(75)});
  (void)emp->AppendRow({I(7), S("gil"), I(20), I(45)});
  (void)emp->AppendRow({I(8), S("hal"), I(40), I(85)});  // building w/o dept
  (void)catalog->RegisterTable(emp);
  return catalog;
}

// The paper's example query (Section 2): departments of low budget with
// more employees than work in the department's building.
inline const char* kPaperExampleQuery =
    "SELECT D.name FROM Dept D "
    "WHERE D.budget < 10000 AND D.num_emps > "
    "  (SELECT COUNT(*) FROM Emp E WHERE D.building = E.building)";

// Expected answers for kPaperExampleQuery on MakeEmpDeptCatalog():
//   math: 4 > 3 (building 10 has 3 emps)      -> yes
//   cs:   6 > 3                               -> yes
//   ee:   2 > 4 (building 20 has 4 emps)      -> no
//   physics: 1 > 0 (building 30 empty)        -> yes (the COUNT-bug probe!)
//   bio: over budget                          -> no
//   chem: 1 > 4                               -> no
inline std::vector<std::string> PaperExampleAnswers() {
  return {"cs", "math", "physics"};
}

}  // namespace decorr

#endif  // DECORR_TESTS_TEST_UTIL_H_
