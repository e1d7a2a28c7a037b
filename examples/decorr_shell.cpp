// Interactive SQL shell over the decorr serving layer: one Server (shared
// plan cache, admission controller) with a single interactive session.
//
//   $ ./build/examples/decorr_shell
//   decorr> \load tpcd 0.01
//   decorr> \strategy mag
//   decorr> SELECT COUNT(*) FROM parts WHERE p_type LIKE '%BRASS';
//
// Meta commands:
//   \load tpcd [sf]   load the TPC-D database at a scale factor
//   \load empdept     load the paper's EMP/DEPT example
//   \strategy X       ni | ni_cached | kim | dayal | ganski | mag | optmag |
//                     auto (cost-based selection; EXPLAIN shows the pick)
//   \cache N          subquery memoization cache budget in bytes
//                     (0 disables; plain NI never caches)
//   \memory N         memory budget in bytes (0 = unlimited); trips surface
//                     as ResourceExhausted unless spilling is on
//   \spill on|off [DISK_BYTES]
//                     spill hash state to temp files when the memory budget
//                     trips (DISK_BYTES bounds scratch space; 0 = unlimited)
//   \explain SQL      show the physical plan instead of executing
//   \analyze SQL      execute with profiling; show per-operator rows/time
//                     (repeats annotate "plan cache: hit" in the summary)
//   \qgm SQL          show the query graph before/after the rewrite
//   \tables           list tables
//   \sessions         list server sessions and their counters
//   \plancache        show shared plan-cache contents and hit/miss counters
//   \timing on|off    toggle wall-clock reporting
//   \quit
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "decorr/runtime/database.h"
#include "decorr/server/server.h"
#include "decorr/server/session.h"
#include "decorr/tpcd/tpcd.h"

using namespace decorr;

namespace {

Status LoadEmpDept(Database* db) {
  DECORR_RETURN_IF_ERROR(
      db->CreateTable(TableSchema("dept",
                                  {{"name", TypeId::kString, false},
                                   {"budget", TypeId::kInt64, false},
                                   {"num_emps", TypeId::kInt64, false},
                                   {"building", TypeId::kInt64, false}},
                                  {0})));
  DECORR_RETURN_IF_ERROR(
      db->CreateTable(TableSchema("emp",
                                  {{"emp_id", TypeId::kInt64, false},
                                   {"name", TypeId::kString, false},
                                   {"building", TypeId::kInt64, false},
                                   {"salary", TypeId::kInt64, false}},
                                  {0})));
  DECORR_RETURN_IF_ERROR(db->Insert(
      "dept", {{Value::String("math"), Value::Int64(5000), Value::Int64(4),
                Value::Int64(10)},
               {Value::String("cs"), Value::Int64(8000), Value::Int64(6),
                Value::Int64(10)},
               {Value::String("physics"), Value::Int64(500), Value::Int64(1),
                Value::Int64(30)}}));
  DECORR_RETURN_IF_ERROR(db->Insert(
      "emp", {{Value::Int64(1), Value::String("ann"), Value::Int64(10),
               Value::Int64(50)},
              {Value::Int64(2), Value::String("bob"), Value::Int64(10),
               Value::Int64(60)},
              {Value::Int64(3), Value::String("cat"), Value::Int64(10),
               Value::Int64(70)}}));
  return db->AnalyzeAll();
}

bool ParseStrategy(const std::string& name, Strategy* out) {
  if (name == "ni") *out = Strategy::kNestedIteration;
  else if (name == "ni_cached") *out = Strategy::kNestedIterationCached;
  else if (name == "kim") *out = Strategy::kKim;
  else if (name == "dayal") *out = Strategy::kDayal;
  else if (name == "ganski") *out = Strategy::kGanskiWong;
  else if (name == "mag") *out = Strategy::kMagic;
  else if (name == "optmag") *out = Strategy::kOptMagic;
  else if (name == "auto") *out = Strategy::kAuto;
  else return false;
  return true;
}

}  // namespace

int main() {
  Server server;
  std::shared_ptr<Session> session = server.Connect("shell");
  Strategy strategy = Strategy::kMagic;
  long long cache_bytes = kDefaultSubqueryCacheBytes;
  long long memory_bytes = 0;
  bool spill = false;
  long long spill_bytes = 0;
  bool timing = true;

  std::printf("decorr shell — magic decorrelation engine\n");
  std::printf("type SQL (end with ;), or \\load tpcd 0.01, \\strategy mag, "
              "\\quit\n");

  std::string buffer;
  std::string line;
  std::printf("decorr> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line[0] == '\\') {
      std::istringstream iss(line.substr(1));
      std::string cmd;
      iss >> cmd;
      if (cmd == "quit" || cmd == "q") break;
      if (cmd == "load") {
        std::string what;
        iss >> what;
        Status st;
        if (what == "tpcd") {
          TpcdConfig config;
          double sf = 0.01;
          if (iss >> sf) config.scale_factor = sf;
          st = server.Mutate(
              [&config](Database& db) { return LoadTpcd(&db, config); });
        } else if (what == "empdept") {
          st = server.Mutate([](Database& db) { return LoadEmpDept(&db); });
        } else {
          std::printf("usage: \\load tpcd [sf] | \\load empdept\n");
        }
        if (!st.ok()) std::printf("%s\n", st.ToString().c_str());
      } else if (cmd == "strategy") {
        std::string name;
        iss >> name;
        if (!ParseStrategy(name, &strategy)) {
          std::printf(
              "strategies: ni ni_cached kim dayal ganski mag optmag auto\n");
        } else {
          std::printf("strategy = %s\n", StrategyName(strategy));
        }
      } else if (cmd == "cache") {
        long long n = -1;
        if (iss >> n && n >= 0) {
          cache_bytes = n;
          std::printf("subquery cache = %lld bytes%s\n", cache_bytes,
                      cache_bytes == 0 ? " (off)" : "");
        } else {
          std::printf("usage: \\cache BYTES (0 disables)\n");
        }
      } else if (cmd == "memory") {
        long long n = -1;
        if (iss >> n && n >= 0) {
          memory_bytes = n;
          std::printf("memory budget = %lld bytes%s\n", memory_bytes,
                      memory_bytes == 0 ? " (unlimited)" : "");
        } else {
          std::printf("usage: \\memory BYTES (0 = unlimited)\n");
        }
      } else if (cmd == "spill") {
        std::string v;
        iss >> v;
        if (v == "on" || v == "off") {
          spill = (v == "on");
          long long n = 0;
          if (iss >> n && n >= 0) spill_bytes = n;
          if (spill) {
            std::printf("spill = on, disk budget = %lld bytes%s\n",
                        spill_bytes, spill_bytes == 0 ? " (unlimited)" : "");
          } else {
            std::printf("spill = off\n");
          }
        } else {
          std::printf("usage: \\spill on|off [DISK_BYTES]\n");
        }
      } else if (cmd == "tables") {
        std::printf("%s", server.catalog().ToString().c_str());
      } else if (cmd == "sessions") {
        std::printf("%s", server.DescribeSessions().c_str());
      } else if (cmd == "plancache") {
        std::printf("%s", server.DescribePlanCache().c_str());
      } else if (cmd == "timing") {
        std::string v;
        iss >> v;
        timing = (v != "off");
      } else if (cmd == "analyze") {
        std::string sql;
        std::getline(iss, sql);
        QueryOptions options;
        options.strategy = strategy;
            options.subquery_cache_bytes = cache_bytes;
        options.limits.memory_budget_bytes = memory_bytes;
        options.spill = spill;
        options.spill_bytes = spill_bytes;
        auto result = session->ExplainAnalyze(sql, options);
        if (!result.ok()) {
          std::printf("%s\n", result.status().ToString().c_str());
        } else {
          // analyze_text already ends with the phase-summary line.
          std::printf("%s", result->analyze_text.c_str());
        }
      } else if (cmd == "explain" || cmd == "qgm") {
        std::string sql;
        std::getline(iss, sql);
        QueryOptions options;
        options.strategy = strategy;
            options.subquery_cache_bytes = cache_bytes;
        options.capture_qgm = (cmd == "qgm");
        auto result = session->Explain(sql, options);
        if (!result.ok()) {
          std::printf("%s\n", result.status().ToString().c_str());
        } else if (cmd == "qgm") {
          std::printf("--- before ---\n%s--- after %s ---\n%s",
                      result->qgm_before.c_str(), StrategyName(strategy),
                      result->qgm_after.c_str());
        } else {
          std::printf("%s", result->plan_text.c_str());
        }
      } else {
        std::printf("unknown meta command: \\%s\n", cmd.c_str());
      }
      std::printf("decorr> ");
      std::fflush(stdout);
      continue;
    }

    buffer += line + "\n";
    if (buffer.find(';') == std::string::npos) {
      std::printf("   ...> ");
      std::fflush(stdout);
      continue;
    }
    QueryOptions options;
    options.strategy = strategy;
    options.subquery_cache_bytes = cache_bytes;
    options.limits.memory_budget_bytes = memory_bytes;
    options.spill = spill;
    options.spill_bytes = spill_bytes;
    const auto start = std::chrono::steady_clock::now();
    auto result = session->Execute(buffer, options);
    const auto stop = std::chrono::steady_clock::now();
    buffer.clear();
    if (!result.ok()) {
      std::printf("%s\n", result.status().ToString().c_str());
    } else {
      std::printf("%s", result->ToString().c_str());
      if (timing) {
        std::printf(
            "(%zu rows, %.2f ms, %lld subquery invocations, %s)\n",
            result->rows.size(),
            std::chrono::duration<double, std::milli>(stop - start).count(),
            (long long)result->stats.subquery_invocations,
            StrategyName(strategy));
      }
    }
    std::printf("decorr> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
