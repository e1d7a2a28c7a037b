// The concrete figure/table specs of the paper reproduction, shared by the
// per-figure binaries and the `bench_figures_json` aggregator so both
// measure exactly the same thing.
//
// Ordering caveat: Fig7Database() drops the partsupp indexes from the
// shared TPC-D database for the rest of the process — the aggregator must
// run Figure 7 last.
#ifndef DECORR_BENCH_FIGURES_H_
#define DECORR_BENCH_FIGURES_H_

#include <algorithm>
#include <sstream>

#include "bench/bench_util.h"
#include "decorr/parallel/parallel.h"
#include "decorr/server/server.h"
#include "decorr/server/session.h"
#include "decorr/tpcd/queries.h"

namespace decorr {
namespace bench {

// NI first (it sets the vs_ni denominator); Auto last so every figure
// records the cost-based pick next to the hand-picked series it is graded
// against (check_bench_regression.py holds Auto within 10% of the best).
inline const std::vector<Strategy> kAllStrategies = {
    Strategy::kNestedIteration, Strategy::kNestedIterationCached,
    Strategy::kKim, Strategy::kDayal, Strategy::kMagic, Strategy::kOptMagic,
    Strategy::kAuto};

inline FigureSpec Fig5Spec() {
  return {"fig5", "Figure 5: Query 1, all indexes",
          "Mag <~ NI; Dayal < Mag (supp recompute); Kim poor", TpcdQuery1(),
          kAllStrategies};
}

inline FigureSpec Fig6Spec() {
  return {"fig6", "Figure 6: Query 1 variant (3954-ish invocations, dups)",
          "Mag good; Kim closes in; Dayal poor; NI repeats subquery work",
          TpcdQuery1Variant(), kAllStrategies};
}

inline FigureSpec Fig7Spec() {
  return {"fig7", "Figure 7: Query 1 variant, partsupp indexes dropped",
          "NI degrades sharply (expensive invocations); Mag ~ Kim stay flat",
          TpcdQuery1Variant(), kAllStrategies};
}

inline FigureSpec Fig8Spec() {
  return {"fig8", "Figure 8: Query 2 (correlation on a key, cheap subquery)",
          "OptMag ~ NI; Mag slightly worse; Kim and Dayal far worse",
          TpcdQuery2(), kAllStrategies};
}

inline FigureSpec Fig9Spec() {
  return {"fig9", "Figure 9: Query 3 (non-linear, UNION, 5 distinct bindings)",
          "Kim/Dayal not applicable; Mag >> NI (duplicate elimination)",
          TpcdQuery3(), kAllStrategies};
}

// Figure 7 condition: no index support inside the subquery. The paper
// dropped only ps_suppkey; our planner would still find the cheap
// ps_partkey path, hiding the effect, so both partsupp indexes go
// (DESIGN.md substitution note). Mutates the shared database for the rest
// of the process.
inline Database& Fig7Database() {
  static Database* db = [] {
    Database& base = TpcdDb();
    // Dropping is idempotent per process: ignore NotFound on re-entry.
    (void)base.DropIndex("partsupp", "partsupp_partkey");
    (void)base.DropIndex("partsupp", "partsupp_suppkey");
    return &base;
  }();
  return *db;
}

// ---- NI+C duplicate-factor sweep (subquery memoization payoff) ----

// Figure 5's query with the supplier filter widened in steps, correlating
// the subquery on ps.ps_partkey (identical to p.p_partkey through the join
// predicate). Correlating on the partsupp side pins the Apply above the
// (parts, suppliers, partsupp) join, so the binding stream carries one row
// per supplier offer of a part: every widening of the supplier filter
// raises the duplicate factor of the bindings — and with it the NI+C hit
// rate — while the distinct-binding count stays put. Correlating on
// p.p_partkey instead lets the planner drive the Apply straight off the
// parts scan, where bindings are already distinct and nothing can hit.
// The subquery's supplier filter widens in lockstep.
inline std::string CacheSweepQuery(const char* supplier_pred) {
  return StrFormat(R"sql(
SELECT s.s_name, s.s_acctbal, s.s_address, s.s_phone
FROM parts p, suppliers s, partsupp ps
WHERE %s AND p.p_size = 15 AND p.p_type LIKE '%%BRASS'
  AND p.p_partkey = ps.ps_partkey AND s.s_suppkey = ps.ps_suppkey
  AND ps.ps_supplycost =
    (SELECT MIN(ps1.ps_supplycost)
     FROM partsupp ps1, suppliers s1
     WHERE ps.ps_partkey = ps1.ps_partkey
       AND s1.s_suppkey = ps1.ps_suppkey
       AND %s)
)sql",
                   supplier_pred,
                   std::string(supplier_pred).replace(0, 1, "s1").c_str());
}

// `regime` documents the index condition of `db` when the sweep ran: the
// aggregator runs it once with all indexes (cheap invocations — hit rate
// rises with the duplicate factor but wall times stay close) and once
// after Figure 7 dropped the partsupp indexes (expensive invocations —
// where memoization visibly beats plain NI, as in the paper's Figure 7
// argument).
inline void WriteCacheSweep(JsonWriter& w, Database& db, const char* regime) {
  std::fprintf(stderr, "[bench] NI+C duplicate-factor sweep (%s)\n", regime);
  struct Level {
    const char* id;
    const char* pred;  // outer supplier filter; "s." becomes "s1." inside
  };
  const Level levels[] = {
      {"fig5_nation_france", "s.s_nation = 'FRANCE'"},
      {"region_europe", "s.s_region = 'EUROPE'"},
      {"two_regions", "s.s_region IN ('AMERICA', 'EUROPE')"},
      {"all_suppliers", "s.s_suppkey > 0"},
  };
  w.BeginObject();
  w.Key("title").String(
      "NI+C memoization: binding duplicate factor vs hit rate and speedup");
  w.Key("query").String(
      "Figure 5 query correlated on ps.ps_partkey, supplier filter widened "
      "per level (inner in lockstep)");
  w.Key("index_regime").String(regime);
  double dup_heavy_hit_rate = 0.0;
  double dup_heavy_speedup = 0.0;
  w.Key("levels").BeginArray();
  for (const Level& level : levels) {
    const std::string sql = CacheSweepQuery(level.pred);
    const std::vector<StrategyRun> runs = RunStrategies(
        db, sql,
        {Strategy::kNestedIteration, Strategy::kNestedIterationCached});
    const StrategyRun& ni = runs[0];
    const StrategyRun& nic = runs[1];
    w.BeginObject();
    w.Key("id").String(level.id);
    w.Key("supplier_filter").String(level.pred);
    w.Key("ok").Bool(ni.ok && nic.ok);
    if (!ni.ok || !nic.ok) {
      w.Key("error").String(!ni.ok ? ni.error : nic.error);
      w.EndObject();
      continue;
    }
    const int64_t hits = nic.stats.subquery_cache_hits;
    const int64_t misses = nic.stats.subquery_cache_misses;
    const double hit_rate =
        hits + misses > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
    const double speedup = nic.ms > 0 ? ni.ms / nic.ms : 0.0;
    w.Key("rows").Int(static_cast<int64_t>(nic.rows));
    // Correctness gate: the memoized run must return exactly NI's rows.
    w.Key("rows_match_ni").Bool(ni.rows == nic.rows);
    w.Key("ni_wall_ms").Double(ni.ms);
    w.Key("ni_cached_wall_ms").Double(nic.ms);
    w.Key("speedup_vs_ni").Double(speedup);
    w.Key("ni_subquery_invocations").Int(ni.stats.subquery_invocations);
    w.Key("ni_cached_subquery_invocations")
        .Int(nic.stats.subquery_invocations);
    w.Key("cache_hits").Int(hits);
    w.Key("cache_misses").Int(misses);
    w.Key("cache_hit_rate").Double(hit_rate);
    w.EndObject();
    if (std::strcmp(level.id, "all_suppliers") == 0) {
      dup_heavy_hit_rate = hit_rate;
      dup_heavy_speedup = speedup;
    }
    std::fprintf(stderr,
                 "[bench]   %-18s NI %8.2f ms  NI+C %8.2f ms  "
                 "hit rate %5.1f%%  speedup %.2fx\n",
                 level.id, ni.ms, nic.ms, 100.0 * hit_rate, speedup);
  }
  w.EndArray();
  // Summary the acceptance gate reads: with duplicate-heavy bindings the
  // cache must actually hit (>50%) and NI+C must beat plain NI.
  w.Key("meta").BeginObject();
  w.Key("cache_budget_bytes").Int(kDefaultSubqueryCacheBytes);
  w.Key("dup_heavy_level").String("all_suppliers");
  w.Key("dup_heavy_hit_rate").Double(dup_heavy_hit_rate);
  w.Key("dup_heavy_speedup_vs_ni").Double(dup_heavy_speedup);
  w.EndObject();
  w.EndObject();
}

// ---- Dedup-prune sweep (property-derived pruning payoff, off vs on) ----

// Figure queries whose magic rewrites carry statically redundant dedup
// work: fig6 and fig8 prune MAGIC DISTINCTs (derived keys make them no-ops,
// Rule A), fig9 additionally eliminates a whole dedup back-join (Rule B).
// Each case runs with QueryOptions::prune_dedup off then on (same strategy,
// fallback off), recording both wall times, the speedup, the EXPLAIN
// `dedup pruned:` notes proving what fired, and a rows_match_unpruned
// correctness gate the regression checker enforces.
inline void WriteDedupPruneSweep(JsonWriter& w, Database& db) {
  std::fprintf(stderr, "[bench] dedup-prune sweep\n");
  struct Case {
    const char* id;
    const char* figure;
    std::string sql;
    Strategy strategy;
  };
  const Case cases[] = {
      {"fig6_mag", "fig6", TpcdQuery1Variant(), Strategy::kMagic},
      {"fig8_mag", "fig8", TpcdQuery2(), Strategy::kMagic},
      {"fig9_mag", "fig9", TpcdQuery3(), Strategy::kMagic},
  };
  auto timed = [&db](const std::string& sql, const QueryOptions& options,
                     size_t* rows, std::string* error) {
    double best_ms = -1.0;
    for (int i = 0; i < 3; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto result = db.Execute(sql, options);
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (!result.ok()) {
        *error = result.status().ToString();
        return -1.0;
      }
      *rows = result->rows.size();
      if (best_ms < 0 || ms < best_ms) best_ms = ms;
      if (ms > 1000.0) break;
    }
    return best_ms;
  };
  w.BeginObject();
  w.Key("title").String(
      "Property-derived dedup pruning: redundant DISTINCT / back-join "
      "removal, off vs on");
  w.Key("cases").BeginArray();
  for (const Case& c : cases) {
    QueryOptions off;
    off.strategy = c.strategy;
    off.fallback = false;
    off.prune_dedup = false;
    QueryOptions on = off;
    on.prune_dedup = true;

    size_t off_rows = 0;
    size_t on_rows = 0;
    std::string error;
    const double off_ms = timed(c.sql, off, &off_rows, &error);
    const double on_ms =
        error.empty() ? timed(c.sql, on, &on_rows, &error) : -1.0;
    w.BeginObject();
    w.Key("id").String(c.id);
    w.Key("figure").String(c.figure);
    w.Key("strategy").String(StrategyName(c.strategy));
    if (!error.empty()) {
      w.Key("ok").Bool(false);
      w.Key("error").String(error);
      w.EndObject();
      continue;
    }
    w.Key("ok").Bool(true);
    w.Key("rows").Int(static_cast<int64_t>(on_rows));
    // Correctness gate the regression checker enforces: pruning must not
    // change the result cardinality.
    w.Key("rows_match_unpruned").Bool(on_rows == off_rows);
    w.Key("unpruned_wall_ms").Double(off_ms);
    w.Key("pruned_wall_ms").Double(on_ms);
    w.Key("speedup_vs_unpruned").Double(on_ms > 0 ? off_ms / on_ms : 0.0);
    // The EXPLAIN notes proving what was pruned (empty = nothing fired).
    w.Key("dedup_pruned").BeginArray();
    auto plan = db.Explain(c.sql, on);
    if (plan.ok()) {
      std::istringstream lines(plan->plan_text);
      std::string line;
      while (std::getline(lines, line)) {
        const size_t pos = line.find("dedup pruned: ");
        if (pos != std::string::npos) w.String(line.substr(pos));
      }
    }
    w.EndArray();
    w.EndObject();
    std::fprintf(stderr,
                 "[bench]   %-10s unpruned %8.2f ms  pruned %8.2f ms  "
                 "speedup %.2fx\n",
                 c.id, off_ms, on_ms, on_ms > 0 ? off_ms / on_ms : 0.0);
  }
  w.EndArray();
  w.EndObject();
}

// ---- Spill sweep (graceful degradation under memory pressure) ----

// Figure queries under Mag with spilling on, walked down a memory-budget
// ladder below each query's measured in-memory peak. Wall times, slowdowns
// and the spilled-bytes counters are telemetry (machine-dependent; the
// regression checker does not compare them). What IS enforced: every rung
// that completes must return exactly the unbounded run's row multiset, and
// at least one rung per case must complete by actually spilling — the
// graceful-degradation acceptance gate. A rung may instead surface a clean
// kResourceExhausted (some charges — the root result buffer, sort buffers,
// shared subplans — have no spill hook); it is then recorded with its error
// and skipped by the gate.
struct SpillCase {
  const char* id;
  const char* figure;
  std::string sql;
};

inline std::vector<std::string> SpillRowMultiset(
    const std::vector<Row>& rows) {
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

inline void WriteSpillSweep(JsonWriter& w, Database& db, const char* regime,
                            const std::vector<SpillCase>& cases) {
  std::fprintf(stderr, "[bench] spill sweep (%s)\n", regime);
  auto timed = [&db](const std::string& sql, const QueryOptions& options,
                     double* ms_out, QueryResult* result_out,
                     std::string* error) {
    double best_ms = -1.0;
    for (int i = 0; i < 3; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto result = db.Execute(sql, options);
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (!result.ok()) {
        *error = result.status().ToString();
        return false;
      }
      if (best_ms < 0 || ms < best_ms) {
        best_ms = ms;
        *result_out = result.MoveValue();
      }
      if (ms > 1000.0) break;
    }
    *ms_out = best_ms;
    return true;
  };
  w.BeginObject();
  w.Key("title").String(
      "Graceful degradation: Mag wall time vs memory-budget ladder, "
      "spilling on");
  w.Key("index_regime").String(regime);
  w.Key("cases").BeginArray();
  for (const SpillCase& c : cases) {
    QueryOptions unbounded;
    unbounded.strategy = Strategy::kMagic;
    unbounded.fallback = false;
    double unbounded_ms = -1.0;
    QueryResult full;
    std::string error;
    w.BeginObject();
    w.Key("id").String(c.id);
    w.Key("figure").String(c.figure);
    w.Key("strategy").String(StrategyName(Strategy::kMagic));
    if (!timed(c.sql, unbounded, &unbounded_ms, &full, &error)) {
      w.Key("ok").Bool(false);
      w.Key("error").String(error);
      w.EndObject();
      continue;
    }
    const std::vector<std::string> full_rows = SpillRowMultiset(full.rows);
    w.Key("ok").Bool(true);
    w.Key("rows").Int(static_cast<int64_t>(full.rows.size()));
    w.Key("unbounded_wall_ms").Double(unbounded_ms);
    w.Key("peak_memory_bytes").Int(full.stats.peak_memory_bytes);
    bool spilled_and_completed = false;
    w.Key("rungs").BeginArray();
    for (int pct : {75, 50, 30}) {
      const int64_t budget = full.stats.peak_memory_bytes * pct / 100;
      QueryOptions bounded = unbounded;
      bounded.spill = true;
      bounded.limits.memory_budget_bytes = budget;
      double ms = -1.0;
      QueryResult bounded_result;
      std::string rung_error;
      w.BeginObject();
      w.Key("budget_pct_of_peak").Int(pct);
      w.Key("budget_bytes").Int(budget);
      if (!timed(c.sql, bounded, &ms, &bounded_result, &rung_error)) {
        w.Key("ok").Bool(false);
        w.Key("error").String(rung_error);
        w.EndObject();
        std::fprintf(stderr, "[bench]   %s @%d%%: %s\n", c.id, pct,
                     rung_error.c_str());
        continue;
      }
      w.Key("ok").Bool(true);
      w.Key("wall_ms").Double(ms);
      w.Key("slowdown_vs_unbounded")
          .Double(unbounded_ms > 0 ? ms / unbounded_ms : 0.0);
      // Correctness gate the regression checker enforces: a spilled run
      // must return exactly the in-memory answer.
      w.Key("rows_match_unbounded")
          .Bool(SpillRowMultiset(bounded_result.rows) == full_rows);
      w.Key("spill_partitions").Int(bounded_result.stats.spill_partitions);
      w.Key("spill_bytes_written")
          .Int(bounded_result.stats.spill_bytes_written);
      w.Key("spill_bytes_read").Int(bounded_result.stats.spill_bytes_read);
      w.Key("peak_memory_bytes")
          .Int(bounded_result.stats.peak_memory_bytes);
      if (bounded_result.stats.spill_partitions > 0) {
        spilled_and_completed = true;
      }
      w.EndObject();
      std::fprintf(stderr,
                   "[bench]   %s @%d%%: %8.2f ms (%.2fx), %lld parts, "
                   "%lld B spilled\n",
                   c.id, pct, ms, unbounded_ms > 0 ? ms / unbounded_ms : 0.0,
                   (long long)bounded_result.stats.spill_partitions,
                   (long long)bounded_result.stats.spill_bytes_written);
    }
    w.EndArray();
    w.Key("spilled_and_completed").Bool(spilled_and_completed);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

// ---- Table 1: database cardinalities ----

inline void WriteTable1(JsonWriter& w, Database& db) {
  const double sf = ScaleFactor();
  struct RowSpec {
    const char* name;
    int64_t paper;  // Table 1 cardinality at SF 0.1
    int64_t expected;
  };
  const RowSpec specs[] = {
      {"customers", 15000, TpcdCustomers(sf)},
      {"parts", 20000, TpcdParts(sf)},
      {"suppliers", 1000, TpcdSuppliers(sf)},
      {"partsupp", 80000, TpcdPartsupp(sf)},
      {"lineitem", 600000, TpcdLineitem(sf)},
  };
  w.BeginObject();
  w.Key("title").String("Table 1: TPC-D database");
  w.Key("tables").BeginArray();
  for (const RowSpec& spec : specs) {
    auto table = db.catalog().GetTable(spec.name);
    const int64_t actual =
        table.ok() ? static_cast<int64_t>((*table)->num_rows()) : -1;
    w.BeginObject();
    w.Key("table").String(spec.name);
    w.Key("tuples").Int(actual);
    w.Key("expected").Int(spec.expected);
    w.Key("paper_at_sf_0_1").Int(spec.paper);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

// ---- Ablations (DESIGN.md Section 4.4 knobs + Section 5.1) ----

// An existential version of the supplier query: suppliers that offer some
// part below a cost threshold.
inline std::string AblationExistentialQuery() {
  return R"sql(
SELECT s.s_name FROM suppliers s
WHERE s.s_region = 'EUROPE' AND EXISTS
  (SELECT 1 FROM partsupp ps
   WHERE ps.ps_suppkey = s.s_suppkey AND ps.ps_supplycost < 50.0)
)sql";
}

// COUNT-bug sensitive query: parts with more offers than lineitems.
inline std::string AblationCountQuery() {
  return R"sql(
SELECT p.p_name FROM parts p
WHERE p.p_size = 15 AND p.p_retailprice >
  (SELECT COUNT(*) FROM lineitem l WHERE l.l_partkey = p.p_partkey)
)sql";
}

struct AblationSpec {
  const char* id = "";
  const char* label = "";
  std::string sql;
  QueryOptions options;
};

inline std::vector<AblationSpec> AblationSpecs() {
  std::vector<AblationSpec> specs;
  {
    AblationSpec s{"supp_recompute", "Mag: supplementary recomputed",
                   TpcdQuery1(), {}};
    s.options.strategy = Strategy::kMagic;
    specs.push_back(std::move(s));
  }
  {
    AblationSpec s{"supp_materialize", "OptMag: supplementary materialized",
                   TpcdQuery1(), {}};
    s.options.strategy = Strategy::kOptMagic;
    specs.push_back(std::move(s));
  }
  {
    AblationSpec s{"exists_decorrelated",
                   "EXISTS decorrelated (hashed temporary)",
                   AblationExistentialQuery(), {}};
    s.options.strategy = Strategy::kMagic;
    s.options.decorr.decorrelate_existentials = true;
    specs.push_back(std::move(s));
  }
  {
    AblationSpec s{"exists_nested", "EXISTS left to nested iteration",
                   AblationExistentialQuery(), {}};
    s.options.strategy = Strategy::kMagic;
    s.options.decorr.decorrelate_existentials = false;
    specs.push_back(std::move(s));
  }
  {
    AblationSpec s{"count_outer_join", "COUNT decorrelated via LOJ+COALESCE",
                   AblationCountQuery(), {}};
    s.options.strategy = Strategy::kMagic;
    s.options.decorr.use_outer_join = true;
    specs.push_back(std::move(s));
  }
  {
    AblationSpec s{"count_no_outer_join",
                   "COUNT kept correlated (no LOJ available)",
                   AblationCountQuery(), {}};
    s.options.strategy = Strategy::kMagic;
    s.options.decorr.use_outer_join = false;
    specs.push_back(std::move(s));
  }
  // Dedup-pruning knob on the query with the most redundant dedup work
  // (fig9: a prunable back-join plus a prunable MAGIC DISTINCT).
  {
    AblationSpec s{"dedup_pruning_on",
                   "Mag: redundant dedup pruned via derived keys",
                   TpcdQuery3(), {}};
    s.options.strategy = Strategy::kMagic;
    s.options.prune_dedup = true;
    specs.push_back(std::move(s));
  }
  {
    AblationSpec s{"dedup_pruning_off", "Mag: every dedup join retained",
                   TpcdQuery3(), {}};
    s.options.strategy = Strategy::kMagic;
    s.options.prune_dedup = false;
    specs.push_back(std::move(s));
  }
  return specs;
}

inline void WriteAblations(JsonWriter& w, Database& db) {
  w.BeginArray();
  for (const AblationSpec& spec : AblationSpecs()) {
    std::fprintf(stderr, "[bench] ablation %s\n", spec.id);
    double best_ms = -1.0;
    size_t rows = 0;
    ExecStats stats;
    std::string error;
    for (int i = 0; i < 3; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto result = db.Execute(spec.sql, spec.options);
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (!result.ok()) {
        error = result.status().ToString();
        break;
      }
      if (best_ms < 0 || ms < best_ms) {
        best_ms = ms;
        rows = result->rows.size();
        stats = result->stats;
      }
      if (ms > 1000.0) break;
    }
    w.BeginObject();
    w.Key("id").String(spec.id);
    w.Key("label").String(spec.label);
    if (!error.empty()) {
      w.Key("ok").Bool(false);
      w.Key("error").String(error);
    } else {
      w.Key("ok").Bool(true);
      w.Key("wall_ms").Double(best_ms);
      w.Key("rows").Int(static_cast<int64_t>(rows));
      w.Key("subquery_invocations").Int(stats.subquery_invocations);
      w.Key("rows_scanned").Int(stats.rows_scanned);
      w.Key("index_lookups").Int(stats.index_lookups);
      w.Key("peak_memory_bytes").Int(stats.peak_memory_bytes);
    }
    w.EndObject();
  }
  w.EndArray();
}

// ---- Section 6: shared-nothing parallel simulation ----

inline void WriteParallelStats(JsonWriter& w, const ParallelStats& stats) {
  w.BeginObject();
  w.Key("fragments").Int(stats.fragments);
  w.Key("messages").Int(stats.messages);
  w.Key("tuples_moved").Int(stats.tuples_moved);
  w.Key("elapsed").Double(stats.elapsed);
  w.EndObject();
}

inline void WriteParallel(JsonWriter& w) {
  std::fprintf(stderr, "[bench] section 6 parallel simulation\n");
  auto workload = MakeBuildingWorkload(/*num_outer=*/20000,
                                       /*num_inner=*/200000,
                                       /*num_buildings=*/500, /*seed=*/7);
  w.BeginObject();
  if (!workload.ok()) {
    w.Key("ok").Bool(false);
    w.Key("error").String(workload.status().ToString());
    w.EndObject();
    return;
  }
  w.Key("ok").Bool(true);
  w.Key("workload")
      .String("20000 outer tuples, 200000 inner tuples, 500 bindings");
  w.Key("points").BeginArray();
  for (int n : {2, 4, 8, 16, 32, 64}) {
    ParallelConfig config;
    config.num_nodes = n;
    ParallelStats ni = SimulateNestedIteration(*workload, config);
    ParallelStats mag = SimulateMagicDecorrelation(*workload, config);
    w.BeginObject();
    w.Key("nodes").Int(n);
    w.Key("ni");
    WriteParallelStats(w, ni);
    w.Key("mag");
    WriteParallelStats(w, mag);
    w.Key("speedup").Double(mag.elapsed > 0 ? ni.elapsed / mag.elapsed : 0);
    w.EndObject();
  }
  w.EndArray();
  // Section 6.1 "Case 1": co-partitioned tables, NI parallelizes fine.
  w.Key("copartitioned").BeginArray();
  for (int n : {8, 32}) {
    ParallelConfig config;
    config.num_nodes = n;
    config.copartitioned = true;
    ParallelStats ni = SimulateNestedIteration(*workload, config);
    ParallelStats mag = SimulateMagicDecorrelation(*workload, config);
    w.BeginObject();
    w.Key("nodes").Int(n);
    w.Key("ni");
    WriteParallelStats(w, ni);
    w.Key("mag");
    WriteParallelStats(w, mag);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

// ---- Serving-layer throughput (DESIGN.md §15) ----
//
// N client threads share one Server over the TPC-D catalog, each looping a
// mixed workload of the four figure queries under their hot strategies.
// Correctness is the gate: every served result's row multiset must equal
// the single-session reference computed up front (rows_match_single), and
// after the warm-up pass the shared plan cache must be producing hits.
// Wall time and qps are telemetry — on a 1-core container N>1 buys no
// speedup, so the regression checker ignores them and compares only the
// row-identity and hit-rate facts. Must run before Figure 7 drops the
// partsupp indexes: the reference and the served runs need one regime.

struct ServerWorkloadCase {
  const char* id;
  std::string sql;
  Strategy strategy;
};

inline std::vector<ServerWorkloadCase> ServerWorkload() {
  return {{"fig5_mag", TpcdQuery1(), Strategy::kMagic},
          {"fig6_mag", TpcdQuery1Variant(), Strategy::kMagic},
          {"fig8_optmag", TpcdQuery2(), Strategy::kOptMagic},
          {"fig9_mag", TpcdQuery3(), Strategy::kMagic}};
}

inline void WriteServerThroughput(JsonWriter& w, Database& db) {
  std::fprintf(stderr, "[bench] server throughput (shared plan cache)\n");
  const std::vector<ServerWorkloadCase> workload = ServerWorkload();

  // Single-session reference multisets, computed on the plain Database.
  std::vector<std::vector<std::string>> reference(workload.size());
  std::vector<std::string> reference_error(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryOptions options;
    options.strategy = workload[i].strategy;
    options.fallback = false;
    auto result = db.Execute(workload[i].sql, options);
    if (result.ok()) {
      reference[i] = SpillRowMultiset(result->rows);
    } else {
      reference_error[i] = result.status().ToString();
    }
  }

  w.BeginObject();
  w.Key("workload").BeginArray();
  for (size_t i = 0; i < workload.size(); ++i) {
    w.BeginObject();
    w.Key("id").String(workload[i].id);
    w.Key("strategy").String(StrategyName(workload[i].strategy));
    w.Key("ok").Bool(reference_error[i].empty());
    if (reference_error[i].empty()) {
      w.Key("reference_rows").Int(static_cast<int64_t>(reference[i].size()));
    } else {
      w.Key("error").String(reference_error[i]);
    }
    w.EndObject();
  }
  w.EndArray();

  constexpr int kPasses = 3;
  w.Key("clients").BeginArray();
  for (int clients : {1, 4, 8}) {
    // Fresh server per point: plan-cache and admission counters then
    // describe exactly this client count's run.
    ServerOptions server_options;
    server_options.max_concurrent_queries = 4;  // N=8 exercises the queue
    Server server(server_options, db.shared_catalog());

    std::vector<std::string> thread_errors(static_cast<size_t>(clients));
    std::vector<int64_t> thread_queries(static_cast<size_t>(clients), 0);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        auto session = server.Connect(StrFormat("bench-%d", t));
        for (int pass = 0; pass < kPasses; ++pass) {
          for (size_t q = 0; q < workload.size(); ++q) {
            // Rotate the starting query per thread so concurrent clients
            // collide on different fingerprints, not in lockstep.
            const size_t pick = (q + static_cast<size_t>(t)) % workload.size();
            if (!reference_error[pick].empty()) continue;
            QueryOptions options;
            options.strategy = workload[pick].strategy;
            options.fallback = false;
            auto result = session->Execute(workload[pick].sql, options);
            if (!result.ok()) {
              thread_errors[t] = StrFormat(
                  "%s: %s", workload[pick].id,
                  result.status().ToString().c_str());
              return;
            }
            if (SpillRowMultiset(result->rows) != reference[pick]) {
              thread_errors[t] = StrFormat(
                  "%s: served rows diverge from single-session reference",
                  workload[pick].id);
              return;
            }
            ++thread_queries[t];
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const auto stop = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();

    std::string error;
    int64_t total_queries = 0;
    for (int t = 0; t < clients; ++t) {
      if (error.empty() && !thread_errors[t].empty()) error = thread_errors[t];
      total_queries += thread_queries[t];
    }
    const ServerStats stats = server.stats();

    w.BeginObject();
    w.Key("clients").Int(clients);
    w.Key("ok").Bool(error.empty());
    if (!error.empty()) w.Key("error").String(error);
    w.Key("rows_match_single").Bool(error.empty());
    w.Key("queries").Int(total_queries);
    w.Key("wall_ms").Double(wall_ms);
    w.Key("qps").Double(wall_ms > 0 ? total_queries / (wall_ms / 1e3) : 0.0);
    w.Key("admitted").Int(stats.admitted);
    w.Key("queued").Int(stats.queued);
    w.Key("plan_cache_hits").Int(stats.plan_cache.hits);
    w.Key("plan_cache_misses").Int(stats.plan_cache.misses);
    w.EndObject();
    std::fprintf(stderr,
                 "[bench]   clients=%d %s\n", clients,
                 error.empty()
                     ? StrFormat("%lld queries, %.2f ms, %lld cache hits",
                                 (long long)total_queries, wall_ms,
                                 (long long)stats.plan_cache.hits).c_str()
                     : error.c_str());
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace bench
}  // namespace decorr

#endif  // DECORR_BENCH_FIGURES_H_
