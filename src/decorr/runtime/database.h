// The Database façade: tables in, SQL in, rows out.
//
// Execute() runs a query under a chosen *strategy* — pure nested iteration
// or one of the decorrelation rewrites (magic decorrelation and the
// baselines the paper compares against). The strategy transforms the QGM
// before planning; the planner and executor are shared by all strategies,
// so measured differences come from the rewrites themselves, exactly as in
// the paper's Starburst experiments.
#ifndef DECORR_RUNTIME_DATABASE_H_
#define DECORR_RUNTIME_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "decorr/binder/binder.h"
#include "decorr/catalog/catalog.h"
#include "decorr/common/resource.h"
#include "decorr/exec/metrics.h"
#include "decorr/exec/operator.h"
#include "decorr/planner/planner.h"
#include "decorr/rewrite/strategy.h"

namespace decorr {

// Verification defaults on in debug builds; release builds opt in per query.
#ifdef NDEBUG
inline constexpr bool kVerifyByDefault = false;
#else
inline constexpr bool kVerifyByDefault = true;
#endif

// Default budget of each Apply's binding memo (DESIGN.md §10); a memo that
// would outgrow it flushes and starts over.
inline constexpr int64_t kDefaultSubqueryCacheBytes = 16 << 20;  // 16 MiB

// Execution guardrails for one query. Zero / null means unlimited.
struct QueryLimits {
  int64_t timeout_micros = 0;       // wall-clock deadline from Execute entry
  int64_t memory_budget_bytes = 0;  // live materialized state (hash tables,
                                    // sorts, aggregation, Apply results)
  int64_t row_budget = 0;           // total rows materialized, query-wide
  std::shared_ptr<CancellationToken> cancel;  // cooperative cancellation
};

struct QueryOptions {
  // Strategy::kAuto resolves per query: the cost model (planner/cost.h)
  // prices every applicable strategy from catalog statistics and the chosen
  // one (with its per-block estimates) is annotated into EXPLAIN. Stale
  // statistics are refreshed before pricing.
  Strategy strategy = Strategy::kNestedIteration;
  DecorrelationOptions decorr;   // knobs for magic decorrelation
  PlannerOptions planner;
  // Ignored: every query runs on one thread (DESIGN.md §9). Declared only
  // because perfbench (src/tpcd_workloads.cc) still assigns it; the next
  // change to the benchmark drops that assignment, and then this field.
  int dop = 1;
  // Per-Apply byte budget for memoizing correlated subquery results on
  // their binding key (NI+C; DESIGN.md §10): each entry's key and rows are
  // charged to it and to the query's memory budget, an entry larger than
  // the budget is used once and not kept, and one that does not fit beside
  // the others flushes the memo first. 0 disables. Plain nested
  // iteration (Strategy::kNestedIteration) never caches regardless — it is
  // the paper-faithful baseline the other strategies are measured against;
  // use Strategy::kNestedIterationCached for cached nested iteration.
  int64_t subquery_cache_bytes = kDefaultSubqueryCacheBytes;
  // Run the property-driven dedup-pruning pass (rewrite/prune.cc) after
  // decorrelation: DISTINCT flags and magic/DCO back-joins statically proven
  // redundant by derived keys are removed, and EXPLAIN reports each prune as
  // "dedup pruned: <reason>". Plain nested iteration skips the pass
  // regardless — it is the paper-faithful baseline (same carve-out as the
  // subquery cache above).
  bool prune_dedup = true;
  QueryLimits limits;
  bool capture_qgm = false;      // record before/after QGM dumps
  // Runs the semantic analyzer on the bound QGM, re-checks invariants after
  // every rewrite step, and verifies the physical plan before execution.
  bool verify = kVerifyByDefault;
  // When the chosen rewrite fails (or fails verification) before execution
  // begins, transparently re-run under nested iteration instead of surfacing
  // the error; the reason lands in QueryResult::fallback_reason. Input
  // errors (parse/bind/missing table) and guardrail trips never fall back.
  bool fallback = true;
  // Collects per-operator metrics with wall clocks (QueryResult::profile and
  // analyze_text). Phase timings are recorded regardless; this only turns on
  // the operator-level clocks.
  bool profile = false;
  // Graceful degradation under memory pressure (DESIGN.md §12). When on,
  // hash joins, hash aggregates, and DISTINCT react to a memory-budget trip
  // by Grace-partitioning their build state to checksummed temp files under
  // `temp_dir` (empty: $TMPDIR, else /tmp) instead of failing, bounded by
  // the `spill_bytes` disk budget (0: unlimited). Off, budget trips surface
  // verbatim as kResourceExhausted.
  bool spill = false;
  int64_t spill_bytes = 0;
  std::string temp_dir;
};

// A query carried through the front-end phases — parse, bind, kAuto cost
// selection, strategy rewrite, dedup pruning, validation — but not yet
// planned. This is the unit the server's plan cache stores: everything the
// fingerprinted QueryOptions determine is already folded in, and what
// remains (planning + execution) is per-run. Planning mutates the graph
// destructively, so a cached PreparedQuery is Clone()d per execution.
struct PreparedQuery {
  std::unique_ptr<BoundQuery> bound;
  Strategy requested = Strategy::kNestedIteration;
  // The concrete strategy after kAuto resolution (== requested otherwise);
  // planner carve-outs (OptMag materialization, the NI cache ban) key off
  // this.
  Strategy effective = Strategy::kNestedIteration;
  std::vector<std::string> auto_notes;  // cost-selector EXPLAIN annotations
  std::string qgm_before;               // filled when capture_qgm
  std::string qgm_after;
  // Front-end phase timings, carried into QueryProfile by RunPrepared. A
  // plan-cache hit path zeroes them: the phases genuinely did not run.
  int64_t parse_nanos = 0;
  int64_t bind_nanos = 0;
  int64_t rewrite_nanos = 0;
  // Catalog statistics epoch this query was prepared (and, for kAuto,
  // costed) at. A cache entry whose epoch trails the catalog is stale.
  uint64_t stats_epoch = 0;

  // Deep copy (graph clone included).
  PreparedQuery Clone() const;
};

// True when a prepare-phase failure with this status may transparently fall
// back to nested iteration: errors a different strategy can plausibly avoid.
// Input errors (parse/bind/missing table) and guardrail trips would recur
// identically under NI and surface verbatim. Shared by Database::Run and the
// server's cached execution path.
bool NiFallbackEligible(const Status& st);

struct QueryResult {
  std::vector<Row> rows;
  std::vector<std::string> column_names;
  ExecStats stats;
  std::string plan_text;        // physical plan (EXPLAIN)
  std::string qgm_before;       // filled when capture_qgm is set
  std::string qgm_after;
  std::string fallback_reason;  // why the NI fallback ran (empty: it didn't)
  // The concrete strategy that ran: the requested one, kAuto's pick, or NI
  // when the fallback ran.
  Strategy effective_strategy = Strategy::kNestedIteration;
  // Phase timings (always) and the per-operator metrics tree (when
  // QueryOptions::profile / ExplainAnalyze); JSON-serializable via ToJson().
  QueryProfile profile;
  // Annotated plan (EXPLAIN ANALYZE rendering); filled when profiling.
  std::string analyze_text;

  std::string ToString(size_t max_rows = 50) const;
};

// The three steps around one query's run that Database::Run and the
// server share.
//
// Arms `guard` with `limits`: the deadline (counted from now), the memory
// and row budgets, and the cancellation token when one is given.
void ArmGuard(const QueryLimits& limits, ResourceGuard* guard);
// Records what `guard` measured over the whole query, every attempt
// included, in `stats`: peak memory and rows materialized.
void RecordGuardUsage(const ResourceGuard& guard, ExecStats* stats);
// QueryResult::fallback_reason for a `requested` rewrite that failed with
// `failure` and was run again under nested iteration.
std::string NiFallbackReason(Strategy requested, const Status& failure);

class Database {
 public:
  Database() : catalog_(std::make_shared<Catalog>()) {}
  explicit Database(std::shared_ptr<Catalog> catalog)
      : catalog_(std::move(catalog)) {}

  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  // Shared ownership of the catalog, for façades (the server) layered over
  // the same tables.
  const std::shared_ptr<Catalog>& shared_catalog() const { return catalog_; }

  // Creates an empty table.
  Status CreateTable(const TableSchema& schema);

  // Appends rows to a table and rebuilds its indexes (Catalog::AppendRows);
  // statistics refresh on the next AnalyzeAll().
  Status Insert(const std::string& table, const std::vector<Row>& rows);

  // Recomputes statistics for every table (call after bulk loads).
  Status AnalyzeAll();

  Status CreateIndex(const std::string& table, const std::string& index,
                     const std::vector<std::string>& columns) {
    return catalog_->CreateIndex(table, index, columns);
  }
  Status DropIndex(const std::string& table, const std::string& index) {
    return catalog_->DropIndex(table, index);
  }

  // Parses, binds, rewrites per strategy, plans, executes.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryOptions& options = {});

  // Like Execute but stops after planning (no rows).
  Result<QueryResult> Explain(const std::string& sql,
                              const QueryOptions& options = {});

  // Executes with operator-level profiling forced on; the result's
  // analyze_text holds the annotated plan (rows, loops, per-operator time)
  // and result.profile the structured form.
  Result<QueryResult> ExplainAnalyze(const std::string& sql,
                                     QueryOptions options = {});

  // Front-end only: parse, bind, then rewrite, prune and validate
  // (RewriteForStrategy). kAuto first refreshes stale statistics unless
  // `refresh_stale_stats` is off (the server pre-refreshes under its
  // exclusive lock so this stays read-only under concurrency), and keeps
  // the graph its selector rewrote for the pick (SelectStrategy). The
  // result can be handed to RunPrepared — or cached and cloned per run.
  // `guard` is polled between rewrite steps, trial rewrites included.
  Result<PreparedQuery> Prepare(const std::string& sql,
                                const QueryOptions& options,
                                ResourceGuard* guard,
                                bool refresh_stale_stats = true);

  // Back-end: plan (and verify) `prepared`, then execute. Consumes
  // `prepared` — planning mutates the graph. `plan_cache_hit` only annotates
  // the profile / EXPLAIN ANALYZE output; EXPLAIN text is identical either
  // way. `*plan_ready` (optional) flips to true once the plan has been
  // verified, i.e. execution is about to begin — the point past which the NI
  // fallback no longer applies.
  Result<QueryResult> RunPrepared(PreparedQuery prepared,
                                  const QueryOptions& options, bool execute,
                                  ResourceGuard* guard, bool plan_cache_hit,
                                  bool* plan_ready = nullptr);

 private:
  Result<QueryResult> Run(const std::string& sql, const QueryOptions& options,
                          bool execute);
  // One prepare+execute attempt under `guard`; `*prepared` flips to true
  // once the plan has been verified (i.e. execution is about to begin).
  Result<QueryResult> RunOnce(const std::string& sql,
                              const QueryOptions& options, bool execute,
                              ResourceGuard* guard, bool* prepared);

  std::shared_ptr<Catalog> catalog_;
};

}  // namespace decorr

#endif  // DECORR_RUNTIME_DATABASE_H_
