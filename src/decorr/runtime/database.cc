#include "decorr/runtime/database.h"

#include <chrono>

#include "decorr/analysis/plan_verify.h"
#include "decorr/binder/binder.h"
#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/parser/parser.h"
#include "decorr/planner/cost.h"
#include "decorr/qgm/print.h"
#include "decorr/storage/temp_file.h"

namespace decorr {

namespace {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out = Join(column_names, " | ") + "\n";
  const size_t limit = std::min(rows.size(), max_rows);
  for (size_t i = 0; i < limit; ++i) {
    out += RowToString(rows[i]) + "\n";
  }
  if (limit < rows.size()) {
    out += StrFormat("... (%zu rows total)\n", rows.size());
  }
  return out;
}

Status Database::CreateTable(const TableSchema& schema) {
  return catalog_->RegisterTable(std::make_shared<Table>(schema));
}

Status Database::Insert(const std::string& table,
                        const std::vector<Row>& rows) {
  return catalog_->AppendRows(table, rows);
}

Status Database::AnalyzeAll() {
  for (const std::string& name : catalog_->TableNames()) {
    DECORR_RETURN_IF_ERROR(catalog_->RefreshStats(name));
  }
  return Status::OK();
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const QueryOptions& options) {
  return Run(sql, options, /*execute=*/true);
}

Result<QueryResult> Database::Explain(const std::string& sql,
                                      const QueryOptions& options) {
  return Run(sql, options, /*execute=*/false);
}

Result<QueryResult> Database::ExplainAnalyze(const std::string& sql,
                                             QueryOptions options) {
  options.profile = true;
  return Run(sql, options, /*execute=*/true);
}

bool NiFallbackEligible(const Status& st) {
  switch (st.code()) {
    case StatusCode::kParseError:
    case StatusCode::kBindError:
    case StatusCode::kNotFound:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kIoError:  // spill I/O failures must surface verbatim
      return false;
    default:
      return true;
  }
}

PreparedQuery PreparedQuery::Clone() const {
  PreparedQuery out;
  out.bound = std::make_unique<BoundQuery>();
  out.bound->graph = bound->graph->Clone();
  out.bound->order_by = bound->order_by;
  out.bound->limit = bound->limit;
  out.requested = requested;
  out.effective = effective;
  out.auto_notes = auto_notes;
  out.qgm_before = qgm_before;
  out.qgm_after = qgm_after;
  out.parse_nanos = parse_nanos;
  out.bind_nanos = bind_nanos;
  out.rewrite_nanos = rewrite_nanos;
  out.stats_epoch = stats_epoch;
  return out;
}

void ArmGuard(const QueryLimits& limits, ResourceGuard* guard) {
  if (limits.timeout_micros > 0) {
    guard->set_deadline_after_micros(limits.timeout_micros);
  }
  if (limits.memory_budget_bytes > 0) {
    guard->memory().set_budget(limits.memory_budget_bytes);
  }
  if (limits.row_budget > 0) guard->set_row_budget(limits.row_budget);
  if (limits.cancel) guard->set_cancel(limits.cancel);
}

void RecordGuardUsage(const ResourceGuard& guard, ExecStats* stats) {
  stats->peak_memory_bytes = guard.memory().peak();
  stats->rows_materialized = guard.rows_materialized();
}

std::string NiFallbackReason(Strategy requested, const Status& failure) {
  return StrFormat("%s rewrite failed (%s); fell back to nested iteration",
                   StrategyName(requested), failure.ToString().c_str());
}

Result<QueryResult> Database::Run(const std::string& sql,
                                  const QueryOptions& options, bool execute) {
  ResourceGuard guard;
  ArmGuard(options.limits, &guard);
  // Catch an already-tripped token or pre-expired deadline before doing any
  // work (the stride sampler always checks on the first call).
  DECORR_RETURN_IF_ERROR(guard.Check());

  bool prepared = false;
  Result<QueryResult> result =
      RunOnce(sql, options, execute, &guard, &prepared);
  if (!result.ok() && options.fallback && !prepared &&
      options.strategy != Strategy::kNestedIteration &&
      NiFallbackEligible(result.status())) {
    const Status failure = result.status();
    QueryOptions ni = options;
    ni.strategy = Strategy::kNestedIteration;
    // The failed rewrite mutated the QGM in place; RunOnce re-parses and
    // re-binds from the SQL text, so the fallback starts from a clean graph.
    result = RunOnce(sql, ni, execute, &guard, &prepared);
    if (result.ok()) {
      result->fallback_reason = NiFallbackReason(options.strategy, failure);
    }
  }
  if (result.ok()) RecordGuardUsage(guard, &result->stats);
  return result;
}

Result<QueryResult> Database::RunOnce(const std::string& sql,
                                      const QueryOptions& options,
                                      bool execute, ResourceGuard* guard,
                                      bool* prepared) {
  *prepared = false;
  DECORR_ASSIGN_OR_RETURN(PreparedQuery pq, Prepare(sql, options, guard));
  return RunPrepared(std::move(pq), options, execute, guard,
                     /*plan_cache_hit=*/false, prepared);
}

Result<PreparedQuery> Database::Prepare(const std::string& sql,
                                        const QueryOptions& options,
                                        ResourceGuard* guard,
                                        bool refresh_stale_stats) {
  PreparedQuery out;
  out.requested = options.strategy;
  int64_t mark = NowNanos();
  // Phase clock: each lap() charges the time since the previous mark to one
  // PreparedQuery phase field.
  auto lap = [&mark](int64_t* phase_nanos) {
    const int64_t now = NowNanos();
    *phase_nanos += now - mark;
    mark = now;
  };
  // Same boundary name as binder.cc's ParseAndBind convenience wrapper: one
  // logical fault site for "SQL text -> bound QGM", whichever entry point.
  DECORR_FAULT_POINT("runtime.parse_bind");
  DECORR_ASSIGN_OR_RETURN(AstQueryPtr ast, ParseQuery(sql));
  lap(&out.parse_nanos);
  DECORR_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound,
                          Bind(*ast, *catalog_));
  lap(&out.bind_nanos);
  if (options.capture_qgm) {
    out.qgm_before = PrintQgm(bound->graph.get());
  }
  RewriteSettings rewrite;
  rewrite.decorr = options.decorr;
  rewrite.prune_dedup = options.prune_dedup;
  rewrite.verify = options.verify;
  rewrite.guard = guard;
  // kAuto resolves to a concrete strategy and keeps the graph its selector
  // already rewrote for it; the rewrite verifier, the cache and prune
  // carve-outs and the planner all key off the *effective* strategy.
  Strategy effective = options.strategy;
  if (options.strategy == Strategy::kAuto) {
    // The estimates are only as good as the statistics: recompute any that
    // predate rows appended since the last refresh, and record it. (The
    // server pre-refreshes under its exclusive lock and passes
    // refresh_stale_stats=false, keeping this path read-only there.)
    std::vector<std::string> stats_notes;
    if (refresh_stale_stats) {
      for (const std::string& name : catalog_->TableNames()) {
        if (!catalog_->StatsStale(name)) continue;
        const uint64_t before = catalog_->stats_epoch();
        DECORR_RETURN_IF_ERROR(catalog_->RefreshStats(name));
        stats_notes.push_back(StrFormat(
            "auto stats refreshed: %s (epoch %llu -> %llu)", name.c_str(),
            static_cast<unsigned long long>(before),
            static_cast<unsigned long long>(catalog_->stats_epoch())));
      }
    }
    DECORR_ASSIGN_OR_RETURN(
        AutoSelection selection,
        SelectStrategy(*ast, std::move(bound), *catalog_, rewrite,
                       options.subquery_cache_bytes));
    effective = selection.choice.chosen;
    bound = std::move(selection.bound);
    out.auto_notes = std::move(selection.choice.notes);
    out.auto_notes.insert(out.auto_notes.end(), stats_notes.begin(),
                          stats_notes.end());
    out.auto_notes.push_back(
        StrFormat("auto stats epoch: %llu",
                  static_cast<unsigned long long>(catalog_->stats_epoch())));
  } else {
    DECORR_RETURN_IF_ERROR(
        RewriteForStrategy(bound->graph.get(), effective, *catalog_, rewrite));
  }
  out.effective = effective;
  if (options.capture_qgm) {
    out.qgm_after = PrintQgm(bound->graph.get());
  }
  lap(&out.rewrite_nanos);
  out.stats_epoch = catalog_->stats_epoch();
  out.bound = std::move(bound);
  return out;
}

Result<QueryResult> Database::RunPrepared(PreparedQuery prepared,
                                          const QueryOptions& options,
                                          bool execute, ResourceGuard* guard,
                                          bool plan_cache_hit,
                                          bool* plan_ready) {
  if (plan_ready != nullptr) *plan_ready = false;
  QueryResult result;
  result.profile.enabled = options.profile;
  result.profile.parse_nanos = prepared.parse_nanos;
  result.profile.bind_nanos = prepared.bind_nanos;
  result.profile.rewrite_nanos = prepared.rewrite_nanos;
  result.profile.plan_cache_hit = plan_cache_hit;
  result.qgm_before = std::move(prepared.qgm_before);
  result.qgm_after = std::move(prepared.qgm_after);
  result.effective_strategy = prepared.effective;
  int64_t mark = NowNanos();
  auto lap = [&mark](int64_t* phase_nanos) {
    const int64_t now = NowNanos();
    *phase_nanos += now - mark;
    mark = now;
  };

  PlannerOptions planner_options = options.planner;
  if (prepared.effective == Strategy::kOptMagic) {
    planner_options.materialize_common_subexpressions = true;
  }
  // Subquery memoization is forced off under plain NI so the baseline stays
  // paper-faithful (and its plans, counters and goldens stay byte-identical).
  const int64_t cache_bytes =
      prepared.effective == Strategy::kNestedIteration
          ? 0
          : options.subquery_cache_bytes;
  // Declared before the plan: operators hold SpillFiles, so the plan must be
  // destroyed before the manager that owns their scratch directory.
  std::unique_ptr<TempFileManager> temp_mgr;
  Planner planner(*catalog_, planner_options,
                  /*hoist_invariant_subplans=*/cache_bytes > 0);
  DECORR_ASSIGN_OR_RETURN(PhysicalPlan plan,
                          planner.PlanQuery(*prepared.bound));
  if (options.verify) {
    DECORR_RETURN_IF_ERROR(VerifyPlan(*plan.root));
  }
  if (plan_ready != nullptr) *plan_ready = true;
  if (!prepared.auto_notes.empty()) {
    plan.notes.insert(plan.notes.begin(), prepared.auto_notes.begin(),
                      prepared.auto_notes.end());
  }
  result.column_names = plan.column_names;
  result.plan_text = plan.ToString();
  lap(&result.profile.plan_nanos);
  if (!execute) return result;

  ExecContext ctx;
  ctx.stats = &result.stats;
  ctx.guard = guard;
  ctx.profile = options.profile;
  ctx.subquery_cache_bytes = cache_bytes;
  if (options.spill) {
    temp_mgr = std::make_unique<TempFileManager>(options.temp_dir,
                                                 options.spill_bytes);
    // A missing or unwritable temp_dir fails here, before any operator runs.
    DECORR_RETURN_IF_ERROR(temp_mgr->Open());
    ctx.temp = temp_mgr.get();
  }
  auto collected = CollectRows(plan.root.get(), &ctx);
  lap(&result.profile.exec_nanos);
  // Snapshot the operator metrics while the plan is still alive — even on
  // failure the partial tree is informative, but the error wins.
  if (options.profile) {
    result.profile.plan = CollectMetricsTree(*plan.root);
    result.analyze_text =
        RenderMetricsTree(result.profile.plan, /*include_timing=*/true) +
        result.profile.PhaseSummary() + "\n";
  }
  if (!collected.ok()) return collected.status();
  result.rows = collected.MoveValue();
  result.stats.rows_output = static_cast<int64_t>(result.rows.size());
  return result;
}

}  // namespace decorr
