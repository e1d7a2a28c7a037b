// Per-operator profiling: the OperatorMetrics counters every Operator
// collects through the base-class Open/Next/Close wrappers, the snapshot
// tree assembled from a finished plan, and the per-phase QueryProfile
// surfaced on QueryResult.
//
// Cost model: call/row counters are plain int64 increments and are always
// collected (the same cost class as the existing ExecStats counters). Clocks
// are read only when profiling is enabled on the ExecContext; then every
// Open/Next/Close call is timed, so a parent's time always contains its
// children's and self time (total minus the children's totals) is exact.
// Unprofiled runs never read the clock.
#ifndef DECORR_EXEC_METRICS_H_
#define DECORR_EXEC_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace decorr {

class Operator;

// Raw counters owned by one Operator instance. Accumulates across re-opens
// (an Apply inner plan is opened once per outer row), which is exactly how
// inner-context work rolls up into the outer tree.
struct OperatorMetrics {
  int64_t open_calls = 0;
  int64_t next_calls = 0;  // includes the final eof-returning call
  int64_t close_calls = 0;
  int64_t rows_out = 0;  // rows produced (non-eof successful Next calls)
  // Self-reported input rows for leaves (base-table / index-entry visits);
  // operators with children report 0 and the snapshot derives rows_in from
  // the children's rows_out instead.
  int64_t rows_in_self = 0;
  // Rows of rows_in_self that only a runtime key filter rejected (access
  // paths only; see KeyFilter in exec/scan.h).
  int64_t keyfilter_rejected = 0;

  // Wall time, nanoseconds, inclusive of children (a Filter's Next includes
  // its child's Next). Zero unless profiling.
  int64_t open_nanos = 0;
  int64_t next_nanos = 0;
  int64_t close_nanos = 0;

  // Operator-specific totals, bumped by the concrete operators:
  int64_t build_rows = 0;      // rows materialized into hash tables /
                               // buffers / cached result sets
  int64_t index_probes = 0;    // probes of persistent or temporary indexes
  int64_t bytes_charged = 0;   // bytes charged to the MemoryTracker
  // Subquery memoization (an ApplyOp's binding memo): bindings served from
  // the memo, bindings that ran the inner plan, and entries dropped when a
  // full memo flushed. All zero when caching is off, so the
  // rendered output of uncached plans is unchanged.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  // Spill-to-disk (Grace partitioning): partition files created, partitioning
  // passes, and page bytes written/read through the temp-file layer. All zero
  // unless the operator actually spilled, so rendered output of in-memory
  // runs (and every golden) is unchanged.
  int64_t spill_partitions = 0;
  int64_t spill_passes = 0;
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;

  int64_t TotalNanos() const { return open_nanos + next_nanos + close_nanos; }
};

// One node of the snapshot tree: a copy of an operator's metrics plus its
// display strings and children (subplans included — Apply subqueries and
// lateral inners appear as children, so their accumulated work is visible in
// the outer tree).
struct MetricsNode {
  std::string name;    // Operator::name()
  std::string detail;  // first line of Operator::ToString (expressions etc.)
  std::string role;    // edge label from the parent ("input", "subquery 0")

  int64_t rows_in = 0;  // rows_in_self + sum of children rows_out
  int64_t rows_out = 0;
  int64_t keyfilter_rejected = 0;
  int64_t open_calls = 0;   // "loops": how often this operator was (re)opened
  int64_t next_calls = 0;
  int64_t open_nanos = 0;
  int64_t next_nanos = 0;
  int64_t close_nanos = 0;
  int64_t total_nanos = 0;
  // total_nanos minus the children's, floored at zero: a subplan shared by
  // several CachedMaterialize consumers runs once but appears under each.
  int64_t self_nanos = 0;
  int64_t build_rows = 0;
  int64_t index_probes = 0;
  int64_t bytes_charged = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t spill_partitions = 0;
  int64_t spill_passes = 0;
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;

  std::vector<MetricsNode> children;
};

// Walks the finished plan via Introspect() and snapshots every operator's
// metrics. Safe to call whether or not profiling was enabled (timings are
// zero when it was not).
MetricsNode CollectMetricsTree(const Operator& root);

// Indented plan rendering annotated with metrics, one operator per line:
//   role: detail (rows=N in=M loops=K time=Tms self=Sms)
// with keyfilter=R after in= on access paths whose key filters rejected
// rows.
// With include_timing=false the time/self/bytes fields are omitted, which
// makes the output deterministic for golden tests.
std::string RenderMetricsTree(const MetricsNode& node, bool include_timing);

// Wall-clock phase breakdown plus the operator tree for one query.
struct QueryProfile {
  // True once operator-level metrics were collected (QueryOptions::profile
  // or ExplainAnalyze). Phase timings are recorded for every query.
  bool enabled = false;

  int64_t parse_nanos = 0;
  int64_t bind_nanos = 0;
  int64_t rewrite_nanos = 0;  // strategy rewrite incl. verification steps
  int64_t plan_nanos = 0;
  int64_t exec_nanos = 0;

  // True when the server's plan cache served the prepared (bound + rewritten
  // + costed) graph: parse/bind/rewrite never ran, so their nanos are
  // exactly zero. Annotated in the EXPLAIN ANALYZE phase summary only —
  // EXPLAIN output stays byte-identical to a cold plan.
  bool plan_cache_hit = false;
  int64_t TotalNanos() const {
    return parse_nanos + bind_nanos + rewrite_nanos + plan_nanos + exec_nanos;
  }

  MetricsNode plan;  // meaningful when `enabled`

  // One-line phase summary: "parse=0.01ms bind=0.02ms ...".
  std::string PhaseSummary() const;

  // {"phases":{...},"plan":{...}} — the schema documented in DESIGN.md §8.
  std::string ToJson() const;
};

// JSON form of one metrics node (object with "children" array), reused by
// QueryProfile::ToJson and the bench harness.
std::string MetricsNodeToJson(const MetricsNode& node);

}  // namespace decorr

#endif  // DECORR_EXEC_METRICS_H_
