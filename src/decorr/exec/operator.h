// Physical operator interface: a tuple-at-a-time (Volcano-style) iterator
// tree. Operators are produced by the planner (decorr/planner); expressions
// inside operators are planned (column refs carry flat slots, correlated
// references are parameter refs).
#ifndef DECORR_EXEC_OPERATOR_H_
#define DECORR_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decorr/common/resource.h"
#include "decorr/common/status.h"
#include "decorr/common/value.h"
#include "decorr/exec/metrics.h"

namespace decorr {

struct Expr;
struct KeyFilter;
class Operator;
class TempFileManager;

// Structural self-description of one operator, filled in by Introspect()
// and consumed by the physical-plan verifier (decorr/analysis/plan_verify.h).
// Operators report where their expressions are evaluated (and over which
// row arity), which subplans they open (and with how many parameters),
// where correlation parameters are drawn from, which expression pairs must
// be type-comparable (join keys), and which plain column ordinals must be
// in range.
struct PlanIntrospection {
  // A subplan opened with a fresh parameter scope inherits the enclosing
  // scope instead when num_params == kInheritParams.
  static constexpr int kInheritParams = -1;

  struct ExprSite {
    const Expr* expr = nullptr;
    int input_width = 0;  // arity of the row the expression is evaluated over
    std::string role;     // "filter", "left key 0", ... for error messages
  };
  struct Subplan {
    const Operator* op = nullptr;
    int num_params = kInheritParams;
    std::string role;
  };
  struct ParamBinding {  // one correlation parameter fed to a subplan
    bool from_outer = false;  // drawn from the enclosing parameter scope
    int index = 0;            // slot in the input row / outer param index
    int input_width = 0;      // arity of the input row it may draw from
    std::string role;
  };
  struct KeyPair {  // join keys whose types must share a common type
    const Expr* left = nullptr;
    const Expr* right = nullptr;
  };
  struct OrdinalSite {  // a column ordinal that must satisfy 0 <= ord < width
    int ordinal = 0;
    int width = 0;
    std::string role;
  };

  std::vector<Subplan> children;
  std::vector<ExprSite> exprs;
  std::vector<ParamBinding> params;
  std::vector<KeyPair> key_pairs;
  std::vector<OrdinalSite> ordinals;
};

// Counters used by tests (invocation counts mirror the paper's reported
// numbers) and by the EXPLAIN ANALYZE-style output.
struct ExecStats {
  int64_t rows_scanned = 0;          // base-table rows visited
  int64_t index_lookups = 0;         // index probes
  int64_t subquery_invocations = 0;  // Apply inner executions (paper metric)
  int64_t rows_output = 0;           // rows produced at the root
  int64_t peak_memory_bytes = 0;     // high-water mark of tracked state
  int64_t rows_materialized = 0;     // rows buffered by blocking operators
  // Subquery memoization (NI+C): inner invocations skipped because the
  // correlation binding was already cached, and lookups that had to run the
  // inner plan. Zero under plain nested iteration (NI never caches).
  int64_t subquery_cache_hits = 0;
  int64_t subquery_cache_misses = 0;
  // Spill-to-disk (Grace partitioning under memory pressure): partition
  // files created, partitioning passes (initial spills + recursive
  // repartitions), and page bytes moved through the temp-file layer. All
  // zero when spilling is off or never triggered.
  int64_t spill_partitions = 0;
  int64_t spill_passes = 0;
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;
};

// Per-execution context threaded through Open(). `params` carries the
// correlation bindings of the innermost enclosing Apply; `guard` (optional)
// enforces cancellation, deadlines and row/memory budgets and is shared by
// every nested context of the same query; `profile` turns operator clocks
// on and, like the guard, must be propagated into every nested context
// (Apply/lateral inner executions).
struct ExecContext {
  const Row* params = nullptr;
  ExecStats* stats = nullptr;
  ResourceGuard* guard = nullptr;
  bool profile = false;
  // Budget of each ApplyOp's binding memo (exec/apply.h); <= 0 disables
  // memoizing correlated inners. Like guard/profile this must be propagated
  // into every nested context so nested Applies memoize too.
  int64_t subquery_cache_bytes = 0;
  // Spill-to-disk scratch space (null = spilling off). Owned by the query
  // runtime; shared by every nested context of the same query so all spill
  // files land in one per-query scratch dir under one disk budget.
  TempFileManager* temp = nullptr;

  // Cancellation/deadline poll; OK when no guard is attached.
  Status Check() const { return guard ? guard->Check() : Status::OK(); }
};

// Operators implement the protected OpenImpl/NextImpl/CloseImpl; the public
// Open/Next/Close are non-virtual wrappers that maintain OperatorMetrics
// (call/row counters always; wall clocks around every call only when
// ctx->profile is set — see metrics.h for the cost model).
class Operator {
 public:
  virtual ~Operator() = default;

  // Prepares for iteration. May be called again after Close() — Apply
  // re-opens its inner plan once per outer row.
  Status Open(ExecContext* ctx);

  // Produces the next row. Sets *eof=true (and leaves *out untouched) at
  // end of stream.
  Status Next(Row* out, bool* eof);

  void Close();

  virtual std::string name() const = 0;

  // Indented plan rendering (EXPLAIN).
  virtual std::string ToString(int indent) const;

  // Number of columns produced.
  virtual int output_width() const = 0;

  // Reports the operator's expressions, subplans, parameter bindings and
  // ordinal uses for the physical-plan verifier and the metrics snapshot.
  // The base implementation reports nothing; every concrete operator
  // overrides it.
  virtual void Introspect(PlanIntrospection* out) const;

  // Offers a runtime key filter (exec/scan.h) on output column `column`
  // and returns whether this operator or one below it took it. Only
  // operators that hand every row of that column up unchanged and never
  // re-read, share or count their input differently pass it on (Filter,
  // column references of Project, the probe side of a hash join), and
  // only base-table access paths take it; the default refuses.
  virtual bool OfferKeyFilter(int column, const KeyFilter* filter);

  // Counters accumulated so far (across re-opens).
  const OperatorMetrics& metrics() const { return metrics_; }

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Status NextImpl(Row* out, bool* eof) = 0;
  virtual void CloseImpl() = 0;

  // Children pretty-printing helper.
  static std::string Indent(int n);

  // Concrete operators bump the operator-specific fields (build_rows,
  // index_probes, bytes_charged, rows_in_self) directly.
  OperatorMetrics metrics_;

 private:
  bool profile_ = false;  // the current Open()'s context had profiling on
};

using OperatorPtr = std::unique_ptr<Operator>;

// Drains `op` into a vector of rows (Open/Next/Close). Every collected row
// is charged against the guard's row and memory budgets. With
// `charged_bytes` the caller takes ownership of the memory charge (added to
// *charged_bytes; release it when the rows are dropped); without it the
// charge is released on return — the budget then bounds the collection
// itself, not the rows' later lifetime.
Result<std::vector<Row>> CollectRows(Operator* op, ExecContext* ctx,
                                     int64_t* charged_bytes = nullptr);

}  // namespace decorr

#endif  // DECORR_EXEC_OPERATOR_H_
