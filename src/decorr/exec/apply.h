// Apply operators: correlated subquery execution.
//
// ApplyOp is nested iteration (Section 2 of the paper): for each input row
// it binds the correlation parameters and re-executes the inner plan,
// appending the subquery's verdict/value as an extra output column. The
// planner rewrites the enclosing predicate to reference that column.
//
// GroupProbeApplyOp is the set-oriented cousin used for *decorrelated*
// existential subqueries (the CI boxes of Section 4.4): the inner plan is
// executed once, hashed on its binding columns ("index on a temporary
// relation"), and each input row probes its group.
#ifndef DECORR_EXEC_APPLY_H_
#define DECORR_EXEC_APPLY_H_

#include <memory>
#include <vector>

#include "decorr/common/key_table.h"
#include "decorr/exec/operator.h"
#include "decorr/exec/subquery_cache.h"
#include "decorr/expr/expr.h"

namespace decorr {

// How an Apply's inner result feeds back into the row.
enum class SubqueryMode : uint8_t {
  kScalar,   // single value (NULL when empty; error when >1 row)
  kExists,   // TRUE iff any row
  kIn,       // lhs IN (rows), SQL NULL semantics
  kAny,      // lhs op ANY (rows)
  kAll,      // lhs op ALL (rows)
};
const char* SubqueryModeName(SubqueryMode mode);

// Where one correlation parameter comes from.
struct ParamSource {
  bool from_outer = false;  // take from the enclosing params instead of the
                            // input row
  int index = 0;            // slot in input row, or index into outer params
};

// One correlated (or invariant) subquery attached to an ApplyOp.
struct SubqueryPlan {
  OperatorPtr plan;
  std::vector<ParamSource> params;
  SubqueryMode mode = SubqueryMode::kScalar;
  // kIn/kAny/kAll: the left-hand expression over the input row; kAny/kAll
  // also use `op`.
  ExprPtr lhs;
  BinaryOp op = BinaryOp::kEq;
  bool negated = false;  // NOT EXISTS / NOT IN
};

// Appends, for each attached subquery, one column to every input row (the
// scalar value, or the BOOL/NULL verdict). Inner plans with no parameters
// are invariant: they execute once and the result is reused (the row set
// when the verdict depends on a per-row lhs, otherwise the verdict itself).
// With ExecContext::subquery_cache_bytes set, correlated subqueries memoize
// their result sets per binding through a BindingKeyCache (NI+C).
class ApplyOp : public Operator {
 public:
  ApplyOp(OperatorPtr input, std::vector<SubqueryPlan> subqueries);

  std::string name() const override { return "Apply"; }
  std::string ToString(int indent) const override;
  int output_width() const override {
    return input_->output_width() + static_cast<int>(subqueries_.size());
  }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  // Binds the correlation parameters for `sub` from the input row.
  Row BindParams(const SubqueryPlan& sub, const Row& in) const;
  // Runs the inner plan once under a nested context (one paper-metric
  // "subquery invocation"); the rows' memory charge is transferred to
  // *charged_bytes.
  Status RunInner(const SubqueryPlan& sub, const Row& params,
                  std::vector<Row>* rows, int64_t* charged_bytes);
  // Applies the subquery mode to `rows`, evaluating lhs over `in`.
  Status Verdict(const SubqueryPlan& sub, const Row& in,
                 const std::vector<Row>& rows, Value* out) const;

  OperatorPtr input_;
  std::vector<SubqueryPlan> subqueries_;
  ExecContext* ctx_ = nullptr;
  // Invariant (parameter-free) subqueries: the verdict when it is itself
  // row-independent, the materialized row set when only the inner plan is
  // (its charge is held in invariant_charged_ until Close).
  std::vector<bool> invariant_computed_;
  std::vector<Value> invariant_value_;
  std::vector<std::shared_ptr<const std::vector<Row>>> invariant_rows_;
  int64_t invariant_charged_ = 0;
  // Per-subquery memoization caches; null entries mean caching is off (or
  // the subquery is invariant and needs no keyed cache).
  std::vector<std::unique_ptr<BindingKeyCache>> caches_;
};

// Computes the verdict of one subquery result set under a mode (shared by
// ApplyOp and GroupProbeApplyOp). `lhs` may be NULL for kScalar/kExists.
Value SubqueryVerdict(SubqueryMode mode, BinaryOp op, const Value& lhs,
                      const std::vector<Row>& rows, bool negated, Status* st);

// Decorrelated existential probing: materializes `inner` once, hashed on
// `inner_key_cols`; each input row evaluates `probe_keys` and applies the
// subquery mode to its group only.
class GroupProbeApplyOp : public Operator {
 public:
  GroupProbeApplyOp(OperatorPtr input, OperatorPtr inner,
                    std::vector<int> inner_key_cols,
                    std::vector<ExprPtr> probe_keys, SubqueryPlan semantics);

  std::string name() const override { return "GroupProbeApply"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return input_->output_width() + 1; }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr input_;
  OperatorPtr inner_;
  std::vector<int> inner_key_cols_;
  std::vector<ExprPtr> probe_keys_;
  SubqueryPlan semantics_;  // plan member unused; mode/lhs/op/negated apply
  ExecContext* ctx_ = nullptr;
  // The hashed inner relation: group_rows_[id] holds, in inner order, the
  // rows whose binding columns equal key id `id` of `groups_`.
  KeyTable groups_;
  std::vector<std::vector<Row>> group_rows_;
  Row key_;  // scratch: a binding key (build) or probe key
  int64_t charged_bytes_ = 0;  // materialized inner-table memory
};

// Correlated lateral join (nested iteration over a correlated derived
// table): for each input row, binds the parameters, re-executes `inner`, and
// emits input ++ inner_row for every inner row (inner-join semantics).
class LateralJoinOp : public Operator {
 public:
  LateralJoinOp(OperatorPtr input, OperatorPtr inner,
                std::vector<ParamSource> params, int inner_width);

  std::string name() const override { return "LateralJoin"; }
  std::string ToString(int indent) const override;
  int output_width() const override {
    return input_->output_width() + inner_width_;
  }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr input_;
  OperatorPtr inner_;
  std::vector<ParamSource> params_;
  int inner_width_;
  ExecContext* ctx_ = nullptr;
  Row current_input_;
  // Current inner result set: freshly collected, or borrowed from the
  // memoization cache (which keeps it alive across evictions).
  std::shared_ptr<const std::vector<Row>> inner_rows_;
  int64_t charged_bytes_ = 0;  // charge owned here (0 when cache-owned)
  size_t inner_cursor_ = 0;
  bool input_eof_ = true;
  std::unique_ptr<BindingKeyCache> cache_;  // null when caching is off
};

}  // namespace decorr

#endif  // DECORR_EXEC_APPLY_H_
