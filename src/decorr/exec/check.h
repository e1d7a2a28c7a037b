// Runtime assertion operator backing the static dedup-pruning rewrite.
#ifndef DECORR_EXEC_CHECK_H_
#define DECORR_EXEC_CHECK_H_

#include <vector>

#include "decorr/common/key_table.h"
#include "decorr/exec/operator.h"

namespace decorr {

// Pass-through operator asserting that no two input rows agree on
// `key_cols` (NULLs comparing equal, matching the multiset key semantics of
// analysis/properties.h). A violation returns an internal error: it means a
// derived candidate key that licensed a dedup prune was wrong, and the query
// must fail loudly rather than return duplicate-bearing results. An empty
// `key_cols` asserts at-most-one-row. Planted by the planner (Debug builds /
// PlannerOptions::check_derived_keys) wherever rewrite/prune.cc recorded a
// Rule A decision.
class UniquenessCheckOp : public Operator {
 public:
  UniquenessCheckOp(OperatorPtr child, std::vector<int> key_cols);

  std::string name() const override { return "UniquenessCheck"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return child_->output_width(); }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<int> key_cols_;
  ExecContext* ctx_ = nullptr;
  KeyTable seen_;
  Row key_;  // scratch: the current row's key
  int64_t charged_bytes_ = 0;
};

}  // namespace decorr

#endif  // DECORR_EXEC_CHECK_H_
