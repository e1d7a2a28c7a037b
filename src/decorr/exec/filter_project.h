// Filter and projection operators.
#ifndef DECORR_EXEC_FILTER_PROJECT_H_
#define DECORR_EXEC_FILTER_PROJECT_H_

#include <string>
#include <vector>

#include "decorr/exec/operator.h"
#include "decorr/expr/expr.h"

namespace decorr {

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate);

  std::string name() const override { return "Filter"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return child_->output_width(); }
  void Introspect(PlanIntrospection* out) const override;
  bool OfferKeyFilter(int column, const KeyFilter* filter) override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_ = nullptr;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs);

  std::string name() const override { return "Project"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return static_cast<int>(exprs_.size()); }
  void Introspect(PlanIntrospection* out) const override;
  // Passes filters on column-reference outputs to the input column.
  bool OfferKeyFilter(int column, const KeyFilter* filter) override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  ExecContext* ctx_ = nullptr;
  Row in_;  // scratch: the input row, reused across calls
};

}  // namespace decorr

#endif  // DECORR_EXEC_FILTER_PROJECT_H_
