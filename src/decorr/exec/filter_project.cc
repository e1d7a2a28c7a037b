#include "decorr/exec/filter_project.h"

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/expr/eval.h"

namespace decorr {

FilterOp::FilterOp(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Status FilterOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.filter.next");
  while (true) {
    DECORR_RETURN_IF_ERROR(child_->Next(out, eof));
    if (*eof) return Status::OK();
    EvalContext ectx;
    ectx.row = out;
    ectx.params = ctx_->params;
    if (EvalPredicate(*predicate_, ectx)) return Status::OK();
  }
}

void FilterOp::CloseImpl() { child_->Close(); }

bool FilterOp::OfferKeyFilter(int column, const KeyFilter* filter) {
  return child_->OfferKeyFilter(column, filter);
}

std::string FilterOp::ToString(int indent) const {
  return Indent(indent) + "Filter " + predicate_->ToString() + "\n" +
         child_->ToString(indent + 1);
}

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {}

Status ProjectOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Status ProjectOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.project.next");
  DECORR_RETURN_IF_ERROR(child_->Next(&in_, eof));
  if (*eof) return Status::OK();
  EvalContext ectx;
  ectx.row = &in_;
  ectx.params = ctx_->params;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& expr : exprs_) out->push_back(Eval(*expr, ectx));
  return Status::OK();
}

void ProjectOp::CloseImpl() { child_->Close(); }

bool ProjectOp::OfferKeyFilter(int column, const KeyFilter* filter) {
  const Expr& e = *exprs_[column];
  return e.kind == ExprKind::kColumnRef && e.slot >= 0 &&
         child_->OfferKeyFilter(e.slot, filter);
}

std::string ProjectOp::ToString(int indent) const {
  std::string out = Indent(indent) + "Project [";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  return out + "]\n" + child_->ToString(indent + 1);
}


void FilterOp::Introspect(PlanIntrospection* out) const {
  out->children.push_back(
      {child_.get(), PlanIntrospection::kInheritParams, "input"});
  out->exprs.push_back(
      {predicate_.get(), child_->output_width(), "predicate"});
}

void ProjectOp::Introspect(PlanIntrospection* out) const {
  out->children.push_back(
      {child_.get(), PlanIntrospection::kInheritParams, "input"});
  for (size_t i = 0; i < exprs_.size(); ++i) {
    out->exprs.push_back(
        {exprs_[i].get(), child_->output_width(),
         StrFormat("projection %zu", i)});
  }
}

}  // namespace decorr
