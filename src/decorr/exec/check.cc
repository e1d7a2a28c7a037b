#include "decorr/exec/check.h"

#include <utility>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"

namespace decorr {

UniquenessCheckOp::UniquenessCheckOp(OperatorPtr child,
                                     std::vector<int> key_cols)
    : child_(std::move(child)),
      key_cols_(std::move(key_cols)),
      seen_(key_cols_.size()) {}

Status UniquenessCheckOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.uniqcheck");
  ctx_ = ctx;
  seen_.Clear();
  charged_bytes_ = 0;
  return child_->Open(ctx);
}

Status UniquenessCheckOp::NextImpl(Row* out, bool* eof) {
  DECORR_RETURN_IF_ERROR(child_->Next(out, eof));
  if (*eof) return Status::OK();
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  key_.clear();
  for (int col : key_cols_) {
    if (col < 0 || col >= static_cast<int>(out->size())) {
      return Status::Internal(
          StrFormat("UniquenessCheck: key ordinal %d out of range for "
                    "%zu-column row",
                    col, out->size()));
    }
    key_.push_back((*out)[col]);
  }
  bool inserted = false;
  seen_.Insert(key_, &inserted);
  if (!inserted) {
    std::string cols;
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      if (i > 0) cols += ",";
      cols += StrFormat("$%d", key_cols_[i]);
    }
    return Status::Internal(StrFormat(
        "UniquenessCheck violated: duplicate key over (%s) — a derived "
        "candidate key that licensed a dedup prune does not hold at runtime",
        cols.c_str()));
  }
  ++metrics_.build_rows;
  if (ctx_->guard) {
    const int64_t bytes = ApproxRowBytes(*out);
    charged_bytes_ += bytes;
    metrics_.bytes_charged += bytes;
    DECORR_RETURN_IF_ERROR(ctx_->guard->ChargeMemory(bytes));
  }
  return Status::OK();
}

void UniquenessCheckOp::CloseImpl() {
  child_->Close();
  seen_.Clear();
  if (ctx_ != nullptr && ctx_->guard != nullptr) {
    ctx_->guard->ReleaseMemory(charged_bytes_);
  }
  charged_bytes_ = 0;
}

std::string UniquenessCheckOp::ToString(int indent) const {
  std::string keys;
  for (size_t i = 0; i < key_cols_.size(); ++i) {
    if (i > 0) keys += ",";
    keys += StrFormat("$%d", key_cols_[i]);
  }
  return Indent(indent) + StrFormat("UniquenessCheck key=(%s)\n",
                                    keys.c_str()) +
         child_->ToString(indent + 1);
}

void UniquenessCheckOp::Introspect(PlanIntrospection* out) const {
  out->children.push_back(
      {child_.get(), PlanIntrospection::kInheritParams, "input"});
  for (int col : key_cols_) {
    out->ordinals.push_back({col, child_->output_width(), "uniqueness key"});
  }
}

}  // namespace decorr
