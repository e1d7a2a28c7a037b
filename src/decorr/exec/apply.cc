#include "decorr/exec/apply.h"

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/expr/eval.h"

namespace decorr {

const char* SubqueryModeName(SubqueryMode mode) {
  switch (mode) {
    case SubqueryMode::kScalar:
      return "scalar";
    case SubqueryMode::kExists:
      return "exists";
    case SubqueryMode::kIn:
      return "in";
    case SubqueryMode::kAny:
      return "any";
    case SubqueryMode::kAll:
      return "all";
  }
  return "?";
}

Value SubqueryVerdict(SubqueryMode mode, BinaryOp op, const Value& lhs,
                      const std::vector<Row>& rows, bool negated, Status* st) {
  *st = Status::OK();
  auto flip = [negated](Value v) {
    if (!negated || v.is_null()) return v;
    return Value::Bool(!v.bool_value());
  };
  switch (mode) {
    case SubqueryMode::kScalar:
      if (rows.empty()) return Value::Null();
      if (rows.size() > 1) {
        *st = Status::ExecutionError(
            "scalar subquery produced more than one row");
        return Value::Null();
      }
      return rows[0][0];
    case SubqueryMode::kExists:
      return flip(Value::Bool(!rows.empty()));
    case SubqueryMode::kIn: {
      if (lhs.is_null()) return Value::Null();
      bool saw_null = false;
      for (const Row& row : rows) {
        if (row[0].is_null()) {
          saw_null = true;
          continue;
        }
        if (lhs.Compare(row[0]) == 0) return flip(Value::Bool(true));
      }
      if (saw_null) return Value::Null();
      return flip(Value::Bool(false));
    }
    case SubqueryMode::kAny: {
      bool saw_unknown = false;
      for (const Row& row : rows) {
        Value cmp = CompareValues(op, lhs, row[0]);
        if (cmp.is_null()) {
          saw_unknown = true;
        } else if (cmp.bool_value()) {
          return flip(Value::Bool(true));
        }
      }
      if (saw_unknown) return Value::Null();
      return flip(Value::Bool(false));
    }
    case SubqueryMode::kAll: {
      bool saw_unknown = false;
      for (const Row& row : rows) {
        Value cmp = CompareValues(op, lhs, row[0]);
        if (cmp.is_null()) {
          saw_unknown = true;
        } else if (!cmp.bool_value()) {
          return flip(Value::Bool(false));
        }
      }
      if (saw_unknown) return Value::Null();
      return flip(Value::Bool(true));  // vacuous truth on empty sets
    }
  }
  return Value::Null();
}

// ---- ApplyOp ----

ApplyOp::ApplyOp(OperatorPtr input, std::vector<SubqueryPlan> subqueries)
    : input_(std::move(input)), subqueries_(std::move(subqueries)) {}

Status ApplyOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.apply.open");
  ctx_ = ctx;
  invariant_computed_.assign(subqueries_.size(), false);
  invariant_value_.assign(subqueries_.size(), Value());
  invariant_rows_.assign(subqueries_.size(), nullptr);
  invariant_charged_ = 0;
  caches_.clear();
  caches_.resize(subqueries_.size());
  if (ctx->subquery_cache_bytes > 0) {
    for (size_t i = 0; i < subqueries_.size(); ++i) {
      // Invariant subqueries run once per Open anyway; only correlated ones
      // need a keyed cache.
      if (!subqueries_[i].params.empty()) {
        caches_[i] = std::make_unique<BindingKeyCache>(
            ctx->subquery_cache_bytes, ctx->guard, &metrics_);
      }
    }
  }
  return input_->Open(ctx);
}

Row ApplyOp::BindParams(const SubqueryPlan& sub, const Row& in) const {
  Row params;
  params.reserve(sub.params.size());
  for (const ParamSource& src : sub.params) {
    if (src.from_outer) {
      params.push_back((*ctx_->params)[src.index]);
    } else {
      params.push_back(in[src.index]);
    }
  }
  return params;
}

Status ApplyOp::RunInner(const SubqueryPlan& sub, const Row& params,
                         std::vector<Row>* rows, int64_t* charged_bytes) {
  DECORR_FAULT_POINT("exec.apply.subquery");
  ExecContext inner_ctx;
  inner_ctx.params = &params;
  inner_ctx.stats = ctx_->stats;
  inner_ctx.guard = ctx_->guard;
  inner_ctx.profile = ctx_->profile;
  inner_ctx.subquery_cache_bytes = ctx_->subquery_cache_bytes;
  inner_ctx.temp = ctx_->temp;
  ++ctx_->stats->subquery_invocations;
  DECORR_ASSIGN_OR_RETURN(*rows,
                          CollectRows(sub.plan.get(), &inner_ctx,
                                      charged_bytes));
  metrics_.build_rows += static_cast<int64_t>(rows->size());
  return Status::OK();
}

Status ApplyOp::Verdict(const SubqueryPlan& sub, const Row& in,
                        const std::vector<Row>& rows, Value* out) const {
  Value lhs;
  if (sub.lhs) {
    EvalContext ectx;
    ectx.row = &in;
    ectx.params = ctx_->params;
    lhs = Eval(*sub.lhs, ectx);
  }
  Status st;
  *out = SubqueryVerdict(sub.mode, sub.op, lhs, rows, sub.negated, &st);
  return st;
}

Status ApplyOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.apply.next");
  Row in;
  DECORR_RETURN_IF_ERROR(input_->Next(&in, eof));
  if (*eof) return Status::OK();
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  for (size_t i = 0; i < subqueries_.size(); ++i) {
    const SubqueryPlan& sub = subqueries_[i];
    Value v;
    if (sub.params.empty()) {
      // Parameter-free subqueries are loop-invariant: the inner plan runs
      // once per Open even when a row-dependent lhs forces the *verdict* to
      // be recomputed per row (degenerate correlation — e.g. an
      // uncorrelated IN list).
      if (sub.lhs == nullptr) {
        if (!invariant_computed_[i]) {
          std::vector<Row> rows;
          int64_t charged = 0;
          DECORR_RETURN_IF_ERROR(RunInner(sub, Row{}, &rows, &charged));
          Status st = Verdict(sub, in, rows, &invariant_value_[i]);
          // The verdict is all that survives; release the rows' charge.
          if (ctx_->guard) ctx_->guard->ReleaseMemory(charged);
          DECORR_RETURN_IF_ERROR(st);
          invariant_computed_[i] = true;
        }
        v = invariant_value_[i];
      } else {
        if (invariant_rows_[i] == nullptr) {
          std::vector<Row> rows;
          int64_t charged = 0;
          DECORR_RETURN_IF_ERROR(RunInner(sub, Row{}, &rows, &charged));
          invariant_rows_[i] =
              std::make_shared<const std::vector<Row>>(std::move(rows));
          invariant_charged_ += charged;  // held until Close
        }
        DECORR_RETURN_IF_ERROR(Verdict(sub, in, *invariant_rows_[i], &v));
      }
    } else if (caches_[i] != nullptr) {
      // NI+C: memoize the inner result set on the binding key.
      Row params = BindParams(sub, in);
      std::shared_ptr<const std::vector<Row>> rows;
      DECORR_RETURN_IF_ERROR(caches_[i]->Lookup(params, &rows));
      if (rows != nullptr) {
        ++ctx_->stats->subquery_cache_hits;
      } else {
        ++ctx_->stats->subquery_cache_misses;
        std::vector<Row> fresh;
        int64_t charged = 0;
        DECORR_RETURN_IF_ERROR(RunInner(sub, params, &fresh, &charged));
        // The cache takes ownership of the rows and their charge.
        DECORR_RETURN_IF_ERROR(
            caches_[i]->Insert(params, std::move(fresh), charged, &rows));
      }
      DECORR_RETURN_IF_ERROR(Verdict(sub, in, *rows, &v));
    } else {
      // Plain nested iteration: re-execute per outer row. The inner result
      // set lives only until the verdict; release its charge so per-row
      // invocations don't accumulate against the budget.
      Row params = BindParams(sub, in);
      std::vector<Row> rows;
      int64_t charged = 0;
      DECORR_RETURN_IF_ERROR(RunInner(sub, params, &rows, &charged));
      Status st = Verdict(sub, in, rows, &v);
      if (ctx_->guard) ctx_->guard->ReleaseMemory(charged);
      DECORR_RETURN_IF_ERROR(st);
    }
    in.push_back(std::move(v));
  }
  *out = std::move(in);
  return Status::OK();
}

void ApplyOp::CloseImpl() {
  input_->Close();
  caches_.clear();  // releases each cache's guard charges
  invariant_rows_.clear();
  if (ctx_ != nullptr && ctx_->guard != nullptr) {
    ctx_->guard->ReleaseMemory(invariant_charged_);
  }
  invariant_charged_ = 0;
}

std::string ApplyOp::ToString(int indent) const {
  std::string out = Indent(indent) + "Apply\n";
  out += input_->ToString(indent + 1);
  for (const SubqueryPlan& sub : subqueries_) {
    out += Indent(indent + 1);
    out += "subquery mode=";
    out += SubqueryModeName(sub.mode);
    if (sub.negated) out += " negated";
    out += "\n";
    out += sub.plan->ToString(indent + 2);
  }
  return out;
}

// ---- GroupProbeApplyOp ----

GroupProbeApplyOp::GroupProbeApplyOp(OperatorPtr input, OperatorPtr inner,
                                     std::vector<int> inner_key_cols,
                                     std::vector<ExprPtr> probe_keys,
                                     SubqueryPlan semantics)
    : input_(std::move(input)),
      inner_(std::move(inner)),
      inner_key_cols_(std::move(inner_key_cols)),
      probe_keys_(std::move(probe_keys)),
      semantics_(std::move(semantics)),
      groups_(inner_key_cols_.size()) {}

Status GroupProbeApplyOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.groupprobe.build");
  ctx_ = ctx;
  groups_.Clear();
  group_rows_.clear();
  charged_bytes_ = 0;
  DECORR_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      CollectRows(inner_.get(), ctx, &charged_bytes_));
  metrics_.build_rows += static_cast<int64_t>(rows.size());
  metrics_.bytes_charged += charged_bytes_;
  for (Row& row : rows) {
    key_.clear();
    bool null_key = false;
    for (int c : inner_key_cols_) {
      if (row[c].is_null()) null_key = true;
      key_.push_back(row[c]);
    }
    if (null_key) continue;  // equality bindings never match NULL
    bool inserted = false;
    const uint32_t id = groups_.Insert(key_, &inserted);
    if (inserted) group_rows_.emplace_back();
    group_rows_[id].push_back(std::move(row));
  }
  groups_.FinishBuild();
  return input_->Open(ctx);
}

Status GroupProbeApplyOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.groupprobe.next");
  static const std::vector<Row> kEmpty;
  Row in;
  DECORR_RETURN_IF_ERROR(input_->Next(&in, eof));
  if (*eof) return Status::OK();
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  EvalContext ectx;
  ectx.row = &in;
  ectx.params = ctx_->params;
  key_.clear();
  bool null_key = false;
  for (const ExprPtr& expr : probe_keys_) {
    key_.push_back(Eval(*expr, ectx));
    if (key_.back().is_null()) null_key = true;
  }
  // Probing the hashed inner relation is an "index on a temporary
  // relation" (Section 4.4), so it counts as an index lookup — not as a
  // subquery invocation (the whole point of decorrelation is that the inner
  // plan ran exactly once).
  uint32_t id = KeyTable::kNotFound;
  if (!null_key) {
    ++ctx_->stats->index_lookups;
    ++metrics_.index_probes;
    id = groups_.Find(key_);
  }
  const std::vector<Row>& rows =
      id == KeyTable::kNotFound ? kEmpty : group_rows_[id];

  Value lhs;
  if (semantics_.lhs) lhs = Eval(*semantics_.lhs, ectx);
  Status st;
  Value verdict = SubqueryVerdict(semantics_.mode, semantics_.op, lhs, rows,
                                  semantics_.negated, &st);
  DECORR_RETURN_IF_ERROR(st);
  in.push_back(std::move(verdict));
  *out = std::move(in);
  return Status::OK();
}

void GroupProbeApplyOp::CloseImpl() {
  input_->Close();
  groups_.Clear();
  group_rows_.clear();
  if (ctx_ != nullptr && ctx_->guard != nullptr) {
    ctx_->guard->ReleaseMemory(charged_bytes_);
  }
  charged_bytes_ = 0;
}

std::string GroupProbeApplyOp::ToString(int indent) const {
  std::string out = Indent(indent) + "GroupProbeApply mode=";
  out += SubqueryModeName(semantics_.mode);
  out += "\n";
  out += input_->ToString(indent + 1);
  out += inner_->ToString(indent + 1);
  return out;
}

// ---- LateralJoinOp ----

LateralJoinOp::LateralJoinOp(OperatorPtr input, OperatorPtr inner,
                             std::vector<ParamSource> params, int inner_width)
    : input_(std::move(input)),
      inner_(std::move(inner)),
      params_(std::move(params)),
      inner_width_(inner_width) {}

Status LateralJoinOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.lateral.open");
  ctx_ = ctx;
  input_eof_ = false;
  inner_rows_ = nullptr;
  charged_bytes_ = 0;
  inner_cursor_ = 0;
  cache_ = ctx->subquery_cache_bytes > 0
               ? std::make_unique<BindingKeyCache>(ctx->subquery_cache_bytes,
                                                   ctx->guard, &metrics_)
               : nullptr;
  return input_->Open(ctx);
}

Status LateralJoinOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.lateral.next");
  while (true) {
    DECORR_RETURN_IF_ERROR(ctx_->Check());
    if (inner_rows_ != nullptr && inner_cursor_ < inner_rows_->size()) {
      const Row& inner_row = (*inner_rows_)[inner_cursor_++];
      out->clear();
      out->reserve(current_input_.size() + inner_row.size());
      out->insert(out->end(), current_input_.begin(), current_input_.end());
      out->insert(out->end(), inner_row.begin(), inner_row.end());
      *eof = false;
      return Status::OK();
    }
    if (input_eof_) {
      *eof = true;
      return Status::OK();
    }
    bool child_eof = false;
    DECORR_RETURN_IF_ERROR(input_->Next(&current_input_, &child_eof));
    if (child_eof) {
      input_eof_ = true;
      continue;
    }
    Row params;
    params.reserve(params_.size());
    for (const ParamSource& src : params_) {
      params.push_back(src.from_outer ? (*ctx_->params)[src.index]
                                      : current_input_[src.index]);
    }
    // Drop the previous inner result set (and any charge owned here; a
    // cache-owned set's charge stays with the cache).
    if (ctx_->guard) ctx_->guard->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
    inner_rows_ = nullptr;
    inner_cursor_ = 0;
    if (cache_ != nullptr) {
      DECORR_RETURN_IF_ERROR(cache_->Lookup(params, &inner_rows_));
      if (inner_rows_ != nullptr) {
        ++ctx_->stats->subquery_cache_hits;
        continue;
      }
      ++ctx_->stats->subquery_cache_misses;
    }
    ExecContext inner_ctx;
    inner_ctx.params = &params;
    inner_ctx.stats = ctx_->stats;
    inner_ctx.guard = ctx_->guard;
    inner_ctx.profile = ctx_->profile;
    inner_ctx.subquery_cache_bytes = ctx_->subquery_cache_bytes;
    inner_ctx.temp = ctx_->temp;
    ++ctx_->stats->subquery_invocations;
    int64_t charged = 0;
    DECORR_ASSIGN_OR_RETURN(
        std::vector<Row> fresh,
        CollectRows(inner_.get(), &inner_ctx, &charged));
    metrics_.build_rows += static_cast<int64_t>(fresh.size());
    if (cache_ != nullptr) {
      // The cache takes ownership of the rows and their charge.
      DECORR_RETURN_IF_ERROR(
          cache_->Insert(params, std::move(fresh), charged, &inner_rows_));
    } else {
      inner_rows_ = std::make_shared<const std::vector<Row>>(std::move(fresh));
      charged_bytes_ = charged;
    }
  }
}

void LateralJoinOp::CloseImpl() {
  input_->Close();
  inner_rows_ = nullptr;
  cache_.reset();  // releases the cache's guard charges
  if (ctx_ != nullptr && ctx_->guard != nullptr) {
    ctx_->guard->ReleaseMemory(charged_bytes_);
  }
  charged_bytes_ = 0;
}

std::string LateralJoinOp::ToString(int indent) const {
  return Indent(indent) + "LateralJoin\n" + input_->ToString(indent + 1) +
         inner_->ToString(indent + 1);
}


void ApplyOp::Introspect(PlanIntrospection* out) const {
  const int w = input_->output_width();
  out->children.push_back(
      {input_.get(), PlanIntrospection::kInheritParams, "input"});
  for (size_t i = 0; i < subqueries_.size(); ++i) {
    const SubqueryPlan& sub = subqueries_[i];
    out->children.push_back({sub.plan.get(),
                             static_cast<int>(sub.params.size()),
                             StrFormat("subquery %zu", i)});
    for (size_t j = 0; j < sub.params.size(); ++j) {
      out->params.push_back({sub.params[j].from_outer, sub.params[j].index,
                             w, StrFormat("subquery %zu param %zu", i, j)});
    }
    if (sub.lhs) {
      out->exprs.push_back(
          {sub.lhs.get(), w, StrFormat("subquery %zu lhs", i)});
    }
  }
}

void GroupProbeApplyOp::Introspect(PlanIntrospection* out) const {
  const int w = input_->output_width();
  out->children.push_back(
      {input_.get(), PlanIntrospection::kInheritParams, "input"});
  // The decorrelated inner plan is parameter-free by construction (the
  // planner falls back to ApplyOp otherwise).
  out->children.push_back({inner_.get(), 0, "inner"});
  for (size_t i = 0; i < probe_keys_.size(); ++i) {
    out->exprs.push_back(
        {probe_keys_[i].get(), w, StrFormat("probe key %zu", i)});
  }
  for (size_t i = 0; i < inner_key_cols_.size(); ++i) {
    out->ordinals.push_back({inner_key_cols_[i], inner_->output_width(),
                             StrFormat("inner key %zu", i)});
  }
  if (semantics_.lhs) {
    out->exprs.push_back({semantics_.lhs.get(), w, "lhs"});
  }
}

void LateralJoinOp::Introspect(PlanIntrospection* out) const {
  const int w = input_->output_width();
  out->children.push_back(
      {input_.get(), PlanIntrospection::kInheritParams, "input"});
  out->children.push_back(
      {inner_.get(), static_cast<int>(params_.size()), "inner"});
  for (size_t i = 0; i < params_.size(); ++i) {
    out->params.push_back({params_[i].from_outer, params_[i].index, w,
                           StrFormat("param %zu", i)});
  }
}

}  // namespace decorr
