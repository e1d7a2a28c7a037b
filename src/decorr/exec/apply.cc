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

ApplyOp::ApplyOp(OperatorPtr input, OperatorPtr inner,
                 std::vector<ParamSource> params,
                 std::vector<int> inner_key_cols,
                 std::vector<ExprPtr> probe_keys,
                 SubquerySemantics semantics, int inner_width)
    : input_(std::move(input)),
      inner_(std::move(inner)),
      params_(std::move(params)),
      inner_key_cols_(std::move(inner_key_cols)),
      probe_keys_(std::move(probe_keys)),
      semantics_(std::move(semantics)),
      inner_width_(inner_width),
      table_(grouped() ? inner_key_cols_.size() : params_.size()) {
  // key_ never grows past this, so a memo key charges what a Row of its
  // values does.
  key_.reserve(table_.width());
}

ApplyOp::ApplyOp(OperatorPtr input, OperatorPtr inner,
                 std::vector<ParamSource> params, SubquerySemantics semantics)
    : ApplyOp(std::move(input), std::move(inner), std::move(params), {}, {},
              std::move(semantics), -1) {}

ApplyOp::ApplyOp(OperatorPtr input, OperatorPtr inner,
                 std::vector<int> inner_key_cols,
                 std::vector<ExprPtr> probe_keys, SubquerySemantics semantics)
    : ApplyOp(std::move(input), std::move(inner), {},
              std::move(inner_key_cols), std::move(probe_keys),
              std::move(semantics), -1) {}

ApplyOp::ApplyOp(OperatorPtr input, OperatorPtr inner,
                 std::vector<ParamSource> params, int inner_width)
    : ApplyOp(std::move(input), std::move(inner), std::move(params), {}, {},
              SubquerySemantics{}, inner_width) {}

Status ApplyOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.apply.open");
  ctx_ = ctx;
  table_.Clear();
  sets_.clear();
  table_bytes_ = 0;
  once_bytes_ = 0;
  memo_ = !grouped() && (params_.empty() || ctx->subquery_cache_bytes > 0);
  set_ = nullptr;
  cursor_ = 0;
  input_eof_ = false;
  if (grouped()) DECORR_RETURN_IF_ERROR(BuildGroups());
  return input_->Open(ctx);
}

Status ApplyOp::RunInner(std::vector<Row>* rows, int64_t* charged) {
  DECORR_FAULT_POINT("exec.apply.subquery");
  ExecContext inner_ctx = *ctx_;
  inner_ctx.params = &key_;
  // The grouped build runs once per Open, not once per binding.
  if (!grouped()) ++ctx_->stats->subquery_invocations;
  const int64_t before = *charged;
  DECORR_ASSIGN_OR_RETURN(*rows,
                          CollectRows(inner_.get(), &inner_ctx, charged));
  metrics_.build_rows += static_cast<int64_t>(rows->size());
  metrics_.bytes_charged += *charged - before;
  return Status::OK();
}

Status ApplyOp::BuildGroups() {
  std::vector<Row> rows;
  DECORR_RETURN_IF_ERROR(RunInner(&rows, &table_bytes_));
  for (Row& row : rows) {
    key_.clear();
    bool null_key = false;
    for (int c : inner_key_cols_) {
      if (row[c].is_null()) null_key = true;
      key_.push_back(row[c]);
    }
    if (null_key) {
      // Equality bindings never match NULL: drop the row and its charge.
      if (ctx_->guard != nullptr) {
        const int64_t bytes = ApproxRowBytes(row);
        ctx_->guard->ReleaseMemory(bytes);
        table_bytes_ -= bytes;
      }
      continue;
    }
    bool inserted = false;
    const uint32_t id = table_.Insert(key_, &inserted);
    if (inserted) sets_.emplace_back();
    sets_[id].push_back(std::move(row));
  }
  table_.FinishBuild();
  return Status::OK();
}

Status ApplyOp::FindSet(const Row& in, const std::vector<Row>** set) {
  static const std::vector<Row> kEmpty;
  key_.clear();
  if (grouped()) {
    EvalContext ectx;
    ectx.row = &in;
    ectx.params = ctx_->params;
    bool null_key = false;
    for (const ExprPtr& expr : probe_keys_) {
      key_.push_back(Eval(*expr, ectx));
      if (key_.back().is_null()) null_key = true;
    }
    // Probing the grouped inner is an index lookup on a temporary
    // relation, not a subquery invocation: the inner ran once.
    uint32_t id = KeyTable::kNotFound;
    if (!null_key) {
      ++ctx_->stats->index_lookups;
      ++metrics_.index_probes;
      id = table_.Find(key_);
    }
    *set = id == KeyTable::kNotFound ? &kEmpty : &sets_[id];
    return Status::OK();
  }
  for (const ParamSource& src : params_) {
    key_.push_back(src.from_outer ? (*ctx_->params)[src.index]
                                  : in[src.index]);
  }
  if (!memo_) {
    DECORR_RETURN_IF_ERROR(RunInner(&once_, &once_bytes_));
    *set = &once_;
    return Status::OK();
  }
  // A parameter-free inner runs once per Open and counts no hit or miss.
  const bool counted = !params_.empty();
  if (counted) DECORR_FAULT_POINT("exec.subqcache.lookup");
  const size_t hash = KeyTable::Hash(key_.data(), key_.size());
  const uint32_t id = table_.Find(key_.data(), hash);
  if (id != KeyTable::kNotFound) {
    if (counted) {
      ++ctx_->stats->subquery_cache_hits;
      ++metrics_.cache_hits;
    }
    *set = &sets_[id];
    return Status::OK();
  }
  if (counted) {
    ++ctx_->stats->subquery_cache_misses;
    ++metrics_.cache_misses;
  }
  std::vector<Row> rows;
  int64_t charged = 0;
  DECORR_RETURN_IF_ERROR(RunInner(&rows, &charged));
  return Remember(hash, std::move(rows), charged, set);
}

Status ApplyOp::Remember(size_t hash, std::vector<Row> rows, int64_t charged,
                         const std::vector<Row>** set) {
  int64_t entry_bytes = charged;
  if (!params_.empty()) {
    FaultInjector& faults = FaultInjector::Global();
    const Status fault = faults.active()
                             ? faults.Hit("exec.subqcache.insert")
                             : Status::OK();
    if (!fault.ok()) {
      Release(&entry_bytes);
      return fault;
    }
    // Charge the key beside the rows. A failed charge means the query's
    // memory budget is spent: use the rows once rather than fail the
    // query for an optional optimization.
    const int64_t key_bytes = ApproxRowBytes(key_);
    entry_bytes += key_bytes;
    const bool charged_key =
        ctx_->guard == nullptr || ctx_->guard->ChargeMemory(key_bytes).ok();
    if (charged_key) metrics_.bytes_charged += key_bytes;
    if (!charged_key || entry_bytes > ctx_->subquery_cache_bytes) {
      Release(&entry_bytes);
      once_ = std::move(rows);
      *set = &once_;
      return Status::OK();
    }
    if (table_bytes_ + entry_bytes > ctx_->subquery_cache_bytes) {
      metrics_.cache_evictions += static_cast<int64_t>(table_.size());
      Release(&table_bytes_);
      table_.Clear();
      sets_.clear();
    }
  }
  table_.Append(key_.data(), hash);
  sets_.push_back(std::move(rows));
  table_bytes_ += entry_bytes;
  *set = &sets_.back();
  return Status::OK();
}

void ApplyOp::Release(int64_t* bytes) {
  if (*bytes != 0 && ctx_->guard != nullptr) {
    ctx_->guard->ReleaseMemory(*bytes);
  }
  *bytes = 0;
}

void ApplyOp::DropOnce() {
  once_.clear();
  Release(&once_bytes_);
}

Status ApplyOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.apply.next");
  if (lateral()) return NextLateral(out, eof);
  Row in;
  DECORR_RETURN_IF_ERROR(input_->Next(&in, eof));
  if (*eof) return Status::OK();
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  const std::vector<Row>* set = nullptr;
  DECORR_RETURN_IF_ERROR(FindSet(in, &set));
  Value lhs;
  if (semantics_.lhs) {
    EvalContext ectx;
    ectx.row = &in;
    ectx.params = ctx_->params;
    lhs = Eval(*semantics_.lhs, ectx);
  }
  Status st;
  Value verdict = SubqueryVerdict(semantics_.mode, semantics_.op, lhs, *set,
                                  semantics_.negated, &st);
  // A set the table does not keep lives only until its verdict.
  if (set == &once_) DropOnce();
  DECORR_RETURN_IF_ERROR(st);
  in.push_back(std::move(verdict));
  *out = std::move(in);
  return Status::OK();
}

Status ApplyOp::NextLateral(Row* out, bool* eof) {
  while (true) {
    DECORR_RETURN_IF_ERROR(ctx_->Check());
    if (set_ != nullptr && cursor_ < set_->size()) {
      const Row& inner_row = (*set_)[cursor_++];
      out->clear();
      out->reserve(current_.size() + inner_row.size());
      out->insert(out->end(), current_.begin(), current_.end());
      out->insert(out->end(), inner_row.begin(), inner_row.end());
      *eof = false;
      return Status::OK();
    }
    if (input_eof_) {
      *eof = true;
      return Status::OK();
    }
    bool child_eof = false;
    DECORR_RETURN_IF_ERROR(input_->Next(&current_, &child_eof));
    if (child_eof) {
      input_eof_ = true;
      continue;
    }
    set_ = nullptr;
    cursor_ = 0;
    DropOnce();
    DECORR_RETURN_IF_ERROR(FindSet(current_, &set_));
  }
}

void ApplyOp::CloseImpl() {
  input_->Close();
  Release(&table_bytes_);
  Release(&once_bytes_);
  table_.Clear();
  sets_.clear();
  once_.clear();
  set_ = nullptr;
}

std::string ApplyOp::name() const {
  if (grouped()) return "GroupProbeApply";
  return lateral() ? "LateralJoin" : "Apply";
}

std::string ApplyOp::ToString(int indent) const {
  std::string out = Indent(indent) + name();
  if (grouped()) {
    out += " mode=";
    out += SubqueryModeName(semantics_.mode);
  }
  out += "\n";
  out += input_->ToString(indent + 1);
  if (grouped() || lateral()) return out + inner_->ToString(indent + 1);
  out += Indent(indent + 1);
  out += "subquery mode=";
  out += SubqueryModeName(semantics_.mode);
  if (semantics_.negated) out += " negated";
  out += "\n";
  return out + inner_->ToString(indent + 2);
}

void ApplyOp::Introspect(PlanIntrospection* out) const {
  const int w = input_->output_width();
  out->children.push_back(
      {input_.get(), PlanIntrospection::kInheritParams, "input"});
  // A verdict Apply's inner is its "subquery 0", the role EXPLAIN ANALYZE
  // and the bench JSON print.
  const bool verdict = !grouped() && !lateral();
  const std::string prefix = verdict ? "subquery 0 " : "";
  out->children.push_back({inner_.get(), static_cast<int>(params_.size()),
                           verdict ? "subquery 0" : "inner"});
  for (size_t i = 0; i < params_.size(); ++i) {
    out->params.push_back({params_[i].from_outer, params_[i].index, w,
                           prefix + StrFormat("param %zu", i)});
  }
  for (size_t i = 0; i < probe_keys_.size(); ++i) {
    out->exprs.push_back(
        {probe_keys_[i].get(), w, StrFormat("probe key %zu", i)});
  }
  for (size_t i = 0; i < inner_key_cols_.size(); ++i) {
    out->ordinals.push_back({inner_key_cols_[i], inner_->output_width(),
                             StrFormat("inner key %zu", i)});
  }
  if (semantics_.lhs) {
    out->exprs.push_back({semantics_.lhs.get(), w, prefix + "lhs"});
  }
}

}  // namespace decorr
