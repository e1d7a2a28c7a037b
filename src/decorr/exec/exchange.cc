#include "decorr/exec/exchange.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/exec/scan.h"
#include "decorr/exec/worker_pool.h"
#include "decorr/expr/eval.h"

namespace decorr {

namespace {

// Folds one worker's private ExecStats into the coordinator's; called after
// the workers joined, so no synchronization is needed.
void MergeStats(const ExecStats& in, ExecStats* out) {
  out->rows_scanned += in.rows_scanned;
  out->index_lookups += in.index_lookups;
  out->subquery_invocations += in.subquery_invocations;
  out->rows_output += in.rows_output;
  out->rows_materialized += in.rows_materialized;
  out->spill_partitions += in.spill_partitions;
  out->spill_passes += in.spill_passes;
  out->spill_bytes_written += in.spill_bytes_written;
  out->spill_bytes_read += in.spill_bytes_read;
  out->peak_memory_bytes =
      std::max(out->peak_memory_bytes, in.peak_memory_bytes);
}

std::vector<ExprPtr> CloneExprs(const std::vector<ExprPtr>& exprs) {
  std::vector<ExprPtr> out;
  out.reserve(exprs.size());
  for (const ExprPtr& e : exprs) out.push_back(e->Clone());
  return out;
}

// Streaming cursor over a vector of per-partition (or per-morsel) buffers;
// the emission half of every exchange operator is the same. Rows move out,
// and each buffer is freed — and its memory charge returned — the moment it
// is fully drained, so a consumer that re-materializes the stream (the root
// collector, an outer exchange) is not double-billed for the tail of the
// query. Under a tight budget that halving is what lets a bounded run fit.
Status NextFromBuffers(std::vector<std::vector<Row>>* buffers,
                       std::vector<int64_t>* buffer_bytes,
                       ResourceGuard* guard, int64_t* charged_bytes,
                       size_t* buffer, size_t* cursor, Row* out, bool* eof) {
  while (*buffer < buffers->size()) {
    std::vector<Row>& rows = (*buffers)[*buffer];
    if (*cursor < rows.size()) {
      *out = std::move(rows[(*cursor)++]);
      *eof = false;
      return Status::OK();
    }
    rows = {};
    if (*buffer < buffer_bytes->size()) {
      const int64_t bytes = (*buffer_bytes)[*buffer];
      (*buffer_bytes)[*buffer] = 0;
      *charged_bytes -= bytes;
      if (guard) guard->ReleaseMemory(bytes);
    }
    ++*buffer;
    *cursor = 0;
  }
  *eof = true;
  return Status::OK();
}

}  // namespace

Status HashPartitionRows(std::vector<Row> rows,
                         const std::vector<ExprPtr>& keys, const Row* params,
                         int num_partitions,
                         std::vector<std::vector<Row>>* out) {
  if (num_partitions <= 0) {
    return Status::Internal("HashPartitionRows: num_partitions must be > 0");
  }
  out->assign(num_partitions, {});
  RowHash hasher;
  Row key;
  key.reserve(keys.size());
  for (Row& row : rows) {
    EvalContext ectx;
    ectx.row = &row;
    ectx.params = params;
    key.clear();
    for (const ExprPtr& k : keys) key.push_back(Eval(*k, ectx));
    (*out)[hasher(key) % num_partitions].push_back(std::move(row));
  }
  return Status::OK();
}

// ---- GatherOp ----

GatherOp::GatherOp(std::vector<OperatorPtr> children)
    : children_(std::move(children)) {}

Status GatherOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.gather.open");
  ctx_ = ctx;
  buffer_ = cursor_ = 0;
  charged_bytes_ = 0;
  buffers_.assign(children_.size(), {});
  buffer_bytes_.assign(children_.size(), 0);

  std::vector<ExecStats> worker_stats(children_.size());
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(children_.size());
  for (size_t i = 0; i < children_.size(); ++i) {
    tasks.push_back([this, ctx, i, &worker_stats] {
      DECORR_FAULT_POINT("exec.gather.worker");
      ExecContext wctx;
      wctx.params = ctx->params;
      wctx.stats = &worker_stats[i];
      wctx.guard = ctx->guard;
      wctx.profile = ctx->profile;
      wctx.subquery_cache_bytes = ctx->subquery_cache_bytes;
      wctx.temp = ctx->temp;
      DECORR_ASSIGN_OR_RETURN(
          buffers_[i],
          CollectRows(children_[i].get(), &wctx, &buffer_bytes_[i]));
      return Status::OK();
    });
  }
  Status st = ParallelRun(&WorkerPool::Global(), std::move(tasks));
  for (size_t i = 0; i < children_.size(); ++i) {
    MergeStats(worker_stats[i], ctx->stats);
    charged_bytes_ += buffer_bytes_[i];
    metrics_.build_rows += static_cast<int64_t>(buffers_[i].size());
  }
  metrics_.bytes_charged += charged_bytes_;
  if (!st.ok()) {
    // A failed Open may never see Close; release the surviving workers'
    // charges now (each buffer is dropped with the operator anyway).
    if (ctx->guard) ctx->guard->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
    buffers_.clear();
    buffer_bytes_.clear();
  }
  return st;
}

Status GatherOp::NextImpl(Row* out, bool* eof) {
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  return NextFromBuffers(&buffers_, &buffer_bytes_, ctx_->guard,
                         &charged_bytes_, &buffer_, &cursor_, out, eof);
}

void GatherOp::CloseImpl() {
  buffers_.clear();
  buffer_bytes_.clear();
  if (ctx_ && ctx_->guard) ctx_->guard->ReleaseMemory(charged_bytes_);
  charged_bytes_ = 0;
}

std::string GatherOp::ToString(int indent) const {
  std::string out =
      Indent(indent) +
      StrFormat("Gather workers=%zu\n", children_.size());
  for (const OperatorPtr& c : children_) out += c->ToString(indent + 1);
  return out;
}

void GatherOp::Introspect(PlanIntrospection* out) const {
  const int width = children_.empty() ? 0 : children_[0]->output_width();
  for (size_t i = 0; i < children_.size(); ++i) {
    out->children.push_back({children_[i].get(),
                             PlanIntrospection::kInheritParams,
                             StrFormat("branch %zu", i)});
    const int w = children_[i]->output_width();
    out->ordinals.push_back(
        {w, width + 1, StrFormat("branch %zu width (vs branch 0)", i)});
    out->ordinals.push_back(
        {width, w + 1, StrFormat("branch 0 width (vs branch %zu)", i)});
  }
}

// ---- ParallelScanOp ----

ParallelScanOp::ParallelScanOp(TablePtr table, std::vector<int> projection,
                               ExprPtr filter, int dop)
    : table_(std::move(table)),
      projection_(std::move(projection)),
      filter_(std::move(filter)),
      storage_filter_(*table_, filter_.get()),
      dop_(dop < 1 ? 1 : dop) {}

Status ParallelScanOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.pscan.open");
  ctx_ = ctx;
  buffer_ = cursor_ = 0;
  charged_bytes_ = 0;

  const size_t n = table_->num_rows();
  const size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  morsel_buffers_.assign(num_morsels, {});
  // Indexed by morsel, not worker: each morsel is claimed by exactly one
  // worker, and the emission cursor returns a morsel's charge as soon as it
  // drains.
  morsel_bytes_.assign(num_morsels, 0);

  auto next_morsel = std::make_shared<std::atomic<size_t>>(0);
  std::vector<ExecStats> worker_stats(dop_);
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(dop_);
  for (int w = 0; w < dop_; ++w) {
    tasks.push_back([this, ctx, w, n, num_morsels, next_morsel,
                     &worker_stats] {
      ExecStats* stats = &worker_stats[w];
      std::vector<char> match;
      while (true) {
        const size_t m =
            next_morsel->fetch_add(1, std::memory_order_relaxed);
        if (m >= num_morsels) return Status::OK();
        DECORR_FAULT_POINT("exec.pscan.morsel");
        std::vector<Row>& buf = morsel_buffers_[m];
        const size_t begin = m * kMorselRows;
        const size_t end = std::min(begin + kMorselRows, n);
        storage_filter_.Eval(ctx->params, RowSet::Range(begin, end - begin),
                             &match);
        for (size_t r = begin; r < end; ++r) {
          if (ctx->guard) DECORR_RETURN_IF_ERROR(ctx->guard->Check());
          ++stats->rows_scanned;
          if (!match[r - begin]) continue;
          Row out_row;
          out_row.reserve(projection_.size());
          AppendColumns(*table_, r, projection_, &out_row);
          if (ctx->guard) {
            DECORR_RETURN_IF_ERROR(ctx->guard->ChargeRows(1));
            const int64_t bytes = ApproxRowBytes(out_row);
            morsel_bytes_[m] += bytes;
            DECORR_RETURN_IF_ERROR(ctx->guard->ChargeMemory(bytes));
          }
          buf.push_back(std::move(out_row));
        }
      }
    });
  }
  Status st = ParallelRun(&WorkerPool::Global(), std::move(tasks));
  int64_t produced = 0;
  for (int w = 0; w < dop_; ++w) {
    MergeStats(worker_stats[w], ctx->stats);
    metrics_.rows_in_self += worker_stats[w].rows_scanned;
  }
  for (int64_t bytes : morsel_bytes_) charged_bytes_ += bytes;
  for (const std::vector<Row>& buf : morsel_buffers_) {
    produced += static_cast<int64_t>(buf.size());
  }
  metrics_.build_rows += produced;
  metrics_.bytes_charged += charged_bytes_;
  if (!st.ok()) {
    if (ctx->guard) ctx->guard->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
    morsel_buffers_.clear();
    morsel_bytes_.clear();
  }
  return st;
}

Status ParallelScanOp::NextImpl(Row* out, bool* eof) {
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  return NextFromBuffers(&morsel_buffers_, &morsel_bytes_, ctx_->guard,
                         &charged_bytes_, &buffer_, &cursor_, out, eof);
}

void ParallelScanOp::CloseImpl() {
  morsel_buffers_.clear();
  morsel_bytes_.clear();
  if (ctx_ && ctx_->guard) ctx_->guard->ReleaseMemory(charged_bytes_);
  charged_bytes_ = 0;
}

std::string ParallelScanOp::name() const {
  return StrFormat("ParallelScan(%s, dop=%d)",
                   table_->schema().name().c_str(), dop_);
}

std::string ParallelScanOp::ToString(int indent) const {
  std::string out = Indent(indent) + name() + " " +
                    ColumnList(*table_, projection_);
  if (filter_) out += " filter=" + filter_->ToString();
  return out + "\n";
}

void ParallelScanOp::Introspect(PlanIntrospection* out) const {
  if (filter_) {
    out->exprs.push_back({filter_.get(), table_->num_columns(), "filter"});
  }
  for (size_t i = 0; i < projection_.size(); ++i) {
    out->ordinals.push_back({projection_[i], table_->num_columns(),
                             StrFormat("projection %zu", i)});
  }
}

// ---- ParallelHashJoinOp ----

ParallelHashJoinOp::ParallelHashJoinOp(
    OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> left_keys,
    std::vector<ExprPtr> right_keys, ExprPtr residual, JoinType join_type,
    std::vector<bool> null_safe_keys, int dop)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      join_type_(join_type),
      null_safe_keys_(std::move(null_safe_keys)),
      dop_(dop < 1 ? 1 : dop) {}

Status ParallelHashJoinOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.pjoin.open");
  ctx_ = ctx;
  buffer_ = cursor_ = 0;
  charged_bytes_ = 0;
  worker_.reset();

  // Coordinator phase: drain both inputs, then co-partition on the join
  // keys. Any row pair that can match — under plain or NULL-safe key
  // semantics — evaluates to RowEq-equal key rows, hashes identically, and
  // lands in the same partition.
  DECORR_ASSIGN_OR_RETURN(std::vector<Row> left_rows,
                          CollectRows(left_.get(), ctx, &charged_bytes_));
  DECORR_ASSIGN_OR_RETURN(std::vector<Row> right_rows,
                          CollectRows(right_.get(), ctx, &charged_bytes_));
  metrics_.build_rows +=
      static_cast<int64_t>(left_rows.size() + right_rows.size());

  std::vector<std::vector<Row>> left_parts, right_parts;
  DECORR_RETURN_IF_ERROR(HashPartitionRows(
      std::move(left_rows), left_keys_, ctx->params, dop_, &left_parts));
  DECORR_RETURN_IF_ERROR(HashPartitionRows(
      std::move(right_rows), right_keys_, ctx->params, dop_, &right_parts));

  // Worker phase: one private HashJoinOp clone per partition pair.
  partitions_out_.assign(dop_, {});
  buffer_bytes_.assign(dop_, 0);
  std::vector<OperatorPtr> clones(dop_);
  std::vector<ExecStats> worker_stats(dop_);
  for (int p = 0; p < dop_; ++p) {
    auto lp = std::make_shared<const std::vector<Row>>(
        std::move(left_parts[p]));
    auto rp = std::make_shared<const std::vector<Row>>(
        std::move(right_parts[p]));
    clones[p] = std::make_unique<HashJoinOp>(
        std::make_unique<RowsScanOp>(std::move(lp), left_->output_width()),
        std::make_unique<RowsScanOp>(std::move(rp), right_->output_width()),
        CloneExprs(left_keys_), CloneExprs(right_keys_),
        residual_ ? residual_->Clone() : nullptr, join_type_,
        null_safe_keys_);
  }
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(dop_);
  for (int p = 0; p < dop_; ++p) {
    tasks.push_back([this, ctx, p, &clones, &worker_stats] {
      DECORR_FAULT_POINT("exec.pjoin.worker");
      ExecContext wctx;
      wctx.params = ctx->params;
      wctx.stats = &worker_stats[p];
      wctx.guard = ctx->guard;
      wctx.profile = ctx->profile;
      wctx.subquery_cache_bytes = ctx->subquery_cache_bytes;
      wctx.temp = ctx->temp;
      DECORR_ASSIGN_OR_RETURN(
          partitions_out_[p],
          CollectRows(clones[p].get(), &wctx, &buffer_bytes_[p]));
      return Status::OK();
    });
  }
  Status st = ParallelRun(&WorkerPool::Global(), std::move(tasks));
  for (int p = 0; p < dop_; ++p) {
    MergeStats(worker_stats[p], ctx->stats);
    charged_bytes_ += buffer_bytes_[p];
  }
  metrics_.bytes_charged += charged_bytes_;
  // Aggregate the clone pipelines into one representative subtree for the
  // metrics snapshot; the clones themselves are discarded.
  worker_ = std::move(clones[0]);
  for (int p = 1; p < dop_; ++p) worker_->MergeMetricsFrom(*clones[p]);
  if (!st.ok()) {
    if (ctx->guard) ctx->guard->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
    partitions_out_.clear();
    buffer_bytes_.clear();
  }
  return st;
}

Status ParallelHashJoinOp::NextImpl(Row* out, bool* eof) {
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  return NextFromBuffers(&partitions_out_, &buffer_bytes_, ctx_->guard,
                         &charged_bytes_, &buffer_, &cursor_, out, eof);
}

void ParallelHashJoinOp::CloseImpl() {
  partitions_out_.clear();
  buffer_bytes_.clear();
  if (ctx_ && ctx_->guard) ctx_->guard->ReleaseMemory(charged_bytes_);
  charged_bytes_ = 0;
}

std::string ParallelHashJoinOp::name() const {
  return StrFormat("ParallelHashJoin(%s, dop=%d)",
                   join_type_ == JoinType::kLeftOuter ? "left outer" : "inner",
                   dop_);
}

std::string ParallelHashJoinOp::ToString(int indent) const {
  std::string out = Indent(indent) + name() + " keys=(";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += left_keys_[i]->ToString() + "=" + right_keys_[i]->ToString();
    if (i < null_safe_keys_.size() && null_safe_keys_[i]) out += " [nulleq]";
  }
  out += ")";
  if (residual_) out += " residual=" + residual_->ToString();
  out += "\n";
  out += left_->ToString(indent + 1);
  out += right_->ToString(indent + 1);
  return out;
}

void ParallelHashJoinOp::Introspect(PlanIntrospection* out) const {
  const int lw = left_->output_width();
  const int rw = right_->output_width();
  out->children.push_back(
      {left_.get(), PlanIntrospection::kInheritParams, "left"});
  out->children.push_back(
      {right_.get(), PlanIntrospection::kInheritParams, "right"});
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    out->exprs.push_back(
        {left_keys_[i].get(), lw, StrFormat("left key %zu", i)});
  }
  for (size_t i = 0; i < right_keys_.size(); ++i) {
    out->exprs.push_back(
        {right_keys_[i].get(), rw, StrFormat("right key %zu", i)});
  }
  const size_t pairs = std::min(left_keys_.size(), right_keys_.size());
  for (size_t i = 0; i < pairs; ++i) {
    out->key_pairs.push_back({left_keys_[i].get(), right_keys_[i].get()});
  }
  if (residual_) {
    out->exprs.push_back({residual_.get(), lw + rw, "residual"});
  }
  if (worker_) {
    out->children.push_back(
        {worker_.get(), PlanIntrospection::kInheritParams, "worker"});
  }
}

// ---- ParallelHashAggregateOp ----

ParallelHashAggregateOp::ParallelHashAggregateOp(
    OperatorPtr child, std::vector<ExprPtr> group_keys,
    std::vector<AggSpec> aggs, int dop)
    : child_(std::move(child)),
      group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)),
      dop_(dop < 1 ? 1 : dop) {}

Status ParallelHashAggregateOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.pagg.open");
  ctx_ = ctx;
  buffer_ = cursor_ = 0;
  charged_bytes_ = 0;
  worker_.reset();
  if (group_keys_.empty()) {
    // Global aggregates must stay serial (one instance produces the
    // empty-input row); the planner never builds this shape.
    return Status::Internal(
        "ParallelHashAggregate requires at least one group key");
  }

  DECORR_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          CollectRows(child_.get(), ctx, &charged_bytes_));
  metrics_.build_rows += static_cast<int64_t>(rows.size());
  std::vector<std::vector<Row>> parts;
  DECORR_RETURN_IF_ERROR(HashPartitionRows(std::move(rows), group_keys_,
                                           ctx->params, dop_, &parts));

  partitions_out_.assign(dop_, {});
  buffer_bytes_.assign(dop_, 0);
  std::vector<OperatorPtr> clones(dop_);
  std::vector<ExecStats> worker_stats(dop_);
  for (int p = 0; p < dop_; ++p) {
    auto part =
        std::make_shared<const std::vector<Row>>(std::move(parts[p]));
    std::vector<AggSpec> agg_clones;
    agg_clones.reserve(aggs_.size());
    for (const AggSpec& a : aggs_) {
      AggSpec c;
      c.kind = a.kind;
      c.arg = a.arg ? a.arg->Clone() : nullptr;
      c.distinct = a.distinct;
      c.result_type = a.result_type;
      agg_clones.push_back(std::move(c));
    }
    clones[p] = std::make_unique<HashAggregateOp>(
        std::make_unique<RowsScanOp>(std::move(part),
                                     child_->output_width()),
        CloneExprs(group_keys_), std::move(agg_clones));
  }
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(dop_);
  for (int p = 0; p < dop_; ++p) {
    tasks.push_back([this, ctx, p, &clones, &worker_stats] {
      DECORR_FAULT_POINT("exec.pagg.worker");
      ExecContext wctx;
      wctx.params = ctx->params;
      wctx.stats = &worker_stats[p];
      wctx.guard = ctx->guard;
      wctx.profile = ctx->profile;
      wctx.subquery_cache_bytes = ctx->subquery_cache_bytes;
      wctx.temp = ctx->temp;
      DECORR_ASSIGN_OR_RETURN(
          partitions_out_[p],
          CollectRows(clones[p].get(), &wctx, &buffer_bytes_[p]));
      return Status::OK();
    });
  }
  Status st = ParallelRun(&WorkerPool::Global(), std::move(tasks));
  for (int p = 0; p < dop_; ++p) {
    MergeStats(worker_stats[p], ctx->stats);
    charged_bytes_ += buffer_bytes_[p];
  }
  metrics_.bytes_charged += charged_bytes_;
  worker_ = std::move(clones[0]);
  for (int p = 1; p < dop_; ++p) worker_->MergeMetricsFrom(*clones[p]);
  if (!st.ok()) {
    if (ctx->guard) ctx->guard->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
    partitions_out_.clear();
    buffer_bytes_.clear();
  }
  return st;
}

Status ParallelHashAggregateOp::NextImpl(Row* out, bool* eof) {
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  return NextFromBuffers(&partitions_out_, &buffer_bytes_, ctx_->guard,
                         &charged_bytes_, &buffer_, &cursor_, out, eof);
}

void ParallelHashAggregateOp::CloseImpl() {
  partitions_out_.clear();
  buffer_bytes_.clear();
  if (ctx_ && ctx_->guard) ctx_->guard->ReleaseMemory(charged_bytes_);
  charged_bytes_ = 0;
}

std::string ParallelHashAggregateOp::name() const {
  return StrFormat("ParallelHashAggregate(dop=%d)", dop_);
}

std::string ParallelHashAggregateOp::ToString(int indent) const {
  std::string out = Indent(indent) + name() + " keys=(";
  for (size_t i = 0; i < group_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_keys_[i]->ToString();
  }
  out += ")\n";
  out += child_->ToString(indent + 1);
  return out;
}

void ParallelHashAggregateOp::Introspect(PlanIntrospection* out) const {
  const int w = child_->output_width();
  out->children.push_back(
      {child_.get(), PlanIntrospection::kInheritParams, "input"});
  for (size_t i = 0; i < group_keys_.size(); ++i) {
    out->exprs.push_back(
        {group_keys_[i].get(), w, StrFormat("group key %zu", i)});
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (aggs_[i].arg) {
      out->exprs.push_back(
          {aggs_[i].arg.get(), w, StrFormat("agg arg %zu", i)});
    }
  }
  if (worker_) {
    out->children.push_back(
        {worker_.get(), PlanIntrospection::kInheritParams, "worker"});
  }
}

}  // namespace decorr
