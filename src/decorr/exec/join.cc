#include "decorr/exec/join.h"

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/expr/eval.h"

namespace decorr {

namespace {

// Evaluates key expressions over `row` into *out (a scratch row reused
// across calls); returns false if any key is NULL (SQL equality join keys
// never match NULL). Positions flagged in `null_safe` (empty = none) keep
// their NULL as a key value instead — the KeyTable groups NULLs together,
// giving IS NOT DISTINCT FROM matches.
bool EvalKeys(const std::vector<ExprPtr>& exprs, const Row& row,
              const Row* params, const std::vector<bool>& null_safe,
              Row* out) {
  EvalContext ectx;
  ectx.row = &row;
  ectx.params = params;
  out->clear();
  out->reserve(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    out->push_back(Eval(*exprs[i], ectx));
    if (out->back().is_null() && (null_safe.empty() || !null_safe[i])) {
      return false;
    }
  }
  return true;
}

// Join output rows are written straight into the caller's row at their
// final width: one allocation at most, none when the caller reuses a row.
void Concat(const Row& left, const Row& right, Row* out) {
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
}

// left ++ `width` NULLs (LOJ padding).
void PadRight(const Row& left, int width, Row* out) {
  out->clear();
  out->reserve(left.size() + width);
  out->insert(out->end(), left.begin(), left.end());
  out->resize(left.size() + width);
}

}  // namespace

// ---- HashJoinOp ----

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, ExprPtr residual,
                       JoinType join_type, std::vector<bool> null_safe_keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      join_type_(join_type),
      null_safe_keys_(std::move(null_safe_keys)),
      table_(right_keys_.size()) {
  if (join_type_ != JoinType::kInner || left_keys_.size() != 1) return;
  const Expr& probe = *left_keys_[0];
  if (probe.kind != ExprKind::kColumnRef || probe.slot < 0) return;
  key_filter_.keys = &table_;
  key_filter_.null_safe = !null_safe_keys_.empty() && null_safe_keys_[0];
  left_->OfferKeyFilter(probe.slot, &key_filter_);
}

bool HashJoinOp::OfferKeyFilter(int column, const KeyFilter* filter) {
  return column < left_->output_width() &&
         left_->OfferKeyFilter(column, filter);
}

Status HashJoinOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.hashjoin.build");
  ctx_ = ctx;
  ClearBuild();
  charged_bytes_ = 0;
  probing_ = false;
  left_eof_ = false;
  ResetSpillState();

  // Build phase over the right child.
  DECORR_RETURN_IF_ERROR(right_->Open(ctx));
  while (true) {
    Row row;
    bool eof = false;
    Status st = right_->Next(&row, &eof);
    if (st.ok() && ctx->guard) st = ctx->guard->Check();
    if (!st.ok()) {
      right_->Close();
      return st;
    }
    if (eof) break;
    if (!EvalKeys(right_keys_, row, ctx->params, null_safe_keys_, &key_)) {
      continue;
    }
    if (ctx->guard) {
      const int64_t bytes = ApproxRowBytes(row) + ApproxRowBytes(key_);
      if (spilling_) {
        // Already partitioned to disk: route the row there, no memory
        // charge (rows are still charged — disk materialization is work).
        st = ctx->guard->ChargeRows(1);
        if (st.ok()) st = WriteBuildRecord(key_, row);
        if (!st.ok()) {
          right_->Close();
          return st;
        }
        ++metrics_.build_rows;
        continue;
      }
      if (ctx->temp != nullptr) {
        st = ctx->guard->ChargeRows(1);
        bool spilled = false;
        if (st.ok()) {
          st = ctx->guard->ChargeMemoryOrSpill(
              bytes, [this] { return BeginSpillBuild(); }, &spilled);
        }
        if (st.ok() && spilled) st = WriteBuildRecord(key_, row);
        if (!st.ok()) {
          right_->Close();
          return st;
        }
        if (spilled) {
          ++metrics_.build_rows;
          continue;
        }
        charged_bytes_ += bytes;
      } else {
        charged_bytes_ += bytes;
        st = ctx->guard->ChargeRows(1);
        if (st.ok()) st = ctx->guard->ChargeMemory(bytes);
        if (!st.ok()) {
          right_->Close();
          return st;
        }
      }
    }
    ++metrics_.build_rows;
    AddBuildRow(std::move(row));
  }
  right_->Close();
  metrics_.bytes_charged += charged_bytes_;
  if (spilling_) return SpillProbeSide(ctx);
  // The build is complete and in memory: dense INT64 keys switch to direct
  // addressing, and probe rows without a key in it can be rejected where
  // they are read. (A spilled join's partitions stay chained.)
  table_.FinishBuild();
  key_filter_.live = key_filter_.keys != nullptr;
  Status st = left_->Open(ctx);
  if (!st.ok()) key_filter_.live = false;
  return st;
}

void HashJoinOp::ClearBuild() {
  table_.Clear();
  build_rows_.clear();
  row_next_.clear();
  key_first_.clear();
  key_last_.clear();
}

void HashJoinOp::AddBuildRow(Row row) {
  bool inserted = false;
  const uint32_t id = table_.Insert(key_, &inserted);
  const uint32_t r = static_cast<uint32_t>(build_rows_.size());
  build_rows_.push_back(std::move(row));
  row_next_.push_back(kNoRow);
  if (inserted) {
    key_first_.push_back(r);
    key_last_.push_back(r);
  } else {
    row_next_[key_last_[id]] = r;
    key_last_[id] = r;
  }
}

void HashJoinOp::StartProbe(const Value* key) {
  probing_ = true;
  emitted_match_ = false;
  match_ = kNoRow;
  if (key == nullptr) return;
  const uint32_t id = table_.Find(key);
  if (id != KeyTable::kNotFound) match_ = key_first_[id];
}

bool HashJoinOp::NextMatch(Row* out) {
  while (match_ != kNoRow) {
    const Row& right_row = build_rows_[match_];
    match_ = row_next_[match_];
    Concat(current_left_, right_row, out);
    if (residual_) {
      EvalContext ectx;
      ectx.row = out;
      ectx.params = ctx_->params;
      if (!EvalPredicate(*residual_, ectx)) continue;
    }
    emitted_match_ = true;
    return true;
  }
  probing_ = false;
  if (join_type_ == JoinType::kLeftOuter && !emitted_match_) {
    PadRight(current_left_, right_->output_width(), out);
    return true;
  }
  return false;
}

void HashJoinOp::AddSpillWritten(int64_t bytes) {
  metrics_.spill_bytes_written += bytes;
  if (ctx_ != nullptr && ctx_->stats != nullptr) {
    ctx_->stats->spill_bytes_written += bytes;
  }
}

void HashJoinOp::AddSpillRead(int64_t bytes) {
  metrics_.spill_bytes_read += bytes;
  if (ctx_ != nullptr && ctx_->stats != nullptr) {
    ctx_->stats->spill_bytes_read += bytes;
  }
}

void HashJoinOp::ResetSpillState() {
  spilling_ = false;
  spill_out_.clear();
  spill_work_.clear();
  probe_reader_.reset();
  current_part_ = SpillPart{};
  loj_null_reader_.reset();
  loj_null_ = SpillBucket{};
  part_charged_ = 0;
}

Status HashJoinOp::WriteBuildRecord(const Row& key, const Row& row) {
  Row rec;
  Concat(key, row, &rec);
  const size_t idx =
      SpillPartitionHash(key, /*depth=*/0) % spill_out_.size();
  return spill_out_[idx].build.writer->WriteRow(rec);
}

// First budget trip during the build: migrate the in-memory table to
// kSpillFanout partition files and release its charges; the rest of the
// build side streams straight to the partitions.
Status HashJoinOp::BeginSpillBuild() {
  DECORR_FAULT_POINT("exec.spill.join.partition");
  DECORR_ASSIGN_OR_RETURN(
      std::vector<SpillBucket> buckets,
      CreateSpillBuckets(ctx_->temp, "join-build", kSpillFanout));
  spill_out_.clear();
  spill_out_.resize(kSpillFanout);
  for (int i = 0; i < kSpillFanout; ++i) {
    spill_out_[i].build = std::move(buckets[i]);
    spill_out_[i].depth = 0;
  }
  spilling_ = true;
  for (uint32_t k = 0; k < table_.size(); ++k) {
    const Row key = table_.KeyRow(k);
    for (uint32_t r = key_first_[k]; r != kNoRow; r = row_next_[r]) {
      DECORR_RETURN_IF_ERROR(WriteBuildRecord(key, build_rows_[r]));
    }
  }
  ClearBuild();
  if (ctx_->guard != nullptr) ctx_->guard->ReleaseMemory(charged_bytes_);
  metrics_.bytes_charged += charged_bytes_;
  charged_bytes_ = 0;
  metrics_.spill_partitions += kSpillFanout;
  ++metrics_.spill_passes;
  if (ctx_->stats != nullptr) {
    ctx_->stats->spill_partitions += kSpillFanout;
    ++ctx_->stats->spill_passes;
  }
  return Status::OK();
}

// Build side fully partitioned: drain the probe (left) child into matching
// probe partition files so NextImpl can process partition pairs one at a
// time. LOJ probe rows with a NULL key can never match; they go to a
// dedicated file and are emitted null-padded first.
Status HashJoinOp::SpillProbeSide(ExecContext* ctx) {
  for (auto& p : spill_out_) {
    DECORR_RETURN_IF_ERROR(p.build.writer->Finish());
  }
  DECORR_ASSIGN_OR_RETURN(
      std::vector<SpillBucket> buckets,
      CreateSpillBuckets(ctx->temp, "join-probe", kSpillFanout));
  for (int i = 0; i < kSpillFanout; ++i) {
    spill_out_[i].probe = std::move(buckets[i]);
  }
  if (join_type_ == JoinType::kLeftOuter) {
    DECORR_ASSIGN_OR_RETURN(loj_null_.file, ctx->temp->Create("join-lojnull"));
    loj_null_.writer = std::make_unique<SpillWriter>(loj_null_.file.get());
  }
  DECORR_RETURN_IF_ERROR(left_->Open(ctx));
  while (true) {
    Row row;
    bool eof = false;
    Status st = left_->Next(&row, &eof);
    if (st.ok() && ctx->guard) st = ctx->guard->Check();
    if (!st.ok()) {
      left_->Close();
      return st;
    }
    if (eof) break;
    if (!EvalKeys(left_keys_, row, ctx->params, null_safe_keys_, &key_)) {
      if (join_type_ == JoinType::kLeftOuter) {
        st = loj_null_.writer->WriteRow(row);
        if (!st.ok()) {
          left_->Close();
          return st;
        }
      }
      continue;
    }
    Row rec;
    Concat(key_, row, &rec);
    const size_t idx = SpillPartitionHash(key_, /*depth=*/0) % kSpillFanout;
    st = spill_out_[idx].probe.writer->WriteRow(rec);
    if (!st.ok()) {
      left_->Close();
      return st;
    }
  }
  left_->Close();
  int64_t written = 0;
  for (auto& p : spill_out_) {
    DECORR_RETURN_IF_ERROR(p.probe.writer->Finish());
    written += p.build.writer->bytes_written() +
               p.probe.writer->bytes_written();
  }
  if (loj_null_.writer) {
    DECORR_RETURN_IF_ERROR(loj_null_.writer->Finish());
    written += loj_null_.writer->bytes_written();
    loj_null_reader_ = std::make_unique<SpillReader>(loj_null_.file.get());
  }
  AddSpillWritten(written);
  spill_work_ = std::move(spill_out_);
  spill_out_.clear();
  left_eof_ = true;
  return Status::OK();
}

// Loads one build partition into the in-memory table; when even one
// partition does not fit, repartitions it with a deeper salt and pushes the
// sub-partitions back onto the work stack.
Status HashJoinOp::LoadNextPartition() {
  SpillPart part = std::move(spill_work_.back());
  spill_work_.pop_back();
  ClearBuild();
  SpillReader reader(part.build.file.get());
  const size_t nk = right_keys_.size();
  bool repartitioned = false;
  while (true) {
    Row rec;
    bool reof = false;
    DECORR_RETURN_IF_ERROR(reader.ReadRow(&rec, &reof));
    if (reof) break;
    key_.clear();
    key_.insert(key_.end(), rec.begin(),
                rec.begin() + static_cast<ptrdiff_t>(nk));
    Row row(rec.begin() + static_cast<ptrdiff_t>(nk), rec.end());
    if (ctx_->guard != nullptr) {
      const int64_t bytes = ApproxRowBytes(row) + ApproxRowBytes(key_);
      bool spilled = false;
      Status st = ctx_->guard->ChargeMemoryOrSpill(
          bytes,
          [&] { return RepartitionBuild(&part, &reader, key_, row); },
          &spilled);
      if (!st.ok()) return st;
      if (spilled) {
        repartitioned = true;
        break;
      }
      part_charged_ += bytes;
    }
    AddBuildRow(std::move(row));
  }
  AddSpillRead(reader.bytes_read());
  if (repartitioned) {
    ClearBuild();
    if (ctx_->guard != nullptr) ctx_->guard->ReleaseMemory(part_charged_);
    part_charged_ = 0;
    return Status::OK();
  }
  current_part_ = std::move(part);
  probe_reader_ = std::make_unique<SpillReader>(current_part_.probe.file.get());
  return Status::OK();
}

Status HashJoinOp::RepartitionBuild(SpillPart* part, SpillReader* reader,
                                    const Row& cur_key, const Row& cur_row) {
  DECORR_FAULT_POINT("exec.spill.join.partition");
  const int depth = part->depth + 1;
  if (depth > kSpillMaxDepth) {
    return Status::ResourceExhausted(StrFormat(
        "hash join spill exceeded max repartition depth %d under the memory "
        "budget",
        kSpillMaxDepth));
  }
  DECORR_ASSIGN_OR_RETURN(
      std::vector<SpillBucket> bbuckets,
      CreateSpillBuckets(ctx_->temp, "join-build", kSpillFanout));
  DECORR_ASSIGN_OR_RETURN(
      std::vector<SpillBucket> pbuckets,
      CreateSpillBuckets(ctx_->temp, "join-probe", kSpillFanout));
  std::vector<SpillPart> subs(kSpillFanout);
  for (int i = 0; i < kSpillFanout; ++i) {
    subs[i].build = std::move(bbuckets[i]);
    subs[i].probe = std::move(pbuckets[i]);
    subs[i].depth = depth;
  }
  auto write_build = [&](const Row& key, const Row& row) -> Status {
    Row rec;
    Concat(key, row, &rec);
    const size_t idx = SpillPartitionHash(key, depth) % kSpillFanout;
    return subs[idx].build.writer->WriteRow(rec);
  };
  // Rows already loaded for this partition, the row whose charge tripped,
  // then the unread remainder of the partition's build file.
  for (uint32_t k = 0; k < table_.size(); ++k) {
    const Row key = table_.KeyRow(k);
    for (uint32_t r = key_first_[k]; r != kNoRow; r = row_next_[r]) {
      DECORR_RETURN_IF_ERROR(write_build(key, build_rows_[r]));
    }
  }
  DECORR_RETURN_IF_ERROR(write_build(cur_key, cur_row));
  const size_t nk = right_keys_.size();
  while (true) {
    Row rec;
    bool reof = false;
    DECORR_RETURN_IF_ERROR(reader->ReadRow(&rec, &reof));
    if (reof) break;
    Row key(rec.begin(), rec.begin() + static_cast<ptrdiff_t>(nk));
    Row row(rec.begin() + static_cast<ptrdiff_t>(nk), rec.end());
    DECORR_RETURN_IF_ERROR(write_build(key, row));
  }
  // Re-bucket the matching probe file with the same deeper salt.
  const size_t nkl = left_keys_.size();
  SpillReader preader(part->probe.file.get());
  while (true) {
    Row rec;
    bool reof = false;
    DECORR_RETURN_IF_ERROR(preader.ReadRow(&rec, &reof));
    if (reof) break;
    const Row key(rec.begin(), rec.begin() + static_cast<ptrdiff_t>(nkl));
    const size_t idx = SpillPartitionHash(key, depth) % kSpillFanout;
    DECORR_RETURN_IF_ERROR(subs[idx].probe.writer->WriteRow(rec));
  }
  AddSpillRead(preader.bytes_read());
  int64_t written = 0;
  for (auto& s : subs) {
    DECORR_RETURN_IF_ERROR(s.build.writer->Finish());
    DECORR_RETURN_IF_ERROR(s.probe.writer->Finish());
    written += s.build.writer->bytes_written() +
               s.probe.writer->bytes_written();
  }
  AddSpillWritten(written);
  for (auto& s : subs) spill_work_.push_back(std::move(s));
  metrics_.spill_partitions += kSpillFanout;
  ++metrics_.spill_passes;
  if (ctx_->stats != nullptr) {
    ctx_->stats->spill_partitions += kSpillFanout;
    ++ctx_->stats->spill_passes;
  }
  return Status::OK();
}

Status HashJoinOp::SpillNext(Row* out, bool* eof) {
  while (true) {
    DECORR_RETURN_IF_ERROR(ctx_->Check());
    if (probing_ && NextMatch(out)) {
      *eof = false;
      return Status::OK();
    }
    if (loj_null_reader_) {
      Row row;
      bool reof = false;
      DECORR_RETURN_IF_ERROR(loj_null_reader_->ReadRow(&row, &reof));
      if (!reof) {
        PadRight(row, right_->output_width(), out);
        *eof = false;
        return Status::OK();
      }
      AddSpillRead(loj_null_reader_->bytes_read());
      loj_null_reader_.reset();
      loj_null_ = SpillBucket{};
      continue;
    }
    if (probe_reader_) {
      Row rec;
      bool reof = false;
      DECORR_RETURN_IF_ERROR(probe_reader_->ReadRow(&rec, &reof));
      if (reof) {
        AddSpillRead(probe_reader_->bytes_read());
        probe_reader_.reset();
        current_part_ = SpillPart{};
        ClearBuild();
        if (ctx_->guard != nullptr) ctx_->guard->ReleaseMemory(part_charged_);
        part_charged_ = 0;
        continue;
      }
      // Records are key ++ row: probe with the key in place.
      const size_t nk = left_keys_.size();
      current_left_.assign(rec.begin() + static_cast<ptrdiff_t>(nk),
                           rec.end());
      StartProbe(rec.data());
      // A probe row without matches emits its LOJ padding right away.
      if (match_ == kNoRow && NextMatch(out)) {
        *eof = false;
        return Status::OK();
      }
      continue;
    }
    if (!spill_work_.empty()) {
      DECORR_RETURN_IF_ERROR(LoadNextPartition());
      continue;
    }
    *eof = true;
    return Status::OK();
  }
}

Status HashJoinOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.hashjoin.next");
  if (spilling_) return SpillNext(out, eof);
  while (true) {
    // Drain the current probe row: its matches, then any LOJ padding.
    if (probing_ && NextMatch(out)) {
      *eof = false;
      return Status::OK();
    }
    if (left_eof_) {
      *eof = true;
      return Status::OK();
    }
    // Fetch the next probe row. A NULL key matches nothing.
    bool child_eof = false;
    DECORR_RETURN_IF_ERROR(left_->Next(&current_left_, &child_eof));
    if (child_eof) {
      left_eof_ = true;
      continue;
    }
    const bool has_key = EvalKeys(left_keys_, current_left_, ctx_->params,
                                  null_safe_keys_, &key_);
    StartProbe(has_key ? key_.data() : nullptr);
  }
}

void HashJoinOp::CloseImpl() {
  left_->Close();
  key_filter_.live = false;
  ClearBuild();
  if (ctx_ != nullptr && ctx_->guard != nullptr) {
    ctx_->guard->ReleaseMemory(charged_bytes_ + part_charged_);
  }
  charged_bytes_ = 0;
  probing_ = false;
  // Drops any remaining spill files (partition stacks, readers) so a
  // cancelled or failed query leaves no scratch data behind and an Apply
  // re-open starts clean.
  ResetSpillState();
}

std::string HashJoinOp::name() const {
  return join_type_ == JoinType::kInner ? "HashJoin" : "HashLeftOuterJoin";
}

std::string HashJoinOp::ToString(int indent) const {
  std::string out = Indent(indent) + name() + " on ";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += " AND ";
    const bool null_safe = !null_safe_keys_.empty() && null_safe_keys_[i];
    out += left_keys_[i]->ToString() + (null_safe ? "<=>" : "=") +
           right_keys_[i]->ToString();
  }
  if (residual_) out += " residual=" + residual_->ToString();
  out += "\n";
  out += left_->ToString(indent + 1);
  out += right_->ToString(indent + 1);
  return out;
}

// ---- NestedLoopJoinOp ----

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate, JoinType join_type)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      join_type_(join_type) {}

Status NestedLoopJoinOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.nlj.open");
  ctx_ = ctx;
  charged_bytes_ = 0;
  DECORR_ASSIGN_OR_RETURN(right_rows_,
                          CollectRows(right_.get(), ctx, &charged_bytes_));
  metrics_.build_rows += static_cast<int64_t>(right_rows_.size());
  metrics_.bytes_charged += charged_bytes_;
  left_eof_ = false;
  right_cursor_ = right_rows_.size();  // force first left fetch
  emitted_match_ = true;
  return left_->Open(ctx);
}

Status NestedLoopJoinOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.nlj.next");
  while (true) {
    DECORR_RETURN_IF_ERROR(ctx_->Check());
    while (right_cursor_ < right_rows_.size()) {
      Concat(current_left_, right_rows_[right_cursor_++], out);
      if (predicate_) {
        EvalContext ectx;
        ectx.row = out;
        ectx.params = ctx_->params;
        if (!EvalPredicate(*predicate_, ectx)) continue;
      }
      emitted_match_ = true;
      *eof = false;
      return Status::OK();
    }
    if (!emitted_match_ && join_type_ == JoinType::kLeftOuter) {
      emitted_match_ = true;
      PadRight(current_left_, right_->output_width(), out);
      *eof = false;
      return Status::OK();
    }
    if (left_eof_) {
      *eof = true;
      return Status::OK();
    }
    bool child_eof = false;
    DECORR_RETURN_IF_ERROR(left_->Next(&current_left_, &child_eof));
    if (child_eof) {
      left_eof_ = true;
      continue;
    }
    emitted_match_ = false;
    right_cursor_ = 0;
  }
}

void NestedLoopJoinOp::CloseImpl() {
  left_->Close();
  right_rows_.clear();
  if (ctx_ != nullptr && ctx_->guard != nullptr) {
    ctx_->guard->ReleaseMemory(charged_bytes_);
  }
  charged_bytes_ = 0;
}

std::string NestedLoopJoinOp::ToString(int indent) const {
  std::string out = Indent(indent) + name();
  if (predicate_) out += " on " + predicate_->ToString();
  if (join_type_ == JoinType::kLeftOuter) out += " (left outer)";
  out += "\n";
  out += left_->ToString(indent + 1);
  out += right_->ToString(indent + 1);
  return out;
}

// ---- IndexJoinOp ----

IndexJoinOp::IndexJoinOp(OperatorPtr left, TablePtr table,
                         std::shared_ptr<HashIndex> index,
                         std::vector<ExprPtr> key_exprs,
                         std::vector<int> projection, ExprPtr table_filter,
                         ExprPtr residual)
    : left_(std::move(left)),
      table_(std::move(table)),
      index_(std::move(index)),
      key_exprs_(std::move(key_exprs)),
      projection_(std::move(projection)),
      table_filter_(std::move(table_filter)),
      storage_filter_(*table_, table_filter_.get()),
      residual_(std::move(residual)) {}

Status IndexJoinOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.indexjoin.open");
  ctx_ = ctx;
  matches_.Reset(RowSet{});
  left_eof_ = false;
  return left_->Open(ctx);
}

Status IndexJoinOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.indexjoin.next");
  EvalContext ectx;
  ectx.params = ctx_->params;
  while (true) {
    DECORR_RETURN_IF_ERROR(ctx_->Check());
    while (true) {
      size_t r = 0;
      bool matches_eof = false;
      int64_t walked = 0;
      Status st = matches_.Next(storage_filter_, *ctx_, &r, &matches_eof,
                                &walked, &metrics_.keyfilter_rejected);
      ctx_->stats->rows_scanned += walked;
      metrics_.rows_in_self += walked;
      DECORR_RETURN_IF_ERROR(st);
      if (matches_eof) break;
      out->clear();
      out->reserve(current_left_.size() + projection_.size());
      out->insert(out->end(), current_left_.begin(), current_left_.end());
      AppendColumns(*table_, r, projection_, out);
      if (residual_) {
        ectx.row = out;
        if (!EvalPredicate(*residual_, ectx)) continue;
      }
      *eof = false;
      return Status::OK();
    }
    if (left_eof_) {
      *eof = true;
      return Status::OK();
    }
    bool child_eof = false;
    DECORR_RETURN_IF_ERROR(left_->Next(&current_left_, &child_eof));
    if (child_eof) {
      left_eof_ = true;
      continue;
    }
    ectx.row = &current_left_;
    key_.clear();
    bool null_key = false;
    for (const ExprPtr& expr : key_exprs_) {
      key_.push_back(Eval(*expr, ectx));
      if (key_.back().is_null()) null_key = true;
    }
    if (null_key) continue;
    ++ctx_->stats->index_lookups;
    ++metrics_.index_probes;
    matches_.Reset(RowSet::List(index_->Lookup(key_)));
  }
}

void IndexJoinOp::CloseImpl() {
  left_->Close();
  matches_.Reset(RowSet{});
}

bool IndexJoinOp::OfferKeyFilter(int column, const KeyFilter* filter) {
  const int lw = left_->output_width();
  if (column < lw) return false;
  matches_.AddKeyFilter(table_->column(projection_[column - lw]), filter);
  return true;
}

std::string IndexJoinOp::ToString(int indent) const {
  std::string out = Indent(indent) + "IndexJoin(" + table_->schema().name() +
                    ") key=(";
  for (size_t i = 0; i < key_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += key_exprs_[i]->ToString();
  }
  out += ") " + ColumnList(*table_, projection_);
  if (table_filter_) out += " filter=" + table_filter_->ToString();
  if (residual_) out += " residual=" + residual_->ToString();
  return out + "\n" + left_->ToString(indent + 1);
}

void HashJoinOp::Introspect(PlanIntrospection* out) const {
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
}

void NestedLoopJoinOp::Introspect(PlanIntrospection* out) const {
  out->children.push_back(
      {left_.get(), PlanIntrospection::kInheritParams, "left"});
  out->children.push_back(
      {right_.get(), PlanIntrospection::kInheritParams, "right"});
  if (predicate_) {
    out->exprs.push_back(
        {predicate_.get(), left_->output_width() + right_->output_width(),
         "predicate"});
  }
}

void IndexJoinOp::Introspect(PlanIntrospection* out) const {
  const int lw = left_->output_width();
  out->children.push_back(
      {left_.get(), PlanIntrospection::kInheritParams, "left"});
  for (size_t i = 0; i < key_exprs_.size(); ++i) {
    out->exprs.push_back(
        {key_exprs_[i].get(), lw, StrFormat("index key %zu", i)});
  }
  if (table_filter_) {
    out->exprs.push_back(
        {table_filter_.get(), table_->num_columns(), "table filter"});
  }
  if (residual_) {
    out->exprs.push_back(
        {residual_.get(), lw + static_cast<int>(projection_.size()),
         "residual"});
  }
  for (size_t i = 0; i < projection_.size(); ++i) {
    out->ordinals.push_back({projection_[i], table_->num_columns(),
                             StrFormat("projection %zu", i)});
  }
}

}  // namespace decorr
