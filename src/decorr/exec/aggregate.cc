#include "decorr/exec/aggregate.h"

#include "decorr/common/fault.h"
#include "decorr/common/logging.h"
#include "decorr/common/string_util.h"
#include "decorr/expr/eval.h"

namespace decorr {

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<ExprPtr> group_keys,
                                 std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)),
      groups_(group_keys_.size()) {
  distinct_ = aggs_.empty() && !group_keys_.empty() &&
              group_keys_.size() ==
                  static_cast<size_t>(child_->output_width());
  for (size_t i = 0; distinct_ && i < group_keys_.size(); ++i) {
    distinct_ = group_keys_[i]->kind == ExprKind::kColumnRef &&
                group_keys_[i]->slot == static_cast<int>(i);
  }
}

OperatorPtr MakeDistinct(OperatorPtr child) {
  const int width = child->output_width();
  DECORR_CHECK(width > 0);
  std::vector<ExprPtr> keys;
  for (int i = 0; i < width; ++i) {
    keys.push_back(MakeSlotRef(i, TypeId::kNull));
  }
  return std::make_unique<HashAggregateOp>(std::move(child), std::move(keys),
                                           std::vector<AggSpec>{});
}

bool HashAggregateOp::FirstDistinct(const Value& v, AggState* state,
                                    int64_t* bytes) {
  if (state->distinct_seen == nullptr) {
    state->distinct_seen = std::make_unique<KeyTable>(1);
  }
  bool inserted = false;
  state->distinct_seen->Insert(&v, &inserted);
  if (inserted) *bytes += ApproxValueBytes(v);
  return inserted;
}

void HashAggregateOp::AccumulateValue(const AggSpec& spec, const Value& v,
                                      AggState* state) {
  ++state->count;
  switch (spec.kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      state->sum += v.AsDouble();
      if (v.type() == TypeId::kInt64) state->isum += v.int64_value();
      break;
    case AggKind::kMin:
      if (state->min.is_null() || v.Compare(state->min) < 0) state->min = v;
      break;
    case AggKind::kMax:
      if (state->max.is_null() || v.Compare(state->max) > 0) state->max = v;
      break;
    default:
      break;
  }
}

int64_t HashAggregateOp::Accumulate(const Row& in,
                                    std::vector<AggState>* states) {
  int64_t distinct_bytes = 0;
  EvalContext ectx;
  ectx.row = &in;
  ectx.params = ctx_->params;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    AggState& state = (*states)[i];
    if (spec.kind == AggKind::kCountStar) {
      ++state.count;
      continue;
    }
    Value v = Eval(*spec.arg, ectx);
    if (v.is_null()) continue;  // aggregates ignore NULL inputs
    if (spec.distinct && !FirstDistinct(v, &state, &distinct_bytes)) {
      continue;
    }
    AccumulateValue(spec, v, &state);
  }
  return distinct_bytes;
}

Value HashAggregateOp::Finalize(const AggSpec& spec,
                                const AggState& state) const {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(state.count);
    case AggKind::kSum:
      if (state.count == 0) return Value::Null();
      if (spec.result_type == TypeId::kInt64) return Value::Int64(state.isum);
      return Value::Double(state.sum);
    case AggKind::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.sum / static_cast<double>(state.count));
    case AggKind::kMin:
      return state.min;
    case AggKind::kMax:
      return state.max;
  }
  return Value::Null();
}

Status HashAggregateOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.aggregate.open");
  ctx_ = ctx;
  result_rows_.clear();
  charged_bytes_ = 0;
  cursor_ = 0;
  groups_.Clear();
  build_states_.clear();
  // A new group charges ApproxRowBytes(key_): keep its capacity at the key
  // width, as a freshly built key row had.
  key_.reserve(group_keys_.size());
  ResetSpillState();

  DECORR_RETURN_IF_ERROR(child_->Open(ctx));
  while (true) {
    bool eof = false;
    Status st = child_->Next(&in_, &eof);
    if (st.ok() && ctx->guard) st = ctx->guard->Check();
    if (!st.ok()) {
      child_->Close();
      return st;
    }
    if (eof) break;
    EvalContext ectx;
    ectx.row = &in_;
    ectx.params = ctx->params;
    key_.clear();
    for (const ExprPtr& expr : group_keys_) key_.push_back(Eval(*expr, ectx));
    const size_t hash = KeyTable::Hash(key_.data(), key_.size());
    uint32_t id = groups_.Find(key_.data(), hash);
    if (id == KeyTable::kNotFound) {
      if (ctx->guard) {
        const int64_t bytes =
            ApproxRowBytes(key_) +
            static_cast<int64_t>(aggs_.size() * sizeof(AggState));
        if (ctx->temp != nullptr) {
          // Hybrid aggregation: when a new group would exceed the budget,
          // flush every in-memory partial state to the partition files and
          // keep aggregating into a fresh (re-charged) table.
          st = ctx->guard->ChargeRows(1);
          bool spilled = false;
          if (st.ok()) {
            st = ctx->guard->ChargeMemoryOrSpill(
                bytes, [this] { return FlushGroups(); }, &spilled);
          }
          if (st.ok()) {
            charged_bytes_ += bytes;
            if (spilled) st = ctx->guard->ChargeMemory(bytes);
          }
        } else {
          charged_bytes_ += bytes;
          st = ctx->guard->ChargeRows(1);
          if (st.ok()) st = ctx->guard->ChargeMemory(bytes);
        }
        if (!st.ok()) {
          child_->Close();
          return st;
        }
      }
      ++metrics_.build_rows;
      // After a flush the key opens the fresh table's first group.
      id = groups_.Append(key_.data(), hash);
      build_states_.emplace_back(aggs_.size());
    }
    const int64_t distinct_bytes = Accumulate(in_, &build_states_[id]);
    if (distinct_bytes > 0 && ctx->guard) {
      // New DISTINCT values are group state too. With spilling on, a trip
      // flushes them to disk with their group, leaving nothing to charge.
      if (ctx->temp != nullptr) {
        bool spilled = false;
        st = ctx->guard->ChargeMemoryOrSpill(
            distinct_bytes, [this] { return FlushGroups(); }, &spilled);
        if (st.ok() && !spilled) charged_bytes_ += distinct_bytes;
      } else {
        charged_bytes_ += distinct_bytes;
        st = ctx->guard->ChargeMemory(distinct_bytes);
      }
      if (!st.ok()) {
        child_->Close();
        return st;
      }
    }
  }
  child_->Close();

  if (spilling_) {
    DECORR_RETURN_IF_ERROR(FlushGroups());  // flush the tail generation
    int64_t written = 0;
    for (auto& p : spill_out_) {
      DECORR_RETURN_IF_ERROR(p.out.writer->Finish());
      written += p.out.writer->bytes_written();
    }
    AddSpillWritten(written);
    spill_work_ = std::move(spill_out_);
    spill_out_.clear();
    return Status::OK();  // NextImpl merges partitions one at a time
  }

  // Scalar aggregation produces exactly one (possibly empty-input) group.
  if (group_keys_.empty() && build_states_.empty()) {
    build_states_.emplace_back(aggs_.size());
  }
  EmitGroups();
  metrics_.bytes_charged += charged_bytes_;
  return Status::OK();
}

void HashAggregateOp::EmitGroups() {
  const size_t nk = group_keys_.size();
  for (size_t g = 0; g < build_states_.size(); ++g) {
    Row out;
    out.reserve(nk + aggs_.size());
    if (nk > 0) {
      const Value* key = groups_.key(static_cast<uint32_t>(g));
      out.insert(out.end(), key, key + nk);
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      out.push_back(Finalize(aggs_[i], build_states_[g][i]));
    }
    result_rows_.push_back(std::move(out));
  }
  groups_.Clear();
  build_states_.clear();
}

Status HashAggregateOp::NextImpl(Row* out, bool* eof) {
  while (true) {
    if (cursor_ < result_rows_.size()) {
      *out = std::move(result_rows_[cursor_++]);
      *eof = false;
      return Status::OK();
    }
    if (!spilling_ || spill_work_.empty()) {
      *eof = true;
      return Status::OK();
    }
    DECORR_RETURN_IF_ERROR(ctx_->Check());
    result_rows_.clear();
    cursor_ = 0;
    DECORR_RETURN_IF_ERROR(LoadNextAggPartition());
  }
}

void HashAggregateOp::CloseImpl() {
  result_rows_.clear();
  groups_.Clear();
  build_states_.clear();
  if (ctx_ != nullptr && ctx_->guard != nullptr) {
    ctx_->guard->ReleaseMemory(charged_bytes_ + part_charged_);
  }
  charged_bytes_ = 0;
  ResetSpillState();
}

void HashAggregateOp::AddSpillWritten(int64_t bytes) {
  metrics_.spill_bytes_written += bytes;
  if (ctx_ != nullptr && ctx_->stats != nullptr) {
    ctx_->stats->spill_bytes_written += bytes;
  }
}

void HashAggregateOp::AddSpillRead(int64_t bytes) {
  metrics_.spill_bytes_read += bytes;
  if (ctx_ != nullptr && ctx_->stats != nullptr) {
    ctx_->stats->spill_bytes_read += bytes;
  }
}

void HashAggregateOp::ResetSpillState() {
  spilling_ = false;
  spill_out_.clear();
  spill_work_.clear();
  part_charged_ = 0;
}

// Partial-state record: group key values, then per aggregate either
// [n, v1..vn] (DISTINCT — merge replays the set so a value seen in two flush
// generations is counted once) or [count, sum, isum, min, max].
Row HashAggregateOp::EncodePartial(
    const Row& key, const std::vector<AggState>& states) const {
  Row rec = key;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggState& s = states[i];
    if (aggs_[i].distinct) {
      const KeyTable* seen = s.distinct_seen.get();
      const size_t n = seen == nullptr ? 0 : seen->size();
      rec.push_back(Value::Int64(static_cast<int64_t>(n)));
      for (uint32_t id = 0; id < n; ++id) rec.push_back(*seen->key(id));
    } else {
      rec.push_back(Value::Int64(s.count));
      rec.push_back(Value::Double(s.sum));
      rec.push_back(Value::Int64(s.isum));
      rec.push_back(s.min);
      rec.push_back(s.max);
    }
  }
  return rec;
}

Status HashAggregateOp::MergePartialInto(const Row& rec,
                                         std::vector<AggState>* states,
                                         int64_t* distinct_bytes) const {
  size_t pos = group_keys_.size();
  const auto malformed = [] {
    return Status::IoError("spill partial-aggregate record malformed");
  };
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& s = (*states)[i];
    if (aggs_[i].distinct) {
      if (pos >= rec.size()) return malformed();
      const int64_t n = rec[pos++].int64_value();
      if (pos + static_cast<size_t>(n) > rec.size()) return malformed();
      for (int64_t j = 0; j < n; ++j) {
        const Value& v = rec[pos++];
        if (FirstDistinct(v, &s, distinct_bytes)) {
          AccumulateValue(aggs_[i], v, &s);
        }
      }
    } else {
      if (pos + 5 > rec.size()) return malformed();
      s.count += rec[pos].int64_value();
      s.sum += rec[pos + 1].double_value();
      s.isum += rec[pos + 2].int64_value();
      const Value& mn = rec[pos + 3];
      const Value& mx = rec[pos + 4];
      if (!mn.is_null() && (s.min.is_null() || mn.Compare(s.min) < 0)) {
        s.min = mn;
      }
      if (!mx.is_null() && (s.max.is_null() || mx.Compare(s.max) > 0)) {
        s.max = mx;
      }
      pos += 5;
    }
  }
  if (pos != rec.size()) return malformed();
  return Status::OK();
}

Status HashAggregateOp::FlushGroups() {
  DECORR_FAULT_POINT("exec.spill.agg.partition");
  if (spill_out_.empty()) {
    DECORR_ASSIGN_OR_RETURN(
        std::vector<SpillBucket> buckets,
        CreateSpillBuckets(ctx_->temp, "agg-part", kSpillFanout));
    spill_out_.resize(kSpillFanout);
    for (int i = 0; i < kSpillFanout; ++i) {
      spill_out_[i].out = std::move(buckets[i]);
      spill_out_[i].depth = 0;
    }
    spilling_ = true;
    metrics_.spill_partitions += kSpillFanout;
    if (ctx_->stats != nullptr) {
      ctx_->stats->spill_partitions += kSpillFanout;
    }
  }
  ++metrics_.spill_passes;
  if (ctx_->stats != nullptr) ++ctx_->stats->spill_passes;
  for (uint32_t g = 0; g < build_states_.size(); ++g) {
    const Row key = groups_.KeyRow(g);
    const Row rec = EncodePartial(key, build_states_[g]);
    const size_t idx = SpillPartitionHash(key, /*depth=*/0) % kSpillFanout;
    DECORR_RETURN_IF_ERROR(spill_out_[idx].out.writer->WriteRow(rec));
  }
  groups_.Clear();
  build_states_.clear();
  if (ctx_->guard != nullptr) ctx_->guard->ReleaseMemory(charged_bytes_);
  metrics_.bytes_charged += charged_bytes_;
  charged_bytes_ = 0;
  return Status::OK();
}

Status HashAggregateOp::LoadNextAggPartition() {
  if (ctx_->guard != nullptr) ctx_->guard->ReleaseMemory(part_charged_);
  part_charged_ = 0;
  groups_.Clear();
  build_states_.clear();

  SpillPart part = std::move(spill_work_.back());
  spill_work_.pop_back();
  SpillReader reader(part.out.file.get());
  const size_t nk = group_keys_.size();
  bool repartitioned = false;
  // Every record of one group lands in the same sub-partition, so a charge
  // that trips while that group is the only one in memory (always, without
  // group keys) cannot be split away: fail instead of rewriting the
  // partition kSpillMaxDepth times.
  auto split = [&](size_t groups_in_memory, const Row* cur_rec) -> Status {
    if (groups_in_memory <= 1) {
      return Status::ResourceExhausted(
          "hash aggregate spill: one group's state exceeds the memory "
          "budget");
    }
    return RepartitionAgg(&part, &reader, cur_rec);
  };
  while (true) {
    Row rec;
    bool reof = false;
    DECORR_RETURN_IF_ERROR(reader.ReadRow(&rec, &reof));
    if (reof) break;
    if (rec.size() < nk) {
      return Status::IoError("spill partial-aggregate record malformed");
    }
    // Records are key ++ partial states: look the key up in place.
    const size_t hash = KeyTable::Hash(rec.data(), nk);
    uint32_t id = groups_.Find(rec.data(), hash);
    if (id == KeyTable::kNotFound) {
      if (ctx_->guard != nullptr) {
        key_.clear();
        key_.insert(key_.end(), rec.begin(),
                    rec.begin() + static_cast<ptrdiff_t>(nk));
        const int64_t bytes =
            ApproxRowBytes(key_) +
            static_cast<int64_t>(aggs_.size() * sizeof(AggState));
        bool spilled = false;
        Status st = ctx_->guard->ChargeMemoryOrSpill(
            bytes, [&] { return split(groups_.size() + 1, &rec); },
            &spilled);
        if (!st.ok()) return st;
        if (spilled) {
          repartitioned = true;
          break;
        }
        part_charged_ += bytes;
      }
      id = groups_.Append(rec.data(), hash);
      build_states_.emplace_back(aggs_.size());
    }
    int64_t distinct_bytes = 0;
    DECORR_RETURN_IF_ERROR(
        MergePartialInto(rec, &build_states_[id], &distinct_bytes));
    if (distinct_bytes > 0 && ctx_->guard != nullptr) {
      // `rec` is merged already, so a repartition must not write it again.
      bool spilled = false;
      DECORR_RETURN_IF_ERROR(ctx_->guard->ChargeMemoryOrSpill(
          distinct_bytes,
          [&] { return split(groups_.size(), /*cur_rec=*/nullptr); },
          &spilled));
      if (spilled) {
        repartitioned = true;
        break;
      }
      part_charged_ += distinct_bytes;
    }
  }
  AddSpillRead(reader.bytes_read());
  if (repartitioned) {
    groups_.Clear();
    build_states_.clear();
    if (ctx_->guard != nullptr) ctx_->guard->ReleaseMemory(part_charged_);
    part_charged_ = 0;
    return Status::OK();  // result_rows_ stays empty; NextImpl loops
  }
  EmitGroups();
  return Status::OK();
}

Status HashAggregateOp::RepartitionAgg(SpillPart* part, SpillReader* reader,
                                       const Row* cur_rec) {
  DECORR_FAULT_POINT("exec.spill.agg.partition");
  const int depth = part->depth + 1;
  if (depth > kSpillMaxDepth) {
    return Status::ResourceExhausted(StrFormat(
        "hash aggregate spill exceeded max repartition depth %d under the "
        "memory budget",
        kSpillMaxDepth));
  }
  DECORR_ASSIGN_OR_RETURN(
      std::vector<SpillBucket> buckets,
      CreateSpillBuckets(ctx_->temp, "agg-part", kSpillFanout));
  std::vector<SpillPart> subs(kSpillFanout);
  for (int i = 0; i < kSpillFanout; ++i) {
    subs[i].out = std::move(buckets[i]);
    subs[i].depth = depth;
  }
  const size_t nk = group_keys_.size();
  auto write_rec = [&](const Row& rec) -> Status {
    const Row key(rec.begin(), rec.begin() + static_cast<ptrdiff_t>(nk));
    const size_t idx = SpillPartitionHash(key, depth) % kSpillFanout;
    return subs[idx].out.writer->WriteRow(rec);
  };
  // Groups merged so far, the record whose charge tripped, then the unread
  // remainder of the partition file.
  for (uint32_t g = 0; g < build_states_.size(); ++g) {
    DECORR_RETURN_IF_ERROR(
        write_rec(EncodePartial(groups_.KeyRow(g), build_states_[g])));
  }
  if (cur_rec != nullptr) DECORR_RETURN_IF_ERROR(write_rec(*cur_rec));
  while (true) {
    Row rec;
    bool reof = false;
    DECORR_RETURN_IF_ERROR(reader->ReadRow(&rec, &reof));
    if (reof) break;
    if (rec.size() < nk) {
      return Status::IoError("spill partial-aggregate record malformed");
    }
    DECORR_RETURN_IF_ERROR(write_rec(rec));
  }
  int64_t written = 0;
  for (auto& s : subs) {
    DECORR_RETURN_IF_ERROR(s.out.writer->Finish());
    written += s.out.writer->bytes_written();
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

std::string HashAggregateOp::ToString(int indent) const {
  if (distinct_) {
    return Indent(indent) + "Distinct\n" + child_->ToString(indent + 1);
  }
  std::string out = Indent(indent) + "HashAggregate keys=[";
  for (size_t i = 0; i < group_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_keys_[i]->ToString();
  }
  out += "] aggs=[";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggKindName(aggs_[i].kind);
    if (aggs_[i].arg) {
      out += '(';
      out += aggs_[i].arg->ToString();
      out += ')';
    }
  }
  return out + "]\n" + child_->ToString(indent + 1);
}

void HashAggregateOp::Introspect(PlanIntrospection* out) const {
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
          {aggs_[i].arg.get(), w, StrFormat("aggregate %zu argument", i)});
    }
  }
}

}  // namespace decorr
