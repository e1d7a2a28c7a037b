#include "decorr/exec/operator.h"

#include <chrono>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"

namespace decorr {

namespace {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Status Operator::Open(ExecContext* ctx) {
  profile_ = ctx != nullptr && ctx->profile;
  ++metrics_.open_calls;
  if (!profile_) return OpenImpl(ctx);
  const int64_t start = NowNanos();
  Status st = OpenImpl(ctx);
  metrics_.open_nanos += NowNanos() - start;
  return st;
}

Status Operator::Next(Row* out, bool* eof) {
  ++metrics_.next_calls;
  Status st;
  if (profile_) {
    const int64_t start = NowNanos();
    st = NextImpl(out, eof);
    metrics_.next_nanos += NowNanos() - start;
  } else {
    st = NextImpl(out, eof);
  }
  if (st.ok() && !*eof) ++metrics_.rows_out;
  return st;
}

void Operator::Close() {
  ++metrics_.close_calls;
  if (!profile_) {
    CloseImpl();
    return;
  }
  const int64_t start = NowNanos();
  CloseImpl();
  metrics_.close_nanos += NowNanos() - start;
}

std::string Operator::ToString(int indent) const {
  return Indent(indent) + name() + "\n";
}

std::string Operator::Indent(int n) { return Repeat("  ", n); }

void Operator::Introspect(PlanIntrospection* out) const { (void)out; }

bool Operator::OfferKeyFilter(int column, const KeyFilter* filter) {
  (void)column;
  (void)filter;
  return false;
}

Result<std::vector<Row>> CollectRows(Operator* op, ExecContext* ctx,
                                     int64_t* charged_bytes) {
  DECORR_FAULT_POINT("exec.collect_rows");
  DECORR_RETURN_IF_ERROR(op->Open(ctx));
  std::vector<Row> rows;
  int64_t charged = 0;
  auto fail = [&](Status st) {
    op->Close();
    if (ctx->guard) ctx->guard->ReleaseMemory(charged);
    return st;
  };
  while (true) {
    Row row;
    bool eof = false;
    Status st = op->Next(&row, &eof);
    if (!st.ok()) return fail(std::move(st));
    if (eof) break;
    if (ctx->guard != nullptr) {
      st = ctx->guard->Check();
      if (st.ok()) st = ctx->guard->ChargeRows(1);
      if (st.ok()) {
        const int64_t bytes = ApproxRowBytes(row);
        charged += bytes;
        st = ctx->guard->ChargeMemory(bytes);
      }
      if (!st.ok()) return fail(std::move(st));
    }
    rows.push_back(std::move(row));
  }
  op->Close();
  if (charged_bytes != nullptr) {
    *charged_bytes += charged;
  } else if (ctx->guard) {
    ctx->guard->ReleaseMemory(charged);
  }
  return rows;
}

}  // namespace decorr
