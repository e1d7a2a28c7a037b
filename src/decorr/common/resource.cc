#include "decorr/common/resource.h"

#include "decorr/common/string_util.h"

namespace decorr {

int64_t ApproxRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row)) +
                  static_cast<int64_t>(row.capacity() * sizeof(Value));
  for (const Value& v : row) bytes += static_cast<int64_t>(v.heap_bytes());
  return bytes;
}

int64_t ApproxValueBytes(const Value& value) {
  return static_cast<int64_t>(sizeof(Value) + value.heap_bytes());
}

Status MemoryTracker::Charge(int64_t bytes) {
  const int64_t now =
      used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t p = peak_.load(std::memory_order_relaxed);
  while (now > p &&
         !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
  }
  Status st = Status::OK();
  if (budget_ > 0 && now > budget_) {
    st = Status::ResourceExhausted(
        StrFormat("%s budget exceeded: %lld bytes used, budget %lld",
                  scope_.c_str(), (long long)now, (long long)budget_));
  }
  if (parent_ != nullptr) {
    // Mirror into the aggregate tracker whether or not the local budget
    // tripped, so Release stays symmetric at both levels.
    Status parent_st = parent_->Charge(bytes);
    if (st.ok()) st = std::move(parent_st);
  }
  return st;
}

MemoryTracker::~MemoryTracker() {
  if (parent_ != nullptr) parent_->Release(used());
}

void MemoryTracker::Release(int64_t bytes) {
  const int64_t now =
      used_.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
  // Clamp at zero for the single-threaded over-release case the old code
  // tolerated; concurrent charge/release pairs are symmetric so the clamp
  // never fires for them.
  if (now < 0) used_.store(0, std::memory_order_relaxed);
  if (parent_ != nullptr) parent_->Release(bytes);
}

bool CancellationToken::Poll() {
  if (cancelled_.load(std::memory_order_relaxed)) return true;
  int64_t left = countdown_.load(std::memory_order_relaxed);
  if (left < 0) return false;
  if (left == 0 ||
      countdown_.fetch_sub(1, std::memory_order_relaxed) <= 1) {
    cancelled_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ResourceGuard::set_deadline_after_micros(int64_t micros) {
  if (micros <= 0) return;
  has_deadline_ = true;
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::microseconds(micros);
}

Status ResourceGuard::Check() {
  if (cancel_ && cancel_->Poll()) {
    return Status::Cancelled("query cancelled");
  }
  if (has_deadline_) {
    if ((ticks_.fetch_add(1, std::memory_order_relaxed) % kDeadlineStride) ==
            0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
  }
  return Status::OK();
}

Status ResourceGuard::CheckNow() {
  if (cancel_ && cancel_->Poll()) {
    return Status::Cancelled("query cancelled");
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

Status ResourceGuard::ChargeMemoryOrSpill(
    int64_t bytes, const std::function<Status()>& spill_fn, bool* spilled) {
  *spilled = false;
  Status st = memory_.Charge(bytes);
  if (st.ok() || st.code() != StatusCode::kResourceExhausted || !spill_fn) {
    return st;
  }
  // The failed charge was still recorded (MemoryTracker contract); release
  // it — the caller's data is heading to disk, not memory.
  memory_.Release(bytes);
  DECORR_RETURN_IF_ERROR(spill_fn());
  *spilled = true;
  return Status::OK();
}

Status ResourceGuard::ChargeRows(int64_t n) {
  const int64_t now = rows_.fetch_add(n, std::memory_order_relaxed) + n;
  if (row_budget_ > 0 && now > row_budget_) {
    return Status::ResourceExhausted(
        StrFormat("row budget exceeded: %lld rows materialized, budget %lld",
                  (long long)now, (long long)row_budget_));
  }
  return Status::OK();
}

}  // namespace decorr
