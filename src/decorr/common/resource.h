// Resource governance for query execution: cooperative cancellation,
// wall-clock deadlines, and row/memory budgets.
//
// A ResourceGuard is owned by one query execution (Database::Run) and
// threaded through every ExecContext. Operators call Check() inside their
// iteration loops (cheap: one relaxed atomic load; the clock is sampled
// every kDeadlineStride checks) and charge the guard's MemoryTracker for
// every materialized data structure — hash-join tables, aggregation state,
// sort buffers, and Apply/lateral result sets. Exceeding any limit surfaces
// as StatusCode::kCancelled / kDeadlineExceeded / kResourceExhausted, which
// the executor propagates without retry and without partial results.
//
// Thread safety: a query runs on one thread, but its guard is not private
// to that thread: a session's Cancel() trips the token from another
// thread, and under the Server every query's MemoryTracker charges one
// aggregate tracker that all concurrent sessions share. So all counters —
// memory used/peak, the row count, the deadline tick — are atomics.
// Configuration (budgets, deadline, token) is single-writer: set
// everything before execution starts.
#ifndef DECORR_COMMON_RESOURCE_H_
#define DECORR_COMMON_RESOURCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "decorr/common/status.h"
#include "decorr/common/value.h"

namespace decorr {

// Approximate heap footprint of one materialized row (vector header,
// sizeof(Value) per allocated slot, the heap blocks of strings too long to
// sit inline). Used to charge MemoryTrackers; deliberately an estimate —
// budgets bound order of magnitude, not bytes.
int64_t ApproxRowBytes(const Row& row);
// The same estimate for one value held outside a row (sizeof(Value) plus
// its heap block, if any), e.g. in a DISTINCT aggregate's set.
int64_t ApproxValueBytes(const Value& value);

// Tracks bytes charged against an optional budget. Charge/Release/used/peak
// are thread-safe (the Server's aggregate tracker is charged by every
// concurrent query); set_budget is configuration and must happen before
// execution.
class MemoryTracker {
 public:
  MemoryTracker() = default;
  // Returns whatever this tracker still holds to its parent (see
  // set_parent).
  ~MemoryTracker();
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  // 0 = unlimited.
  void set_budget(int64_t bytes) { budget_ = bytes; }
  int64_t budget() const { return budget_; }

  // Names the budget in trip messages ("memory budget exceeded: ..." by
  // default). The server's aggregate tracker sets "server memory" so a
  // collective trip is distinguishable from a per-query one.
  void set_scope(std::string scope) { scope_ = std::move(scope); }

  // Chains this tracker under an aggregate parent: every Charge/Release is
  // mirrored there, so concurrent per-query trackers draw down one shared
  // (server-wide) budget collectively. A query's tracker dies with its
  // query, and its destructor releases from the parent whatever the query
  // never released itself (a SharedSubplan's rows, held for the rest of
  // the query; the charges of an operator whose Open failed), so no charge
  // outlives its query there. Configuration, single-writer: set
  // before execution starts. The parent must outlive this tracker.
  void set_parent(MemoryTracker* parent) { parent_ = parent; }

  // Adds `bytes`; kResourceExhausted when this budget or the parent's would
  // be exceeded (the charge is still recorded in both so callers may release
  // symmetrically; this tracker's own trip wins when both fire).
  Status Charge(int64_t bytes);
  void Release(int64_t bytes);

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  int64_t budget_ = 0;
  std::string scope_ = "memory";
  MemoryTracker* parent_ = nullptr;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
};

// Thread-safe cancellation flag, shareable between the thread running the
// query and the thread requesting cancellation.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Deterministic test hook: trip the token after `n` guard polls, as if a
  // concurrent Cancel() landed mid-scan.
  void CancelAfterChecks(int64_t n) {
    countdown_.store(n, std::memory_order_relaxed);
  }

  // One cooperative poll; true once the token has tripped.
  bool Poll();

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> countdown_{-1};  // < 0: no countdown armed
};

// Per-query execution guard: cancellation + deadline + row/memory budgets.
class ResourceGuard {
 public:
  // The deadline clock is sampled every this many Check() calls (and on the
  // very first one, so a pre-expired deadline fails immediately).
  static constexpr uint64_t kDeadlineStride = 64;

  void set_cancel(std::shared_ptr<CancellationToken> token) {
    cancel_ = std::move(token);
  }
  // Deadline `micros` from now; <= 0 leaves the guard deadline-free.
  void set_deadline_after_micros(int64_t micros);
  // Ceiling on rows materialized query-wide (0 = unlimited). Monotonic:
  // rows are never un-charged, so it bounds total work, not live state.
  void set_row_budget(int64_t rows) { row_budget_ = rows; }

  MemoryTracker& memory() { return memory_; }
  const MemoryTracker& memory() const { return memory_; }

  // Cancellation / deadline check; called once per row in operator loops.
  Status Check();

  // Unstrided check: polls the token and samples the deadline clock
  // unconditionally. For infrequent, latency-sensitive call sites (the
  // server's admission queue) where stride sampling would let a deadline
  // slip by kDeadlineStride wakeups.
  Status CheckNow();

  Status ChargeRows(int64_t n);
  Status ChargeMemory(int64_t bytes) { return memory_.Charge(bytes); }
  void ReleaseMemory(int64_t bytes) { memory_.Release(bytes); }

  // Charge-with-spill-callback: like ChargeMemory, but when the charge trips
  // the memory budget and `spill_fn` is provided, the failed charge is
  // un-recorded, `spill_fn` is invoked (the operator migrates its build state
  // to disk and releases its charges) and *spilled is set — the caller then
  // routes the data to disk instead of keeping the charge. Any error from
  // `spill_fn` (I/O fault, disk budget, recursion-depth cap) propagates
  // verbatim. Without a callback this degrades to plain ChargeMemory, so
  // spill-off behavior is byte-identical to before.
  Status ChargeMemoryOrSpill(int64_t bytes,
                             const std::function<Status()>& spill_fn,
                             bool* spilled);

  int64_t rows_materialized() const {
    return rows_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<CancellationToken> cancel_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<uint64_t> ticks_{0};
  int64_t row_budget_ = 0;
  std::atomic<int64_t> rows_{0};
  MemoryTracker memory_;
};

}  // namespace decorr

#endif  // DECORR_COMMON_RESOURCE_H_
