// Exchange operators: the intra-query parallelism layer (Section 6 of the
// paper, made real). All three follow the same Gamma-style materializing
// shape the rest of the executor already uses (NestedLoopJoin, Sort and
// HashAggregate all materialize): the coordinator thread drains the child
// plan(s), partitions the rows, and hands each partition to a worker task on
// the process-wide WorkerPool; workers run completely private operator
// clones and buffer their output; Next() then streams the buffers in a
// deterministic order.
//
// Correctness hinges on three invariants, all pinned by the parallel
// differential suite:
//   - Hash partitioning uses the same RowHash the join/aggregate hash tables
//     use, and NULL hashes like any other value, so rows whose keys compare
//     equal under plain *or* NULL-safe (kNullEq / IS NOT DISTINCT FROM)
//     semantics always land in the same partition. Every possible match is
//     therefore local to one worker, and the per-partition clones (real
//     HashJoinOp / HashAggregateOp instances) reproduce the serial
//     semantics — LOJ padding, residuals, the COUNT bug — verbatim.
//   - The shared ResourceGuard is the one cross-worker mutable object on the
//     hot path; its counters are atomic and every worker checks it per row,
//     so cancellation/deadline/budget trips surface from whichever worker
//     sees them first. ParallelRun guarantees all workers drain and the
//     lowest-indexed failure wins, making error propagation deterministic.
//   - Each worker owns its ExecStats and its operator clones' metrics;
//     both are merged on the coordinator after the workers join, so the
//     stats and the metrics tree aggregate worker work without any racing
//     counters (Introspect exposes one merged representative clone as a
//     "worker" child).
#ifndef DECORR_EXEC_EXCHANGE_H_
#define DECORR_EXEC_EXCHANGE_H_

#include <memory>
#include <vector>

#include "decorr/exec/aggregate.h"
#include "decorr/exec/join.h"
#include "decorr/exec/operator.h"
#include "decorr/exec/scan.h"
#include "decorr/expr/expr.h"
#include "decorr/storage/table.h"

namespace decorr {

// Evaluates `keys` over every row (with correlation `params`) and buckets
// the rows by RowHash of the evaluated key row into `num_partitions`
// buckets. NULLs hash like any other value, so NULL-safe join keys
// co-locate; exposed for the partition round-trip tests.
Status HashPartitionRows(std::vector<Row> rows,
                         const std::vector<ExprPtr>& keys, const Row* params,
                         int num_partitions,
                         std::vector<std::vector<Row>>* out);

// Parallel UNION ALL: every child is drained to completion by its own
// worker task, then the buffers are emitted in child order — byte-identical
// output order to UnionAllOp over the same children.
class GatherOp : public Operator {
 public:
  explicit GatherOp(std::vector<OperatorPtr> children);

  std::string name() const override { return "Gather"; }
  std::string ToString(int indent) const override;
  int output_width() const override { return children_[0]->output_width(); }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  std::vector<OperatorPtr> children_;
  std::vector<std::vector<Row>> buffers_;
  std::vector<int64_t> buffer_bytes_;  // per-buffer charge, returned on drain
  int64_t charged_bytes_ = 0;
  size_t buffer_ = 0;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

// Morsel-driven parallel sequential scan: the table's row range is split
// into fixed-size morsels, workers claim morsels through an atomic counter
// (so a skewed filter cannot starve the batch), and each morsel's output is
// buffered at its morsel index. Emission concatenates the buffers in morsel
// order, which makes the output order identical to SeqScanOp.
class ParallelScanOp : public Operator {
 public:
  // Output order is morsel order, so the size only sets scheduling and
  // charge-release granularity: a drained morsel's memory charge is returned
  // immediately, so smaller morsels let a bounded-memory consumer that
  // re-materializes the stream stay under budget while it drains the scan.
  static constexpr size_t kMorselRows = 128;

  ParallelScanOp(TablePtr table, std::vector<int> projection, ExprPtr filter,
                 int dop);

  std::string name() const override;
  std::string ToString(int indent) const override;
  int output_width() const override {
    return static_cast<int>(projection_.size());
  }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  TablePtr table_;
  std::vector<int> projection_;
  ExprPtr filter_;
  StorageFilter storage_filter_;  // shared by the workers (const)
  int dop_;

  std::vector<std::vector<Row>> morsel_buffers_;
  std::vector<int64_t> morsel_bytes_;  // per-morsel charge, returned on drain
  int64_t charged_bytes_ = 0;
  size_t buffer_ = 0;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

// Partitioned parallel hash join. Both inputs are drained and hash-
// partitioned on their join keys; each partition pair is joined by a
// private HashJoinOp clone (so inner/LOJ, residual, kNullEq and plain
// NULL-rejecting key semantics are exactly the serial operator's). Output
// is the concatenation of the partition outputs in partition order.
class ParallelHashJoinOp : public Operator {
 public:
  ParallelHashJoinOp(OperatorPtr left, OperatorPtr right,
                     std::vector<ExprPtr> left_keys,
                     std::vector<ExprPtr> right_keys, ExprPtr residual,
                     JoinType join_type, std::vector<bool> null_safe_keys,
                     int dop);

  std::string name() const override;
  std::string ToString(int indent) const override;
  int output_width() const override {
    return left_->output_width() + right_->output_width();
  }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  JoinType join_type_;
  std::vector<bool> null_safe_keys_;
  int dop_;

  // Representative worker pipeline, kept after Open for the metrics tree
  // (all other clones are merged into it and discarded).
  OperatorPtr worker_;
  std::vector<std::vector<Row>> partitions_out_;
  std::vector<int64_t> buffer_bytes_;  // per-partition charge (outputs only)
  int64_t charged_bytes_ = 0;
  size_t buffer_ = 0;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

// Partitioned parallel hash aggregation. Input rows are hash-partitioned on
// the group keys, so every group is wholly local to one worker's private
// HashAggregateOp clone and no cross-worker aggregate-state merge is needed.
// Requires at least one group key: the planner keeps global aggregates
// (whose empty-input row is produced by exactly one instance) serial.
class ParallelHashAggregateOp : public Operator {
 public:
  ParallelHashAggregateOp(OperatorPtr child, std::vector<ExprPtr> group_keys,
                          std::vector<AggSpec> aggs, int dop);

  std::string name() const override;
  std::string ToString(int indent) const override;
  int output_width() const override {
    return static_cast<int>(group_keys_.size() + aggs_.size());
  }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> group_keys_;
  std::vector<AggSpec> aggs_;
  int dop_;

  OperatorPtr worker_;  // representative clone (see ParallelHashJoinOp)
  std::vector<std::vector<Row>> partitions_out_;
  std::vector<int64_t> buffer_bytes_;  // per-partition charge (outputs only)
  int64_t charged_bytes_ = 0;
  size_t buffer_ = 0;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

}  // namespace decorr

#endif  // DECORR_EXEC_EXCHANGE_H_
