// Hash aggregation and duplicate elimination.
#ifndef DECORR_EXEC_AGGREGATE_H_
#define DECORR_EXEC_AGGREGATE_H_

#include <memory>
#include <vector>

#include "decorr/common/key_table.h"
#include "decorr/exec/operator.h"
#include "decorr/expr/expr.h"
#include "decorr/storage/temp_file.h"

namespace decorr {

// One aggregate computation.
struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  ExprPtr arg;           // null for COUNT(*)
  bool distinct = false;
  TypeId result_type = TypeId::kInt64;
};

// Hash aggregation: groups by `group_keys` (expressions over input rows) and
// computes `aggs`. Output row layout: group key values, then aggregate
// values. With no group keys exactly one row is produced even for empty
// input (COUNT(*)=0, SUM/AVG/MIN/MAX=NULL) — the semantics at the heart of
// the COUNT bug.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<ExprPtr> group_keys,
                  std::vector<AggSpec> aggs);

  // "Distinct" when this is MakeDistinct's shape.
  std::string name() const override {
    return distinct_ ? "Distinct" : "HashAggregate";
  }
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
  struct AggState {
    int64_t count = 0;       // rows accumulated (non-null for COUNT(x))
    double sum = 0.0;
    int64_t isum = 0;
    Value min;
    Value max;
    // A DISTINCT aggregate's values so far (width 1, created on the first
    // one). Spilled partial states carry the set so that the merge replays
    // it: a value seen in two flush generations then counts once.
    std::unique_ptr<KeyTable> distinct_seen;
  };

  // Returns the bytes newly added to DISTINCT aggregates' sets, which the
  // caller charges like a new group's.
  int64_t Accumulate(const Row& in, std::vector<AggState>* states);
  // Adds non-null `v` to a DISTINCT aggregate's set and its size to
  // `*bytes`; false if it was there.
  static bool FirstDistinct(const Value& v, AggState* state, int64_t* bytes);
  // Post-dedup accumulation of one non-null input value; shared by the
  // normal path and the spill-merge replay of distinct sets.
  static void AccumulateValue(const AggSpec& spec, const Value& v,
                              AggState* state);
  Value Finalize(const AggSpec& spec, const AggState& state) const;
  // Appends one output row per group (in first-occurrence order) to
  // result_rows_, then empties the group table.
  void EmitGroups();

  OperatorPtr child_;
  std::vector<ExprPtr> group_keys_;
  std::vector<AggSpec> aggs_;
  bool distinct_ = false;  // no aggregates; keys are the input's columns

  ExecContext* ctx_ = nullptr;
  std::vector<Row> result_rows_;
  // Group-state memory charged to the guard: group keys, aggregate states
  // and the values DISTINCT aggregates collect.
  int64_t charged_bytes_ = 0;
  size_t cursor_ = 0;

  // In-memory group table: group id -> key in groups_, states in
  // build_states_. Promoted from OpenImpl locals so the spill path can
  // flush it wholesale; also reused as the per-partition merge table.
  KeyTable groups_;
  std::vector<std::vector<AggState>> build_states_;
  Row in_;   // scratch: the current input row, reused across rows
  Row key_;  // scratch: the current input row's group key

  // --- Grace spill state (see DESIGN.md §12). Records are partial-state
  // rows: group key values, then per aggregate either the mergeable partials
  // (count/sum/isum/min/max) or, for DISTINCT aggregates, the distinct value
  // set itself.
  struct SpillPart {
    SpillBucket out;
    int depth = 0;
  };
  bool spilling_ = false;
  std::vector<SpillPart> spill_out_;
  std::vector<SpillPart> spill_work_;
  int64_t part_charged_ = 0;

  Status FlushGroups();
  Row EncodePartial(const Row& key, const std::vector<AggState>& states)
      const;
  // Adds the bytes newly added to DISTINCT sets to `*distinct_bytes`.
  Status MergePartialInto(const Row& rec, std::vector<AggState>* states,
                          int64_t* distinct_bytes) const;
  Status LoadNextAggPartition();
  // Splits the rest of `part` one level deeper: the groups merged so far,
  // then `cur_rec` unless null (a record already merged), then the unread
  // records.
  Status RepartitionAgg(SpillPart* part, SpillReader* reader,
                        const Row* cur_rec);
  void AddSpillWritten(int64_t bytes);
  void AddSpillRead(int64_t bytes);
  void ResetSpillState();
};

// DISTINCT over full rows: a HashAggregateOp keyed on every input column,
// in order, with no aggregates. It shares GROUP BY's table, memory charge,
// first-occurrence order and spill, and prints as "Distinct". `child` has at
// least one column (every DISTINCT box and UNION branch outputs one).
OperatorPtr MakeDistinct(OperatorPtr child);

}  // namespace decorr

#endif  // DECORR_EXEC_AGGREGATE_H_
