// Join operators: hash join (inner / left outer) on equality keys with an
// optional residual predicate, and a materializing nested-loop join for
// non-equality predicates (degenerate case: cross product).
//
// Output rows are the concatenation left ++ right; for left-outer joins the
// right side is NULL-padded when no match survives.
#ifndef DECORR_EXEC_JOIN_H_
#define DECORR_EXEC_JOIN_H_

#include <memory>
#include <vector>

#include "decorr/common/key_table.h"
#include "decorr/exec/operator.h"
#include "decorr/exec/scan.h"
#include "decorr/expr/expr.h"
#include "decorr/storage/hash_index.h"
#include "decorr/storage/table.h"
#include "decorr/storage/temp_file.h"

namespace decorr {

enum class JoinType : uint8_t { kInner, kLeftOuter };

class HashJoinOp : public Operator {
 public:
  // `left_keys` are evaluated over left rows, `right_keys` over right rows
  // (same arity). `residual` (may be null) is evaluated over the combined
  // row. The right side is built into the hash table. `null_safe_keys`
  // (empty = all false) marks key positions joined with IS NOT DISTINCT
  // FROM semantics: NULL matches NULL there, as required by the binding
  // joins decorrelation emits (a NULL correlation value is a binding, not a
  // mismatch). An inner join whose one left key is a column reference
  // offers its build table down the left side as a runtime key filter on
  // that column (exec/scan.h), live from the end of each in-memory build
  // to Close.
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr>
             left_keys, std::vector<ExprPtr> right_keys, ExprPtr residual,
             JoinType join_type, std::vector<bool> null_safe_keys = {});

  std::string name() const override;
  std::string ToString(int indent) const override;
  int output_width() const override {
    return left_->output_width() + right_->output_width();
  }
  void Introspect(PlanIntrospection* out) const override;
  // Passes filters on left columns to the probe side.
  bool OfferKeyFilter(int column, const KeyFilter* filter) override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  // SQL join keys never match on NULL; such build/probe rows are skipped
  // (LOJ probe rows with a NULL key emit the NULL-padded row directly).
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  JoinType join_type_;
  std::vector<bool> null_safe_keys_;  // empty = all NULL-rejecting

  static constexpr uint32_t kNoRow = UINT32_MAX;

  ExecContext* ctx_ = nullptr;
  // The build table: one KeyTable entry per distinct key, the build rows in
  // arrival order, and each key's rows linked first to last, so a probe
  // walks its matches in build order.
  KeyTable table_;
  std::vector<Row> build_rows_;
  std::vector<uint32_t> row_next_;   // per build row: its key's next row
  std::vector<uint32_t> key_first_;  // per key id
  std::vector<uint32_t> key_last_;   // per key id
  int64_t charged_bytes_ = 0;  // build-table memory charged to the guard
  KeyFilter key_filter_;       // this join's offer; its keys are table_
  Row key_;                    // scratch: the evaluated build or probe key
  Row current_left_;
  bool probing_ = false;        // current_left_ still has output pending
  uint32_t match_ = kNoRow;     // its next candidate build row
  bool emitted_match_ = false;  // for LOJ null padding
  bool left_eof_ = true;

  void ClearBuild();
  void AddBuildRow(Row row);  // under the key in key_
  // Starts probing with current_left_ under the key at `key` (null: a NULL
  // key, which matches nothing).
  void StartProbe(const Value* key);
  // Writes the next surviving match of current_left_ to *out, or its LOJ
  // padding once no match survived; false when the probe row is done.
  bool NextMatch(Row* out);

  // --- Grace spill state (active only when ctx->temp is set and a build
  // charge trips the memory budget; see DESIGN.md §12). Build records are
  // stored as key ++ row so partition loads never re-evaluate keys.
  struct SpillPart {
    SpillBucket build;
    SpillBucket probe;
    int depth = 0;
  };
  bool spilling_ = false;
  std::vector<SpillPart> spill_out_;   // partitions being written (depth 0)
  std::vector<SpillPart> spill_work_;  // partitions awaiting processing
  SpillPart current_part_;             // partition currently being probed
  std::unique_ptr<SpillReader> probe_reader_;
  SpillBucket loj_null_;  // LOJ probe rows with a NULL (non-null-safe) key
  std::unique_ptr<SpillReader> loj_null_reader_;
  int64_t part_charged_ = 0;  // memory charged for the loaded partition

  Status BeginSpillBuild();
  Status WriteBuildRecord(const Row& key, const Row& row);
  Status SpillProbeSide(ExecContext* ctx);
  Status SpillNext(Row* out, bool* eof);
  Status LoadNextPartition();
  Status RepartitionBuild(SpillPart* part, SpillReader* reader,
                          const Row& cur_key, const Row& cur_row);
  void AddSpillWritten(int64_t bytes);
  void AddSpillRead(int64_t bytes);
  void ResetSpillState();
};

class NestedLoopJoinOp : public Operator {
 public:
  // Materializes the right side once; `predicate` (may be null = cross
  // product) is evaluated over the combined row.
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
                   JoinType join_type);

  std::string name() const override { return "NestedLoopJoin"; }
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
  ExprPtr predicate_;
  JoinType join_type_;

  ExecContext* ctx_ = nullptr;
  std::vector<Row> right_rows_;
  int64_t charged_bytes_ = 0;
  Row current_left_;
  size_t right_cursor_ = 0;
  bool emitted_match_ = false;
  bool left_eof_ = true;
};

// Index nested-loop join: for each left row, evaluates `key_exprs` (over
// the left row) and probes `index` on `table`. Matching table rows pass
// `table_filter` in place over the table's column storage (column refs are
// table column ordinals), then carry their `projection` columns onto the
// left row and pass `residual` (over that combined row; the key pairs the
// index does not cover). Inner-join semantics. The access path of choice
// when the outer side is tiny (magic/supplementary tables) and the inner
// side is indexed.
class IndexJoinOp : public Operator {
 public:
  IndexJoinOp(OperatorPtr left, TablePtr table,
              std::shared_ptr<HashIndex> index, std::vector<ExprPtr>
              key_exprs, std::vector<int> projection, ExprPtr table_filter,
              ExprPtr residual);

  std::string name() const override { return "IndexJoin"; }
  std::string ToString(int indent) const override;
  int output_width() const override {
    return left_->output_width() + static_cast<int>(projection_.size());
  }
  void Introspect(PlanIntrospection* out) const override;
  // Takes filters on the table's own columns only: passing one to the left
  // input would skip index probes.
  bool OfferKeyFilter(int column, const KeyFilter* filter) override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  OperatorPtr left_;
  TablePtr table_;
  std::shared_ptr<HashIndex> index_;
  std::vector<ExprPtr> key_exprs_;
  std::vector<int> projection_;
  ExprPtr table_filter_;
  StorageFilter storage_filter_;
  ExprPtr residual_;

  ExecContext* ctx_ = nullptr;
  Row current_left_;
  Row key_;                    // scratch: the current left row's index key
  FilteredRowCursor matches_;  // the current left row's index matches
  bool left_eof_ = true;
};

}  // namespace decorr

#endif  // DECORR_EXEC_JOIN_H_
