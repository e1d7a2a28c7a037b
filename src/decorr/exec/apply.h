// ApplyOp: the one operator that runs a correlated block. For each input
// row it finds the inner row set of that row's binding in one of three ways:
//   * re-run: bind the correlation parameters from the row and execute the
//     inner plan (nested iteration, Section 2 of the paper; each run is one
//     "subquery invocation");
//   * memo: look the binding up in a KeyTable filled on a miss (the NI+C
//     binding cache of Guravannavar & Sudarshan), while the context's
//     subquery_cache_bytes is positive. A parameter-free inner is the
//     width-0 key: it runs once per Open, whether the memo is on or not;
//   * grouped: probe a KeyTable built once per Open from a parameter-free
//     inner, grouped on its key columns (the "index on a temporary
//     relation" that runs a decorrelated CI box, Section 4.4).
// It then appends the subquery's verdict as one column or, as a correlated
// lateral join, emits input ++ inner_row for every inner row.
//
// The memo charges each entry (its key and rows) to the query's guard and
// to its own budget, subquery_cache_bytes: an entry larger than the budget,
// or whose key the query's memory budget refuses, is used once and not
// kept, and an entry that does not fit beside the others first flushes the
// table, which never erases one key.
#ifndef DECORR_EXEC_APPLY_H_
#define DECORR_EXEC_APPLY_H_

#include <vector>

#include "decorr/common/key_table.h"
#include "decorr/exec/operator.h"
#include "decorr/expr/expr.h"

namespace decorr {

// How an Apply's inner result feeds back into the row.
enum class SubqueryMode : uint8_t {
  kScalar,   // single value (NULL when empty; error when >1 row)
  kExists,   // TRUE iff any row
  kIn,       // lhs IN (rows), SQL NULL semantics
  kAny,      // lhs op ANY (rows)
  kAll,      // lhs op ALL (rows)
};
const char* SubqueryModeName(SubqueryMode mode);

// Where one correlation parameter comes from.
struct ParamSource {
  bool from_outer = false;  // take from the enclosing params instead of the
                            // input row
  int index = 0;            // slot in input row, or index into outer params
};

// The verdict an Apply appends for each input row.
struct SubquerySemantics {
  SubqueryMode mode = SubqueryMode::kScalar;
  // kIn/kAny/kAll: the left-hand expression over the input row; kAny/kAll
  // also use `op`.
  ExprPtr lhs;
  BinaryOp op = BinaryOp::kEq;
  bool negated = false;  // NOT EXISTS / NOT IN
};

// Computes the verdict of one subquery result set under a mode. `lhs` may
// be NULL for kScalar/kExists.
Value SubqueryVerdict(SubqueryMode mode, BinaryOp op, const Value& lhs,
                      const std::vector<Row>& rows, bool negated, Status* st);

class ApplyOp : public Operator {
 public:
  // Appends `semantics`' verdict over the rows `inner` returns with
  // `params` bound from the input row (re-run or memo).
  ApplyOp(OperatorPtr input, OperatorPtr inner,
          std::vector<ParamSource> params, SubquerySemantics semantics);
  // Grouped: `inner` is parameter-free, grouped on `inner_key_cols`; an
  // input row's set is the group equal to its `probe_keys` (none when a key
  // is NULL: equality bindings never match NULL).
  ApplyOp(OperatorPtr input, OperatorPtr inner,
          std::vector<int> inner_key_cols, std::vector<ExprPtr> probe_keys,
          SubquerySemantics semantics);
  // Lateral join (inner-join semantics) over an inner of `inner_width`
  // columns, re-run or memoized on `params`.
  ApplyOp(OperatorPtr input, OperatorPtr inner,
          std::vector<ParamSource> params, int inner_width);

  std::string name() const override;
  std::string ToString(int indent) const override;
  int output_width() const override {
    return input_->output_width() + (lateral() ? inner_width_ : 1);
  }
  void Introspect(PlanIntrospection* out) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  ApplyOp(OperatorPtr input, OperatorPtr inner,
          std::vector<ParamSource> params, std::vector<int> inner_key_cols,
          std::vector<ExprPtr> probe_keys, SubquerySemantics semantics,
          int inner_width);

  bool grouped() const { return !probe_keys_.empty(); }
  bool lateral() const { return inner_width_ >= 0; }

  Status NextLateral(Row* out, bool* eof);
  // Points *set at the inner row set of input row `in`'s binding.
  Status FindSet(const Row& in, const std::vector<Row>** set);
  // Runs the inner plan with key_ as its parameters; the rows' charge is
  // added to *charged.
  Status RunInner(std::vector<Row>* rows, int64_t* charged);
  // Memo: enters `rows` (charged `charged`) as key_'s set, whose hash is
  // `hash`, or keeps them in once_ when they cannot be kept.
  Status Remember(size_t hash, std::vector<Row> rows, int64_t charged,
                  const std::vector<Row>** set);
  // Grouped: collects the inner and groups it on inner_key_cols_.
  Status BuildGroups();
  // Hands *bytes back to the guard and zeroes it.
  void Release(int64_t* bytes);
  // Drops once_ and its charge.
  void DropOnce();

  OperatorPtr input_;
  OperatorPtr inner_;
  std::vector<ParamSource> params_;  // re-run and memo: the binding
  std::vector<int> inner_key_cols_;  // grouped: the inner's key columns
  std::vector<ExprPtr> probe_keys_;  // grouped: the input row's key
  SubquerySemantics semantics_;      // unused by a lateral join
  int inner_width_;                  // lateral join; -1 otherwise
  ExecContext* ctx_ = nullptr;

  // Binding → id; sets_[id] holds that binding's inner rows, in inner
  // order. table_bytes_ is what the table and its sets hold charged.
  KeyTable table_;
  std::vector<std::vector<Row>> sets_;
  int64_t table_bytes_ = 0;
  bool memo_ = false;  // this Open memoizes re-runs in table_
  // A set not kept in the table (a re-run, or a memo entry used once) and
  // the charge it still holds.
  std::vector<Row> once_;
  int64_t once_bytes_ = 0;
  Row key_;  // scratch: the bound parameters, or a group's key

  // Lateral join: the input row whose inner rows are being emitted.
  Row current_;
  const std::vector<Row>* set_ = nullptr;
  size_t cursor_ = 0;
  bool input_eof_ = false;
};

}  // namespace decorr

#endif  // DECORR_EXEC_APPLY_H_
