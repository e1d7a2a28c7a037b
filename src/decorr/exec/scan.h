// Base-table access: sequential scan with fused filter, and hash-index
// lookup (the key may depend on correlation parameters, which is how nested
// iteration exploits indexes inside subqueries). Every base-table access
// path filters in place over the table's typed column storage and
// materializes only its projection, and only for rows that pass. Access
// paths also take runtime key filters from the hash joins above them.
#ifndef DECORR_EXEC_SCAN_H_
#define DECORR_EXEC_SCAN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "decorr/common/key_table.h"
#include "decorr/expr/expr.h"
#include "decorr/exec/operator.h"
#include "decorr/storage/hash_index.h"
#include "decorr/storage/table.h"

namespace decorr {

// A set of table rows: the contiguous range [begin, begin + size) or, when
// `ids` is set, the listed rows (an index match list).
struct RowSet {
  size_t begin = 0;
  const uint32_t* ids = nullptr;
  size_t size = 0;

  static RowSet Range(size_t begin, size_t size) {
    return {begin, nullptr, size};
  }
  static RowSet List(std::span<const uint32_t> ids) {
    return {0, ids.data(), ids.size()};
  }
  size_t operator[](size_t i) const { return ids ? ids[i] : begin + i; }
  RowSet Slice(size_t from, size_t n) const {
    return ids ? RowSet{0, ids + from, n} : RowSet{begin + from, nullptr, n};
  }
};

// A predicate over one table's raw rows (its column refs are table column
// ordinals), evaluated in place over the typed column storage: comparisons
// of a column with a constant or parameter, IS [NOT] NULL, [NOT] LIKE and
// [NOT] IN lists, under AND/OR. Rows that fail never build a Value. What is
// fixed for the filter is prepared once: constant LIKE patterns whose only
// wildcards are a leading and/or trailing '%' become equality, prefix,
// suffix or substring tests, and the constant items of IN lists are read
// into typed sets. Other shapes load only the columns the predicate reads
// into a scratch row for the row evaluator. A null filter passes every row.
class StorageFilter {
 public:
  StorageFilter(const Table& table, const Expr* filter);
  ~StorageFilter();

  // (*match)[i] is 1 if row rows[i] satisfies the filter (TRUE) and 0
  // otherwise (FALSE and UNKNOWN both reject).
  void Eval(const Row* params, const RowSet& rows,
            std::vector<char>* match) const;

  struct Node;  // the in-place form of a filter (scan.cc)

 private:
  const Table& table_;
  const Expr* filter_;
  std::unique_ptr<const Node> in_place_;  // null: shape not handled in place
  std::vector<int> columns_;  // table columns the filter reads (fallback)
};

// A runtime key filter (DESIGN.md §14): an inner hash join on one probe
// column offers its build table to the access path that reads that
// column. While `live` — from the end of an in-memory build to the join's
// Close — the access path keeps a row only if its value in that column is
// a key of `keys`, under KeyTable's hash and equality (INT64 4 matches
// DOUBLE 4.0). A NULL value is kept only under a null-safe key whose build
// holds a NULL key. Rows it rejects can never join, so the join's output
// is unchanged.
struct KeyFilter {
  const KeyTable* keys = nullptr;  // width 1
  bool null_safe = false;
  bool live = false;
};

// Walks a RowSet in order, filtering it one chunk of kChunkRows ahead of
// the caller and skipping failing rows a chunk at a time.
class FilteredRowCursor {
 public:
  static constexpr size_t kChunkRows = 1024;

  void Reset(const RowSet& rows) {
    rows_ = rows;
    pos_ = start_ = end_ = 0;
  }
  // Adds a key filter on `column` (of the table the RowSet indexes): each
  // chunk filtered while it is live also rejects the rows that pass the
  // StorageFilter but fail it. Reset() keeps it.
  void AddKeyFilter(const Column& column, const KeyFilter* filter) {
    key_filters_.emplace_back(&column, filter);
  }
  // Advances to the next row that passes `filter` and the live key filters
  // and sets *row to it, or sets *eof at the end of the set. Adds to
  // *walked every row it moved past: the failing rows and the returned
  // one, so a caller that counts *walked counts each row of the set once,
  // however it is chunked; adds to *key_rejected those of them that only a
  // key filter rejected. Polls ctx.Check() once per chunk it filters and
  // once per row it returns; on an error, the counters already hold the
  // rows walked before it.
  Status Next(const StorageFilter& filter, const ExecContext& ctx,
              size_t* row, bool* eof, int64_t* walked,
              int64_t* key_rejected);

 private:
  // Marks the rows of the current chunk that a live key filter rejects;
  // false when no key filter is live.
  bool ApplyKeyFilters(const RowSet& chunk);

  RowSet rows_;
  size_t pos_ = 0;    // next position in rows_
  size_t start_ = 0;  // positions [start_, end_) have verdicts in match_
  size_t end_ = 0;
  bool keyed_ = false;  // a key filter judged the current chunk
  std::vector<char> match_;
  std::vector<std::pair<const Column*, const KeyFilter*>> key_filters_;
};

// Appends `cols` of table row `row` to *out.
void AppendColumns(const Table& table, size_t row, const std::vector<int>& cols,
                   Row* out);

// EXPLAIN rendering of a projection: "cols=[a, b]".
std::string ColumnList(const Table& table, const std::vector<int>& cols);

// Sequential scan producing `projection` columns of `table`, restricted by
// an optional `filter` whose column refs are slots into the FULL table row.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(TablePtr table, std::vector<int> projection, ExprPtr filter);

  std::string name() const override;
  std::string ToString(int indent) const override;
  int output_width() const override {
    return static_cast<int>(projection_.size());
  }
  void Introspect(PlanIntrospection* out) const override;
  bool OfferKeyFilter(int column, const KeyFilter* filter) override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  TablePtr table_;
  std::vector<int> projection_;
  ExprPtr filter_;
  StorageFilter storage_filter_;
  FilteredRowCursor rows_;
  ExecContext* ctx_ = nullptr;
};

// Hash-index lookup: evaluates `key_exprs` (constants and/or parameter
// references) once per Open, probes the index, then applies the residual
// filter and projection like SeqScanOp.
class IndexLookupOp : public Operator {
 public:
  IndexLookupOp(TablePtr table, std::shared_ptr<HashIndex> index,
                std::vector<ExprPtr> key_exprs, std::vector<int> projection,
                ExprPtr residual_filter);

  std::string name() const override;
  std::string ToString(int indent) const override;
  int output_width() const override {
    return static_cast<int>(projection_.size());
  }
  void Introspect(PlanIntrospection* out) const override;
  bool OfferKeyFilter(int column, const KeyFilter* filter) override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  TablePtr table_;
  std::shared_ptr<HashIndex> index_;
  std::vector<ExprPtr> key_exprs_;
  std::vector<int> projection_;
  ExprPtr filter_;
  StorageFilter storage_filter_;
  FilteredRowCursor rows_;  // over the match list; empty on a NULL key
  Row key_;                 // scratch: the evaluated key, reused per Open
  ExecContext* ctx_ = nullptr;
};

// Scan over an in-memory row vector. The planner never builds one; tests use
// it to feed operators hand-written rows.
class RowsScanOp : public Operator {
 public:
  RowsScanOp(std::shared_ptr<const std::vector<Row>> rows, int width);

  std::string name() const override { return "RowsScan"; }
  int output_width() const override { return width_; }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextImpl(Row* out, bool* eof) override;
  void CloseImpl() override;

 private:
  std::shared_ptr<const std::vector<Row>> rows_;
  int width_;
  ExecContext* ctx_ = nullptr;
  size_t cursor_ = 0;
};

}  // namespace decorr

#endif  // DECORR_EXEC_SCAN_H_
