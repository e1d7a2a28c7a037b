#include "decorr/exec/scan.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string_view>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"
#include "decorr/expr/eval.h"

namespace decorr {

namespace {

// ---- In-place predicate evaluation over column storage ----
//
// `match` enters holding the candidate rows (non-zero = still passing) and
// leaves with 1 exactly for the candidates that satisfy the predicate, so a
// conjunction evaluates its right side only over its left side's
// survivors. Each leaf collapses UNKNOWN to 0; under that collapse Kleene
// AND/OR reduce to plain set operations on the candidates (NOT does not
// survive it and is left to the row evaluator).

bool IsColumn(const Expr& e) {
  return e.kind == ExprKind::kColumnRef && e.slot >= 0;
}

bool IsFixed(const Expr& e) {
  return e.kind == ExprKind::kConstant || e.kind == ExprKind::kParamRef;
}

// A constant's or parameter's value; null for a parameter without a
// binding, which is left to the row evaluator to report.
const Value* FixedValue(const Expr& e, const Row* params) {
  if (e.kind == ExprKind::kConstant) return &e.value;
  return params != nullptr ? &(*params)[e.param] : nullptr;
}

// A LIKE pattern as a test: a pattern whose only wildcards are a leading
// and/or trailing '%' is an equality, prefix, suffix or substring test of
// its literal middle; any other pattern keeps LikeMatch. Views `pattern`,
// which must outlive it.
class LikeTest {
 public:
  explicit LikeTest(std::string_view pattern) : pattern_(pattern) {
    size_t begin = 0;
    size_t end = pattern.size();
    while (begin < end && pattern[begin] == '%') ++begin;
    while (end > begin && pattern[end - 1] == '%') --end;
    const std::string_view middle(pattern.data() + begin, end - begin);
    if (middle.find_first_of("%_") != std::string_view::npos) return;
    literal_ = middle;
    const bool leading = begin > 0;
    const bool trailing = end < pattern.size();
    kind_ = leading ? (trailing ? kContains : kSuffix)
                    : (trailing ? kPrefix : kEquals);
  }

  bool operator()(std::string_view text) const {
    switch (kind_) {
      case kEquals: return text == literal_;
      case kPrefix: return text.starts_with(literal_);
      case kSuffix: return text.ends_with(literal_);
      case kContains: return text.find(literal_) != std::string_view::npos;
      case kGeneral: break;
    }
    return LikeMatch(text, pattern_);
  }

 private:
  enum Kind : uint8_t { kGeneral, kEquals, kPrefix, kSuffix, kContains };
  std::string_view pattern_;
  Kind kind_ = kGeneral;
  std::string_view literal_;  // the pattern between its end '%'s
};

// An IN list's items by type, and whether one was NULL, matched with
// Value::Compare's equality: numbers compare across INT64/DOUBLE, other
// types only within their own type. Strings view the items' Values, which
// must outlive it.
struct InItems {
  std::vector<int64_t> ints;
  std::vector<double> doubles;  // the DOUBLE items
  std::vector<double> numbers;  // every INT64 and DOUBLE item, as a double
  std::vector<std::string_view> strings;
  std::vector<bool> bools;
  bool saw_null = false;

  void Add(const Value& item) {
    switch (item.type()) {
      case TypeId::kNull: saw_null = true; break;
      case TypeId::kInt64:
        ints.push_back(item.int64_value());
        numbers.push_back(item.AsDouble());
        break;
      case TypeId::kDouble:
        doubles.push_back(item.double_value());
        numbers.push_back(item.double_value());
        break;
      case TypeId::kString: strings.push_back(item.string_value()); break;
      case TypeId::kBool: bools.push_back(item.bool_value()); break;
    }
  }
};

}  // namespace

// The in-place form of a filter: its Expr tree, with the parts fixed for
// the filter prepared once. Operand types are still checked per call,
// since parameters are only known then.
struct StorageFilter::Node {
  const Expr* expr = nullptr;
  std::vector<Node> children;    // kAnd / kOr: both operands
  std::optional<LikeTest> like;  // kLike with a non-NULL string constant
  InItems in;                    // kInList: the constant items
  std::vector<const Expr*> in_params;  // kInList: the parameter items

  // The in-place form of `e`, or nullopt for shapes left to the row
  // evaluator.
  static std::optional<Node> Prepare(const Expr& e) {
    Node node;
    node.expr = &e;
    switch (e.kind) {
      case ExprKind::kComparison: {
        const Expr& l = *e.children[0];
        const Expr& r = *e.children[1];
        if ((IsColumn(l) && IsFixed(r)) || (IsFixed(l) && IsColumn(r))) {
          return node;
        }
        return std::nullopt;
      }
      case ExprKind::kIsNull:
        if (IsColumn(*e.children[0])) return node;
        return std::nullopt;
      case ExprKind::kLike: {
        const Expr& pattern = *e.children[1];
        if (!IsColumn(*e.children[0]) || !IsFixed(pattern)) {
          return std::nullopt;
        }
        if (pattern.kind == ExprKind::kConstant &&
            pattern.value.type() == TypeId::kString) {
          node.like.emplace(pattern.value.string_value());
        }
        return node;
      }
      case ExprKind::kInList:
        if (!IsColumn(*e.children[0])) return std::nullopt;
        for (size_t c = 1; c < e.children.size(); ++c) {
          const Expr& item = *e.children[c];
          if (!IsFixed(item)) return std::nullopt;
          if (item.kind == ExprKind::kConstant) {
            node.in.Add(item.value);
          } else {
            node.in_params.push_back(&item);
          }
        }
        return node;
      case ExprKind::kAnd:
      case ExprKind::kOr:
        for (const ExprPtr& child : e.children) {
          std::optional<Node> prepared = Prepare(*child);
          if (!prepared) return std::nullopt;
          node.children.push_back(std::move(*prepared));
        }
        return node;
      default:
        return std::nullopt;
    }
  }
};

namespace {

using Node = StorageFilter::Node;

template <typename T>
bool ApplyCmp(BinaryOp op, const T& a, const T& b) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNullEq:  // operands are non-NULL here
      return a == b;
    case BinaryOp::kNe: return a != b;
    case BinaryOp::kLt: return a < b;
    case BinaryOp::kLe: return a <= b;
    case BinaryOp::kGt: return a > b;
    case BinaryOp::kGe: return a >= b;
    default: return false;  // unreachable: kComparison carries comparison ops
  }
}

// Keeps candidate i iff test(rows[i]).
template <typename Test>
void NarrowRows(const RowSet& rows, char* match, Test test) {
  if (rows.ids != nullptr) {
    for (size_t i = 0; i < rows.size; ++i) {
      if (match[i]) match[i] = test(rows.ids[i]);
    }
  } else {
    for (size_t i = 0; i < rows.size; ++i) {
      if (match[i]) match[i] = test(rows.begin + i);
    }
  }
}

// Keeps candidate i iff the column is non-NULL at rows[i] and test(row); a
// column without NULLs skips the null test.
template <typename Test>
void Narrow(const RowSet& rows, const Column& col, char* match, Test test) {
  if (col.has_nulls()) {
    NarrowRows(rows, match,
               [&](size_t r) { return !col.IsNull(r) && test(r); });
  } else {
    NarrowRows(rows, match, test);
  }
}

bool CompareInPlace(const Expr& e, const Table& t, const Row* params,
                    const RowSet& rows, char* match) {
  const Expr* col_side = e.children[0].get();
  const Expr* fixed_side = e.children[1].get();
  BinaryOp op = e.op;
  if (!IsColumn(*col_side)) {
    std::swap(col_side, fixed_side);
    op = MirrorComparison(op);
  }
  const Value* fixed_value = FixedValue(*fixed_side, params);
  if (fixed_value == nullptr) return false;
  const Value& fixed = *fixed_value;
  const Column& col = t.column(col_side->slot);
  if (fixed.is_null()) {
    // NULL comparand: UNKNOWN for every row — except the null-safe equal,
    // which matches exactly the NULL rows.
    for (size_t i = 0; i < rows.size; ++i) {
      if (match[i]) match[i] = op == BinaryOp::kNullEq && col.IsNull(rows[i]);
    }
    return true;
  }
  switch (col.type()) {
    case TypeId::kInt64:
      if (fixed.type() == TypeId::kInt64) {
        const int64_t rv = fixed.int64_value();
        Narrow(rows, col, match,
               [&](size_t r) { return ApplyCmp(op, col.Int64At(r), rv); });
        return true;
      }
      if (fixed.type() == TypeId::kDouble) {
        const double rv = fixed.double_value();
        Narrow(rows, col, match, [&](size_t r) {
          return ApplyCmp(op, static_cast<double>(col.Int64At(r)), rv);
        });
        return true;
      }
      return false;
    case TypeId::kDouble: {
      if (fixed.type() != TypeId::kInt64 && fixed.type() != TypeId::kDouble) {
        return false;
      }
      const double rv = fixed.AsDouble();
      Narrow(rows, col, match,
             [&](size_t r) { return ApplyCmp(op, col.DoubleAt(r), rv); });
      return true;
    }
    case TypeId::kString: {
      if (fixed.type() != TypeId::kString) return false;
      const std::string_view rv = fixed.string_value();
      Narrow(rows, col, match,
             [&](size_t r) {
               return ApplyCmp(op, std::string_view(col.StringAt(r)), rv);
             });
      return true;
    }
    case TypeId::kBool: {
      if (fixed.type() != TypeId::kBool) return false;
      const bool rv = fixed.bool_value();
      Narrow(rows, col, match,
             [&](size_t r) { return ApplyCmp(op, col.BoolAt(r), rv); });
      return true;
    }
    default:
      return false;
  }
}

// [NOT] IN over the node's items: a row equal to some item yields
// !negated; otherwise a NULL item makes it UNKNOWN.
bool InListInPlace(const Node& n, const Table& t, const Row* params,
                   const RowSet& rows, char* match) {
  const Expr& e = *n.expr;
  const Column& col = t.column(e.children[0]->slot);
  // Parameter items join a per-call copy of the prepared constants.
  std::optional<InItems> with_params;
  if (!n.in_params.empty()) {
    with_params.emplace(n.in);
    for (const Expr* item : n.in_params) {
      const Value* value = FixedValue(*item, params);
      if (value == nullptr) return false;
      with_params->Add(*value);
    }
  }
  const InItems& items = with_params ? *with_params : n.in;
  const bool on_hit = !e.negated;
  const bool on_miss = e.negated && !items.saw_null;
  auto has = [](const auto& set, const auto& v) {
    return std::find(set.begin(), set.end(), v) != set.end();
  };
  switch (col.type()) {
    case TypeId::kInt64:
      Narrow(rows, col, match, [&](size_t r) {
        const int64_t v = col.Int64At(r);
        return has(items.ints, v) ||
                       has(items.doubles, static_cast<double>(v))
                   ? on_hit
                   : on_miss;
      });
      return true;
    case TypeId::kDouble:
      Narrow(rows, col, match, [&](size_t r) {
        return has(items.numbers, col.DoubleAt(r)) ? on_hit : on_miss;
      });
      return true;
    case TypeId::kString:
      Narrow(rows, col, match, [&](size_t r) {
        return has(items.strings, std::string_view(col.StringAt(r)))
                   ? on_hit
                   : on_miss;
      });
      return true;
    case TypeId::kBool:
      Narrow(rows, col, match, [&](size_t r) {
        return has(items.bools, col.BoolAt(r)) ? on_hit : on_miss;
      });
      return true;
    default:
      return false;
  }
}

bool LikeInPlace(const Node& n, const Table& t, const Row* params,
                 const RowSet& rows, char* match) {
  const Expr& e = *n.expr;
  const Column& col = t.column(e.children[0]->slot);
  // A parameter pattern is prepared per call.
  std::optional<LikeTest> per_call;
  if (!n.like) {
    const Value* pattern = FixedValue(*e.children[1], params);
    if (pattern == nullptr) return false;
    if (pattern->is_null()) {
      std::fill(match, match + rows.size, 0);
      return true;
    }
    if (pattern->type() != TypeId::kString) return false;
    per_call.emplace(pattern->string_value());
  }
  if (col.type() != TypeId::kString) return false;
  const LikeTest& like = n.like ? *n.like : *per_call;
  Narrow(rows, col, match, [&](size_t r) {
    return like(col.StringAt(r)) != e.negated;
  });
  return true;
}

// Returns false (with `match` clobbered) on operand types it does not
// handle; the caller then falls back to the row evaluator.
bool EvalInPlace(const Node& n, const Table& t, const Row* params,
                 const RowSet& rows, char* match) {
  const Expr& e = *n.expr;
  switch (e.kind) {
    case ExprKind::kComparison:
      return CompareInPlace(e, t, params, rows, match);
    case ExprKind::kIsNull: {
      const Column& col = t.column(e.children[0]->slot);
      for (size_t i = 0; i < rows.size; ++i) {
        if (match[i]) match[i] = col.IsNull(rows[i]) != e.negated;
      }
      return true;
    }
    case ExprKind::kLike:
      return LikeInPlace(n, t, params, rows, match);
    case ExprKind::kInList:
      return InListInPlace(n, t, params, rows, match);
    case ExprKind::kAnd:
      return EvalInPlace(n.children[0], t, params, rows, match) &&
             EvalInPlace(n.children[1], t, params, rows, match);
    case ExprKind::kOr: {
      std::vector<char> rest(match, match + rows.size);
      if (!EvalInPlace(n.children[0], t, params, rows, match)) return false;
      for (size_t i = 0; i < rows.size; ++i) rest[i] &= !match[i];
      if (!EvalInPlace(n.children[1], t, params, rows, rest.data())) {
        return false;
      }
      for (size_t i = 0; i < rows.size; ++i) match[i] |= rest[i];
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

// ---- StorageFilter ----

StorageFilter::StorageFilter(const Table& table, const Expr* filter)
    : table_(table), filter_(filter) {
  if (filter_ == nullptr) return;
  if (std::optional<Node> prepared = Node::Prepare(*filter_)) {
    in_place_ = std::make_unique<const Node>(std::move(*prepared));
  }
  std::vector<const Expr*> refs;
  CollectColumnRefs(*filter_, &refs);
  for (const Expr* ref : refs) {
    if (std::find(columns_.begin(), columns_.end(), ref->slot) ==
        columns_.end()) {
      columns_.push_back(ref->slot);
    }
  }
}

StorageFilter::~StorageFilter() = default;

void StorageFilter::Eval(const Row* params, const RowSet& rows,
                         std::vector<char>* match) const {
  match->assign(rows.size, 1);
  if (filter_ == nullptr) return;
  if (in_place_ &&
      EvalInPlace(*in_place_, table_, params, rows, match->data())) {
    return;
  }
  Row scratch(table_.num_columns());
  EvalContext ectx;
  ectx.row = &scratch;
  ectx.params = params;
  for (size_t i = 0; i < rows.size; ++i) {
    for (int c : columns_) scratch[c] = table_.GetValue(rows[i], c);
    (*match)[i] = EvalPredicate(*filter_, ectx) ? 1 : 0;
  }
}

// ---- Runtime key filters ----

namespace {

// Verdict byte of a row that passed the StorageFilter but not a key filter.
constexpr char kKeyRejected = 2;

// Value::Compare's equality of two numbers: neither is less than the other.
bool SameNumber(double a, double b) { return !(a < b) && !(a > b); }

// Marks kKeyRejected every row of `rows` still passing (1) whose `col`
// value fails: a NULL value fails unless `null_passes`, any other unless
// has(row).
template <typename Has>
void RejectMisses(const RowSet& rows, const Column& col, bool null_passes,
                  Has has, char* match) {
  const bool nulls = col.has_nulls();
  for (size_t i = 0; i < rows.size; ++i) {
    if (match[i] != 1) continue;
    const size_t r = rows[i];
    if (nulls && col.IsNull(r) ? !null_passes : !has(r)) {
      match[i] = kKeyRejected;
    }
  }
}

// Applies one key filter to `rows`: a value passes iff it is a key of the
// build table, found with KeyTable's equality (Value::Equals of the value)
// computed on the typed cell — by offset in a direct table, else by
// Value::Hash and a bucket walk.
void ApplyKeyFilter(const KeyFilter& filter, const Column& col,
                    const RowSet& rows, char* match) {
  const KeyTable& keys = *filter.keys;
  const Value null_key;
  const bool null_passes =
      filter.null_safe && keys.Find(&null_key) != KeyTable::kNotFound;
  if (keys.direct()) {
    switch (col.type()) {
      case TypeId::kInt64:
        RejectMisses(rows, col, null_passes, [&](size_t r) {
          return keys.FindDirect(col.Int64At(r)) != KeyTable::kNotFound;
        }, match);
        return;
      case TypeId::kDouble:
        RejectMisses(rows, col, null_passes, [&](size_t r) {
          return keys.FindDirect(col.DoubleAt(r)) != KeyTable::kNotFound;
        }, match);
        return;
      default:
        break;  // the chains below find no STRING or BOOL either
    }
  }
  auto found = [&](size_t hash, auto equals) {
    return keys.FindOne(hash, equals) != KeyTable::kNotFound;
  };
  switch (col.type()) {
    case TypeId::kInt64:
      RejectMisses(rows, col, null_passes, [&](size_t r) {
        const int64_t v = col.Int64At(r);
        return found(Value::HashInt64(v), [v](const Value& k) {
          if (k.type() == TypeId::kInt64) return k.int64_value() == v;
          return k.type() == TypeId::kDouble &&
                 SameNumber(k.double_value(), static_cast<double>(v));
        });
      }, match);
      return;
    case TypeId::kDouble:
      RejectMisses(rows, col, null_passes, [&](size_t r) {
        const double v = col.DoubleAt(r);
        return found(Value::HashDouble(v), [v](const Value& k) {
          return (k.type() == TypeId::kInt64 ||
                  k.type() == TypeId::kDouble) &&
                 SameNumber(k.AsDouble(), v);
        });
      }, match);
      return;
    case TypeId::kString:
      RejectMisses(rows, col, null_passes, [&](size_t r) {
        const std::string& v = col.StringAt(r);
        return found(Value::HashString(v), [&v](const Value& k) {
          return k.type() == TypeId::kString && k.string_value() == v;
        });
      }, match);
      return;
    case TypeId::kBool:
      RejectMisses(rows, col, null_passes, [&](size_t r) {
        const bool v = col.BoolAt(r);
        return found(Value::HashBool(v), [v](const Value& k) {
          return k.type() == TypeId::kBool && k.bool_value() == v;
        });
      }, match);
      return;
    default:
      return;
  }
}

}  // namespace

bool FilteredRowCursor::ApplyKeyFilters(const RowSet& chunk) {
  // Direct tables first: they are the cheaper lookup, and a chained filter
  // then skips the rows they rejected. Every filter only marks rows, so
  // the verdicts do not depend on the order.
  bool any = false;
  for (const bool direct : {true, false}) {
    for (const auto& [column, filter] : key_filters_) {
      if (!filter->live || filter->keys->direct() != direct) continue;
      any = true;
      ApplyKeyFilter(*filter, *column, chunk, match_.data());
    }
  }
  return any;
}

Status FilteredRowCursor::Next(const StorageFilter& filter,
                               const ExecContext& ctx, size_t* row, bool* eof,
                               int64_t* walked, int64_t* key_rejected) {
  while (pos_ < rows_.size) {
    if (pos_ == end_) {
      DECORR_RETURN_IF_ERROR(ctx.Check());
      start_ = pos_;
      end_ = std::min(rows_.size, pos_ + kChunkRows);
      const RowSet chunk = rows_.Slice(start_, end_ - start_);
      filter.Eval(ctx.params, chunk, &match_);
      keyed_ = ApplyKeyFilters(chunk);
    }
    // Verdicts are 0 (StorageFilter fails), kKeyRejected or 1, so the next
    // passing row of the chunk is the next 1 byte.
    const char* chunk = match_.data();
    const void* hit = std::memchr(chunk + (pos_ - start_), 1, end_ - pos_);
    const size_t next =
        hit == nullptr ? end_
                       : start_ + static_cast<size_t>(
                                      static_cast<const char*>(hit) - chunk);
    *walked += static_cast<int64_t>(next - pos_);
    if (keyed_) {
      *key_rejected += std::count(chunk + (pos_ - start_),
                                  chunk + (next - start_), kKeyRejected);
    }
    pos_ = next;
    if (pos_ == end_) continue;
    DECORR_RETURN_IF_ERROR(ctx.Check());
    *row = rows_[pos_++];
    ++*walked;
    *eof = false;
    return Status::OK();
  }
  *eof = true;
  return Status::OK();
}

void AppendColumns(const Table& table, size_t row, const std::vector<int>& cols,
                   Row* out) {
  for (int c : cols) out->push_back(table.GetValue(row, c));
}

std::string ColumnList(const Table& table, const std::vector<int>& cols) {
  std::string out = "cols=[";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ", ";
    out += table.schema().column(cols[i]).name;
  }
  return out + "]";
}

// ---- SeqScanOp ----

SeqScanOp::SeqScanOp(TablePtr table, std::vector<int> projection,
                     ExprPtr filter)
    : table_(std::move(table)),
      projection_(std::move(projection)),
      filter_(std::move(filter)),
      storage_filter_(*table_, filter_.get()) {}

Status SeqScanOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.seqscan.open");
  ctx_ = ctx;
  rows_.Reset(RowSet::Range(0, table_->num_rows()));
  return Status::OK();
}

Status SeqScanOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.seqscan.next");
  size_t r = 0;
  int64_t walked = 0;
  Status st = rows_.Next(storage_filter_, *ctx_, &r, eof, &walked,
                         &metrics_.keyfilter_rejected);
  ctx_->stats->rows_scanned += walked;
  metrics_.rows_in_self += walked;
  if (!st.ok() || *eof) return st;
  out->clear();
  out->reserve(projection_.size());
  AppendColumns(*table_, r, projection_, out);
  return Status::OK();
}

void SeqScanOp::CloseImpl() {}

bool SeqScanOp::OfferKeyFilter(int column, const KeyFilter* filter) {
  rows_.AddKeyFilter(table_->column(projection_[column]), filter);
  return true;
}

std::string SeqScanOp::name() const {
  return "SeqScan(" + table_->schema().name() + ")";
}

std::string SeqScanOp::ToString(int indent) const {
  std::string out = Indent(indent) + name() + " " +
                    ColumnList(*table_, projection_);
  if (filter_) out += " filter=" + filter_->ToString();
  return out + "\n";
}

// ---- IndexLookupOp ----

IndexLookupOp::IndexLookupOp(TablePtr table, std::shared_ptr<HashIndex> index,
                             std::vector<ExprPtr> key_exprs,
                             std::vector<int> projection,
                             ExprPtr residual_filter)
    : table_(std::move(table)),
      index_(std::move(index)),
      key_exprs_(std::move(key_exprs)),
      projection_(std::move(projection)),
      filter_(std::move(residual_filter)),
      storage_filter_(*table_, filter_.get()) {}

Status IndexLookupOp::OpenImpl(ExecContext* ctx) {
  DECORR_FAULT_POINT("exec.indexlookup.open");
  ctx_ = ctx;
  EvalContext ectx;
  ectx.row = nullptr;
  ectx.params = ctx->params;
  bool null_key = false;
  key_.clear();
  for (const ExprPtr& expr : key_exprs_) {
    key_.push_back(Eval(*expr, ectx));
    if (key_.back().is_null()) null_key = true;
  }
  // A NULL key matches nothing and performs no probe, so it is not counted
  // as an index lookup.
  RowSet matches;
  if (!null_key) {
    ++ctx->stats->index_lookups;
    ++metrics_.index_probes;
    matches = RowSet::List(index_->Lookup(key_));
  }
  rows_.Reset(matches);
  return Status::OK();
}

Status IndexLookupOp::NextImpl(Row* out, bool* eof) {
  DECORR_FAULT_POINT("exec.indexlookup.next");
  size_t r = 0;
  int64_t walked = 0;
  Status st = rows_.Next(storage_filter_, *ctx_, &r, eof, &walked,
                         &metrics_.keyfilter_rejected);
  ctx_->stats->rows_scanned += walked;
  metrics_.rows_in_self += walked;
  if (!st.ok() || *eof) return st;
  out->clear();
  out->reserve(projection_.size());
  AppendColumns(*table_, r, projection_, out);
  return Status::OK();
}

void IndexLookupOp::CloseImpl() { rows_.Reset(RowSet{}); }

bool IndexLookupOp::OfferKeyFilter(int column, const KeyFilter* filter) {
  rows_.AddKeyFilter(table_->column(projection_[column]), filter);
  return true;
}

std::string IndexLookupOp::name() const {
  return "IndexLookup(" + table_->schema().name() + ")";
}

std::string IndexLookupOp::ToString(int indent) const {
  std::string out = Indent(indent) + name() + " key=(";
  for (size_t i = 0; i < key_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += key_exprs_[i]->ToString();
  }
  out += ") " + ColumnList(*table_, projection_);
  if (filter_) out += " filter=" + filter_->ToString();
  return out + "\n";
}

// ---- RowsScanOp ----

RowsScanOp::RowsScanOp(std::shared_ptr<const std::vector<Row>> rows, int width)
    : rows_(std::move(rows)), width_(width) {}

Status RowsScanOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  cursor_ = 0;
  return Status::OK();
}

Status RowsScanOp::NextImpl(Row* out, bool* eof) {
  DECORR_RETURN_IF_ERROR(ctx_->Check());
  if (cursor_ >= rows_->size()) {
    *eof = true;
    return Status::OK();
  }
  ++metrics_.rows_in_self;
  *out = (*rows_)[cursor_++];
  *eof = false;
  return Status::OK();
}

void RowsScanOp::CloseImpl() {}


void SeqScanOp::Introspect(PlanIntrospection* out) const {
  if (filter_) {
    out->exprs.push_back({filter_.get(), table_->num_columns(), "filter"});
  }
  for (size_t i = 0; i < projection_.size(); ++i) {
    out->ordinals.push_back({projection_[i], table_->num_columns(),
                             StrFormat("projection %zu", i)});
  }
}

void IndexLookupOp::Introspect(PlanIntrospection* out) const {
  // Keys are evaluated at Open with no input row: constants and parameter
  // references only, so their slot-reference arity is zero.
  for (size_t i = 0; i < key_exprs_.size(); ++i) {
    out->exprs.push_back(
        {key_exprs_[i].get(), 0, StrFormat("index key %zu", i)});
  }
  if (filter_) {
    out->exprs.push_back(
        {filter_.get(), table_->num_columns(), "residual filter"});
  }
  for (size_t i = 0; i < projection_.size(); ++i) {
    out->ordinals.push_back({projection_[i], table_->num_columns(),
                             StrFormat("projection %zu", i)});
  }
}

}  // namespace decorr
