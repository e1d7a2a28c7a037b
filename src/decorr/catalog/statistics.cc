#include "decorr/catalog/statistics.h"

#include "decorr/common/key_table.h"
#include "decorr/common/string_util.h"
#include "decorr/storage/table.h"

namespace decorr {

double TableStats::EqualitySelectivity(int col) const {
  if (col < 0 || col >= static_cast<int>(columns.size())) return 0.1;
  const uint64_t distinct = columns[col].distinct_count;
  if (distinct == 0) return 1.0;
  return 1.0 / static_cast<double>(distinct);
}

double TableStats::RangeSelectivity(int col) const {
  (void)col;
  return 1.0 / 3.0;
}

std::string TableStats::ToString() const {
  std::string out = StrFormat("rows=%llu",
                              static_cast<unsigned long long>(row_count));
  for (size_t i = 0; i < columns.size(); ++i) {
    out += StrFormat("; col%zu{ndv=%llu nulls=%llu}", i,
                     static_cast<unsigned long long>(columns[i].distinct_count),
                     static_cast<unsigned long long>(columns[i].null_count));
  }
  return out;
}

TableStats ComputeStats(const Table& table) {
  TableStats stats;
  stats.row_count = table.num_rows();
  stats.columns.resize(table.num_columns());
  KeyTable distinct(1);  // reused: Clear() keeps its capacity
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnStats& cs = stats.columns[c];
    distinct.Clear();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value v = table.GetValue(r, c);
      if (v.is_null()) {
        ++cs.null_count;
        continue;
      }
      if (cs.min.is_null() || v.Compare(cs.min) < 0) cs.min = v;
      if (cs.max.is_null() || v.Compare(cs.max) > 0) cs.max = v;
      bool inserted = false;
      distinct.Insert(&v, &inserted);
    }
    cs.distinct_count = distinct.size();
  }
  return stats;
}

}  // namespace decorr
