#include "decorr/storage/hash_index.h"

#include "decorr/common/string_util.h"

namespace decorr {

HashIndex::HashIndex(const Table& table, std::vector<int> key_columns)
    : key_columns_(std::move(key_columns)), keys_(key_columns_.size()) {
  // Pass 1: the key id of every row (kNotFound for a NULL key) and the
  // number of rows per key.
  const size_t width = key_columns_.size();
  std::vector<uint32_t> row_key(table.num_rows(), KeyTable::kNotFound);
  std::vector<uint32_t> counts;
  Row key(width);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool has_null = false;
    for (size_t k = 0; k < width; ++k) {
      key[k] = table.GetValue(r, key_columns_[k]);
      if (key[k].is_null()) {
        has_null = true;
        break;
      }
    }
    if (has_null) continue;
    bool inserted = false;
    const uint32_t id = keys_.Insert(key, &inserted);
    if (inserted) counts.push_back(0);
    ++counts[id];
    row_key[r] = id;
  }
  keys_.FinishBuild();
  // Pass 2: scatter the row ids in ascending order into their key's slice.
  offsets_.assign(counts.size() + 1, 0);
  for (size_t k = 0; k < counts.size(); ++k) {
    offsets_[k + 1] = offsets_[k] + counts[k];
  }
  ids_.resize(offsets_.back());
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (size_t r = 0; r < row_key.size(); ++r) {
    if (row_key[r] != KeyTable::kNotFound) {
      ids_[fill[row_key[r]]++] = static_cast<uint32_t>(r);
    }
  }
}

std::span<const uint32_t> HashIndex::Lookup(const Row& key) const {
  if (key.size() != key_columns_.size()) return {};
  const uint32_t id = keys_.Find(key);
  if (id == KeyTable::kNotFound) return {};
  return {ids_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
}

std::string HashIndex::ToString() const {
  std::vector<std::string> cols;
  for (int c : key_columns_) cols.push_back(std::to_string(c));
  return StrFormat("HashIndex(cols=[%s], keys=%zu)", Join(cols, ",").c_str(),
                   keys_.size());
}

}  // namespace decorr
