#include "decorr/common/key_table.h"

#include <algorithm>

namespace decorr {

namespace {
constexpr size_t kMinDirectory = 16;
}  // namespace

void KeyTable::Clear() {
  // Unlink only the buckets in use, so clearing a small table that once
  // held a large build does not sweep the whole directory.
  for (const Entry& e : entries_) heads_[e.hash & mask_] = kNotFound;
  keys_.clear();
  entries_.clear();
}

uint32_t KeyTable::Append(const Value* key, size_t hash) {
  if (entries_.size() >= heads_.size()) Grow();
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  keys_.insert(keys_.end(), key, key + width_);
  const size_t bucket = hash & mask_;
  entries_.push_back({hash, heads_[bucket]});
  heads_[bucket] = id;
  return id;
}

// Doubles the directory (load factor at most 1) and relinks every entry
// from its cached hash; no key is rehashed or moved.
void KeyTable::Grow() {
  const size_t n = std::max(kMinDirectory, heads_.size() * 2);
  heads_.assign(n, kNotFound);
  mask_ = n - 1;
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    const size_t bucket = entries_[id].hash & mask_;
    entries_[id].next = heads_[bucket];
    heads_[bucket] = id;
  }
}

}  // namespace decorr
