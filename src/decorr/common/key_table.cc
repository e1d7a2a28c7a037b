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
  direct_.clear();
}

void KeyTable::FinishBuild() {
  direct_.clear();
  if (width_ != 1) return;
  int64_t lo = kDirectLimit;
  int64_t hi = -kDirectLimit;
  size_t ints = 0;
  uint32_t null_id = kNotFound;
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    const Value& key = keys_[id];
    if (key.is_null()) {
      null_id = id;
      continue;
    }
    if (key.type() != TypeId::kInt64) return;
    const int64_t v = key.int64_value();
    if (v < -kDirectLimit || v > kDirectLimit) return;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    ++ints;
  }
  // Both ends lie within ±2^53, so the range cannot overflow.
  if (ints == 0 || static_cast<uint64_t>(hi - lo) >= kDirectSpan * ints) {
    return;
  }
  direct_.assign(static_cast<size_t>(hi - lo) + 1, kNotFound);
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    if (!keys_[id].is_null()) direct_[keys_[id].int64_value() - lo] = id;
  }
  direct_min_ = lo;
  direct_null_ = null_id;
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
