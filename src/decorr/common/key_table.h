// KeyTable: the one hash table under the executor's hash operators (hash
// join, hash aggregation, DISTINCT, group-probe Apply, the uniqueness
// check) and the hash index. A hash join's table also serves as the
// runtime key filter on its probe side (exec/scan.h, KeyFilter).
//
// It maps each distinct key — a fixed-width tuple of Values — to a dense id
// (0, 1, 2, ... in first-insertion order); callers keep their payload (build
// rows, aggregate states, row ids) in arrays indexed by that id, so a key
// repeated a million times is still one entry, and a probe of another key
// in its bucket compares it once. Entries hold their key Values flat, one
// after another, with a cached hash and a chain link under a power-of-two
// directory: a probe allocates nothing, and an insert only grows the arrays
// (amortized) and copies the key's Values.
//
// Hash and equality are RowHash's value and Value::Equals: NULL equals NULL
// (callers that want SQL's NULL-never-matches drop NULL keys first), and
// INT64 4 equals DOUBLE 4.0. Entries are never erased; Clear() empties the
// table in time proportional to its size and keeps its capacity, so an
// operator re-opened per outer row pays nothing for its previous build.
#ifndef DECORR_COMMON_KEY_TABLE_H_
#define DECORR_COMMON_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "decorr/common/hash.h"
#include "decorr/common/value.h"

namespace decorr {

class KeyTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  explicit KeyTable(size_t width) : width_(width) {}

  // Empties the table, keeping its capacity.
  void Clear();

  size_t width() const { return width_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // RowHash of the `width` values at `key`.
  static size_t Hash(const Value* key, size_t width) {
    size_t seed = width;
    for (size_t i = 0; i < width; ++i) seed = HashCombine(seed, key[i].Hash());
    return seed;
  }

  // The id of the key equal to the width() values at `key` (whose Hash is
  // `hash`), or kNotFound. Row arguments hold exactly width() values.
  uint32_t Find(const Value* key, size_t hash) const {
    if (heads_.empty()) return kNotFound;
    for (uint32_t e = heads_[hash & mask_]; e != kNotFound;
         e = entries_[e].next) {
      if (entries_[e].hash == hash && KeyEquals(e, key)) return e;
    }
    return kNotFound;
  }
  uint32_t Find(const Row& key) const {
    return Find(key.data(), Hash(key.data(), width_));
  }
  // Find() in a width-1 table for a key that is not held as a Value (a
  // cell of typed column storage): `value_hash` is the key's Value::Hash()
  // and `equals(stored)` its Value::Equals against a stored key Value.
  template <typename Equals>
  uint32_t FindOne(size_t value_hash, const Equals& equals) const {
    if (heads_.empty()) return kNotFound;
    const size_t hash = HashCombine(1, value_hash);  // Hash() at width 1
    for (uint32_t e = heads_[hash & mask_]; e != kNotFound;
         e = entries_[e].next) {
      if (entries_[e].hash == hash && equals(keys_[e])) return e;
    }
    return kNotFound;
  }

  // The id of `key`, copying it in as the next id when it is new (and then
  // setting *inserted).
  uint32_t Insert(const Row& key, bool* inserted) {
    const size_t hash = Hash(key.data(), width_);
    const uint32_t id = Find(key.data(), hash);
    *inserted = id == kNotFound;
    return *inserted ? Append(key.data(), hash) : id;
  }
  // Copies in a key that Find() did not find, as the next id.
  uint32_t Append(const Value* key, size_t hash);

  // The width() values of the key with id `id`.
  const Value* key(uint32_t id) const {
    return keys_.data() + static_cast<size_t>(id) * width_;
  }
  Row KeyRow(uint32_t id) const { return Row(key(id), key(id) + width_); }

 private:
  struct Entry {
    size_t hash;
    uint32_t next;  // next id in the same bucket
  };

  bool KeyEquals(uint32_t id, const Value* key) const {
    const Value* stored = this->key(id);
    for (size_t i = 0; i < width_; ++i) {
      if (!stored[i].Equals(key[i])) return false;
    }
    return true;
  }
  void Grow();

  size_t width_;
  std::vector<Value> keys_;      // size() * width_ values, by id
  std::vector<Entry> entries_;   // by id
  std::vector<uint32_t> heads_;  // directory: first id per bucket
  size_t mask_ = 0;              // heads_.size() - 1
};

}  // namespace decorr

#endif  // DECORR_COMMON_KEY_TABLE_H_
