// KeyTable: the one hash table under the executor's hash operators (hash
// join, hash aggregation — which also runs DISTINCT and UNION, and keeps
// one per DISTINCT aggregate — group-probe Apply, the uniqueness check),
// the hash index and ANALYZE's distinct counts. A hash join's table also
// serves as the runtime key filter on its probe side (exec/scan.h,
// KeyFilter).
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
//
// A table that is built once and then only probed (a hash join's build, the
// hash index) may be finished: FinishBuild() switches a width-1 table whose
// keys are dense INT64s to direct addressing, where a key's id is found by
// its offset from the smallest key instead of by hash and chain walk.
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

  // Empties the table, keeping its capacity; ends direct addressing.
  void Clear();

  // Declares the table complete until the next Clear(); nothing may be
  // inserted in between. If the width is 1 and the non-NULL keys are all
  // INT64s within ±2^53 whose range (max − min + 1) is at most kDirectSpan
  // times their number, the table also maps each offset key − min to the
  // key's id, and from then on Find and FindDirect look keys up by that
  // offset. Ids, order and Value::Equals semantics are unchanged: INT64 4
  // finds DOUBLE 4.0, a non-integral or out-of-range DOUBLE, a BOOL or a
  // STRING finds nothing, and NULL finds the NULL key if there is one. The
  // chains stay, so FindOne still works.
  void FinishBuild();
  static constexpr uint64_t kDirectSpan = 8;
  // FinishBuild() chose direct addressing.
  bool direct() const { return !direct_.empty(); }

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
  // Find() of the key at `key`, hashing it only if the table is not direct.
  uint32_t Find(const Value* key) const {
    return direct() ? FindDirect(*key) : Find(key, Hash(key, width_));
  }
  uint32_t Find(const Row& key) const { return Find(key.data()); }

  // Find() in a direct table (direct() must hold) for a one-column key, held
  // as a Value or as a typed cell of column storage.
  uint32_t FindDirect(int64_t v) const {
    // Unsigned, so a key below the smallest wraps past the map's end.
    const uint64_t offset =
        static_cast<uint64_t>(v) - static_cast<uint64_t>(direct_min_);
    return offset < direct_.size() ? direct_[offset] : kNotFound;
  }
  uint32_t FindDirect(double v) const {
    // Every key converts to DOUBLE exactly, so only an integral `v` within
    // ±2^53 can equal one (the range test also rejects NaN).
    if (!(v >= -kDirectLimit && v <= kDirectLimit)) return kNotFound;
    const int64_t i = static_cast<int64_t>(v);
    return static_cast<double>(i) == v ? FindDirect(i) : kNotFound;
  }
  uint32_t FindDirect(const Value& v) const {
    switch (v.type()) {
      case TypeId::kNull: return direct_null_;
      case TypeId::kInt64: return FindDirect(v.int64_value());
      case TypeId::kDouble: return FindDirect(v.double_value());
      default: return kNotFound;  // a BOOL or STRING never equals an INT64
    }
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

  // The id of the width() values at `key`, copying them in as the next id
  // when they are new (and then setting *inserted). Not between
  // FinishBuild() and Clear().
  uint32_t Insert(const Value* key, bool* inserted) {
    const size_t hash = Hash(key, width_);
    const uint32_t id = Find(key, hash);
    *inserted = id == kNotFound;
    return *inserted ? Append(key, hash) : id;
  }
  uint32_t Insert(const Row& key, bool* inserted) {
    return Insert(key.data(), inserted);
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

  // Direct keys lie within ±2^53, where INT64 → DOUBLE is exact.
  static constexpr int64_t kDirectLimit = int64_t{1} << 53;

  size_t width_;
  std::vector<Value> keys_;      // size() * width_ values, by id
  std::vector<Entry> entries_;   // by id
  std::vector<uint32_t> heads_;  // directory: first id per bucket
  size_t mask_ = 0;              // heads_.size() - 1
  // Direct addressing (empty: off): the id of key direct_min_ + i at i, or
  // kNotFound; direct_null_ is the NULL key's id.
  std::vector<uint32_t> direct_;
  int64_t direct_min_ = 0;
  uint32_t direct_null_ = kNotFound;
};

}  // namespace decorr

#endif  // DECORR_COMMON_KEY_TABLE_H_
