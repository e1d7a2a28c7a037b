// Equality hash index over one or more columns of a Table.
//
// The paper's experiments depend on index availability ("Indexes were
// available on all the necessary attributes, except when explicitly dropped
// to study the stability of the algorithms"). The planner probes the catalog
// for an index matching an equality predicate and lowers the scan to index
// lookups when one exists.
//
// Layout (CSR): a KeyTable maps each distinct key to an id, and one array
// holds every indexed row id grouped by key — key id k's rows are
// ids_[offsets_[k], offsets_[k + 1]), ascending — so a lookup is one probe
// and returns a span into that array. The KeyTable is finished once built,
// so a one-column index over dense INT64 keys finds a key's id by its
// offset (KeyTable::FinishBuild).
#ifndef DECORR_STORAGE_HASH_INDEX_H_
#define DECORR_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "decorr/common/key_table.h"
#include "decorr/common/value.h"
#include "decorr/storage/table.h"

namespace decorr {

class HashIndex {
 public:
  // Builds the index eagerly over all current rows of `table`.
  // `key_columns` are column ordinals in the table schema. The index is
  // immutable: the catalog builds a fresh one when rows are appended.
  HashIndex(const Table& table, std::vector<int> key_columns);

  const std::vector<int>& key_columns() const { return key_columns_; }

  // Row ids whose key equals `key` (same arity as key_columns), ascending.
  // Rows with a NULL in any key column are not indexed (SQL equality never
  // matches NULL). The span lives as long as the index.
  std::span<const uint32_t> Lookup(const Row& key) const;

  size_t num_distinct_keys() const { return keys_.size(); }
  // Lookups address keys directly (KeyTable::direct()).
  bool direct() const { return keys_.direct(); }

  std::string ToString() const;

 private:
  std::vector<int> key_columns_;
  KeyTable keys_;
  std::vector<uint32_t> offsets_;  // keys_.size() + 1 entries
  std::vector<uint32_t> ids_;      // row ids grouped by key id
};

}  // namespace decorr

#endif  // DECORR_STORAGE_HASH_INDEX_H_
