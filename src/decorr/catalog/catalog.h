// The catalog maps table names to stored tables, their statistics and their
// indexes. It is the single source of truth the binder and planner consult.
#ifndef DECORR_CATALOG_CATALOG_H_
#define DECORR_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decorr/catalog/schema.h"
#include "decorr/catalog/statistics.h"
#include "decorr/common/status.h"
#include "decorr/storage/hash_index.h"
#include "decorr/storage/table.h"

namespace decorr {

// A registered table plus its derived metadata.
struct CatalogEntry {
  TablePtr table;
  TableStats stats;
  // Table::version() at the time `stats` was computed. When the table has
  // been appended to since, the statistics are stale.
  uint64_t stats_version = 0;
  // Indexes by name. Index names are case-insensitive, stored lowercased.
  std::map<std::string, std::shared_ptr<HashIndex>> indexes;
};

class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Registers `table` under its schema name; computes statistics eagerly.
  Status RegisterTable(TablePtr table);

  // Drops a table (and its indexes).
  Status DropTable(const std::string& name);

  // Recomputes statistics (call after bulk-appending rows). A no-op when the
  // statistics are already fresh (computed at the table's current version):
  // recomputing from unchanged data would yield identical statistics, and
  // the skipped epoch bump keeps cached plans priced at the current epoch
  // valid — periodic ANALYZE must not wipe the server's plan cache.
  Status RefreshStats(const std::string& name);

  Result<TablePtr> GetTable(const std::string& name) const;
  const CatalogEntry* FindEntry(const std::string& name) const;

  // Appends `rows` to `table` — the one append path, which Database::Insert
  // and ImportCsv share — then rebuilds every index of the table, also when
  // an append fails partway, so each index covers exactly the rows the
  // table holds. Each rebuilt index replaces the entry's old one; a plan
  // already holding the old index keeps it. Returns the first append error.
  Status AppendRows(const std::string& table, const std::vector<Row>& rows);

  // Builds a hash index named `index_name` on `table`(`column_names`).
  Status CreateIndex(const std::string& table, const std::string& index_name,
                     const std::vector<std::string>& column_names);
  Status DropIndex(const std::string& table, const std::string& index_name);

  // An index whose key columns are a subset of `columns` — the planner uses
  // it to serve conjunctive equality predicates. Returns nullptr if none.
  std::shared_ptr<HashIndex> FindIndexCoveredBy(
      const std::string& table, const std::vector<int>& columns) const;

  std::vector<std::string> TableNames() const;

  // True when `name`'s statistics were computed at an older data version
  // than the table currently holds (rows appended since the last
  // RegisterTable/RefreshStats). Unknown tables are not stale.
  bool StatsStale(const std::string& name) const;

  // Catalog-wide statistics epoch: bumped on every RegisterTable and every
  // RefreshStats that actually recomputed. EXPLAIN surfaces it so a plan
  // records which generation of statistics priced it, and the server's plan
  // cache invalidates entries whose epoch no longer matches. Atomic so
  // concurrent readers may poll it while a Mutate-side refresh bumps it.
  uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_acquire);
  }

  std::string ToString() const;

 private:
  // Keyed by lowercased table name.
  std::map<std::string, CatalogEntry> tables_;
  std::atomic<uint64_t> stats_epoch_{0};
};

}  // namespace decorr

#endif  // DECORR_CATALOG_CATALOG_H_
