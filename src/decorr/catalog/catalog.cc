#include "decorr/catalog/catalog.h"

#include <algorithm>

#include "decorr/common/fault.h"
#include "decorr/common/string_util.h"

namespace decorr {

Status Catalog::RegisterTable(TablePtr table) {
  DECORR_FAULT_POINT("catalog.register_table");
  const std::string key = ToLower(table->schema().name());
  if (tables_.count(key)) {
    return Status::AlreadyExists("table already exists: " + key);
  }
  CatalogEntry entry;
  entry.stats = ComputeStats(*table);
  entry.stats_version = table->version();
  entry.table = std::move(table);
  tables_.emplace(key, std::move(entry));
  stats_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(ToLower(name)) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  return Status::OK();
}

Status Catalog::RefreshStats(const std::string& name) {
  DECORR_FAULT_POINT("catalog.refresh_stats");
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  // Freshness gate: nothing changed since the last computation, so the
  // recompute would be byte-identical. Skipping the epoch bump too keeps
  // cached plans valid (see the header comment).
  if (it->second.stats_version == it->second.table->version()) {
    return Status::OK();
  }
  it->second.stats = ComputeStats(*it->second.table);
  it->second.stats_version = it->second.table->version();
  stats_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

bool Catalog::StatsStale(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return false;
  return it->second.stats_version != it->second.table->version();
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.table;
}

const CatalogEntry* Catalog::FindEntry(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : &it->second;
}

Status Catalog::AppendRows(const std::string& table,
                           const std::vector<Row>& rows) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  CatalogEntry& entry = it->second;
  const uint64_t version = entry.table->version();
  Status st;
  for (const Row& row : rows) {
    st = entry.table->AppendRow(row);
    if (!st.ok()) break;
  }
  if (entry.table->version() != version) {
    for (auto& [name, index] : entry.indexes) {
      (void)name;
      index = std::make_shared<HashIndex>(*entry.table, index->key_columns());
    }
  }
  return st;
}

Status Catalog::CreateIndex(const std::string& table,
                            const std::string& index_name,
                            const std::vector<std::string>& column_names) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  const std::string idx_key = ToLower(index_name);
  if (it->second.indexes.count(idx_key)) {
    return Status::AlreadyExists("index already exists: " + index_name);
  }
  std::vector<int> cols;
  for (const std::string& cname : column_names) {
    auto ord = it->second.table->schema().FindColumn(cname);
    if (!ord) {
      return Status::NotFound(StrFormat("no column %s in table %s",
                                        cname.c_str(), table.c_str()));
    }
    cols.push_back(*ord);
  }
  it->second.indexes.emplace(
      idx_key, std::make_shared<HashIndex>(*it->second.table, cols));
  return Status::OK();
}

Status Catalog::DropIndex(const std::string& table,
                          const std::string& index_name) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  if (it->second.indexes.erase(ToLower(index_name)) == 0) {
    return Status::NotFound("no such index: " + index_name);
  }
  return Status::OK();
}

std::shared_ptr<HashIndex> Catalog::FindIndexCoveredBy(
    const std::string& table, const std::vector<int>& columns) const {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return nullptr;
  std::shared_ptr<HashIndex> best;
  for (const auto& [name, index] : it->second.indexes) {
    (void)name;
    const std::vector<int>& key = index->key_columns();
    bool covered = std::all_of(key.begin(), key.end(), [&](int kc) {
      return std::find(columns.begin(), columns.end(), kc) != columns.end();
    });
    if (!covered) continue;
    // Prefer the index with the most key columns (most selective lookup).
    if (!best || key.size() > best->key_columns().size()) best = index;
  }
  return best;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : tables_) {
    (void)entry;
    out.push_back(name);
  }
  return out;
}

std::string Catalog::ToString() const {
  std::string out;
  for (const auto& [name, entry] : tables_) {
    out += StrFormat("%s: %zu rows, %zu indexes\n", name.c_str(),
                     entry.table->num_rows(), entry.indexes.size());
  }
  return out;
}

}  // namespace decorr
