// Schema metadata objects: tables, columns, secondary indexes, storage
// structures. These are the paper's "catalog information" category — the
// monitor logs references to them at parse time ("right at its source")
// and the analyzer reasons about their physical design.

#ifndef IMON_CATALOG_SCHEMA_H_
#define IMON_CATALOG_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "storage/disk_manager.h"

namespace imon::catalog {

using ObjectId = int64_t;
inline constexpr ObjectId kInvalidObjectId = -1;

/// Ingres-style storage structures for base tables.
enum class StorageStructure {
  kHeap = 0,   ///< main pages + overflow chain (the default)
  kBtree = 1,  ///< B-Tree on the primary key; no overflow pages
  kHash = 2,   ///< static hash buckets on the key + overflow chains
  kIsam = 3,   ///< static sorted main pages + directory + overflow chains
};

const char* StorageStructureName(StorageStructure s);

struct ColumnInfo {
  ObjectId id = kInvalidObjectId;
  std::string name;
  TypeId type = TypeId::kInt;
  bool nullable = true;
  /// Position in the table's row layout.
  int ordinal = 0;
};

/// A column with only its name and type set: a virtual table's schema
/// entry.
inline ColumnInfo Column(std::string name, TypeId type) {
  ColumnInfo c;
  c.name = std::move(name);
  c.type = type;
  return c;
}

struct IndexInfo {
  ObjectId id = kInvalidObjectId;
  std::string name;
  ObjectId table_id = kInvalidObjectId;
  /// Ordinals of the key columns, in index order.
  std::vector<int> key_columns;
  bool unique = false;
  storage::FileId file_id = 0;
  /// Pages occupied (refreshed from storage on DDL / ANALYZE).
  int64_t pages = 0;
  /// Hypothetical index injected for what-if planning; owns no storage.
  bool is_virtual = false;
};

struct TableInfo {
  ObjectId id = kInvalidObjectId;
  std::string name;
  std::vector<ColumnInfo> columns;
  StorageStructure structure = StorageStructure::kHeap;
  /// Ordinals of primary-key columns (empty = no declared key; BTREE
  /// structure then keys on all columns).
  std::vector<int> primary_key;
  storage::FileId file_id = 0;
  /// Number of main pages allocated for HEAP structure.
  uint32_t main_page_target = 8;

  // -- statistics refreshed by DML bookkeeping / ANALYZE ------------------
  int64_t row_count = 0;
  int64_t main_pages = 0;
  int64_t overflow_pages = 0;

  std::vector<ObjectId> index_ids;

  /// Ordinal of `name`, or nullopt.
  std::optional<int> FindColumn(const std::string& name) const;
  int64_t TotalPages() const { return main_pages + overflow_pages; }
};

}  // namespace imon::catalog

#endif  // IMON_CATALOG_SCHEMA_H_
