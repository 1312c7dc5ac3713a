// System catalog: the authoritative registry of tables, indexes, column
// statistics and virtual tables. Thread-safe (readers share).

#ifndef IMON_CATALOG_CATALOG_H_
#define IMON_CATALOG_CATALOG_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/histogram.h"
#include "catalog/schema.h"
#include "common/status.h"

namespace imon::catalog {

/// A read-only table materialized at scan time from engine-internal state.
/// The IMA module implements this to expose the monitor's ring buffers as
/// SQL tables (paper §IV-A).
class VirtualTableProvider {
 public:
  virtual ~VirtualTableProvider() = default;
  /// Column layout of the virtual table.
  virtual std::vector<ColumnInfo> Schema() const = 0;
  /// Ordinal of a monotone sequence column, or -1. The executor pushes a
  /// `seq > <literal>` conjunct on it down into Rows() (the daemon's
  /// incremental polls).
  virtual int SeqColumn() const { return -1; }
  /// The rows with seq > min_seq: all of them for INT64_MIN, and for a
  /// table without a seq column.
  virtual std::vector<Row> Rows(int64_t min_seq) const = 0;
};

class Catalog {
 public:
  Catalog() = default;

  // -- tables -------------------------------------------------------------
  /// Register a new table; assigns ids. Fails on duplicate name.
  Result<ObjectId> CreateTable(TableInfo info);
  Status DropTable(const std::string& name);
  Result<TableInfo> GetTable(const std::string& name) const;
  Result<TableInfo> GetTableById(ObjectId id) const;
  std::vector<TableInfo> ListTables() const;
  bool HasTable(const std::string& name) const;

  /// Overwrite mutable fields (structure, counts, file) of a table.
  /// Bumps the catalog version (invalidates cached plans).
  Status UpdateTable(const TableInfo& info);

  /// Like UpdateTable but for statistics-only drift (row/page counts):
  /// cached plans stay correct, so the version is left untouched.
  Status UpdateTableStats(const TableInfo& info);

  // -- indexes ------------------------------------------------------------
  Result<ObjectId> CreateIndex(IndexInfo info);
  Status DropIndex(const std::string& name);
  Result<IndexInfo> GetIndex(const std::string& name) const;
  Result<IndexInfo> GetIndexById(ObjectId id) const;
  /// All (non-virtual) indexes on `table_id`.
  std::vector<IndexInfo> IndexesOnTable(ObjectId table_id) const;
  std::vector<IndexInfo> ListIndexes() const;
  Status UpdateIndex(const IndexInfo& info);

  // -- column statistics ----------------------------------------------------
  /// Attach/replace the histogram for (table, column ordinal).
  Status SetColumnStats(ObjectId table_id, int ordinal, ColumnStats stats);
  /// Stats for (table, ordinal); has_histogram=false placeholder when none.
  ColumnStats GetColumnStats(ObjectId table_id, int ordinal) const;
  Status ClearColumnStats(ObjectId table_id);

  // -- virtual tables -------------------------------------------------------
  Status RegisterVirtualTable(const std::string& name,
                              std::shared_ptr<VirtualTableProvider> provider);

  /// Monotonic schema/statistics version; bumped by every mutating call.
  /// Cached plans are valid only while the version is unchanged.
  int64_t version() const { return version_.load(std::memory_order_acquire); }
  /// nullptr when `name` is not a virtual table.
  std::shared_ptr<VirtualTableProvider> GetVirtualTable(
      const std::string& name) const;
  bool HasVirtualTable(const std::string& name) const;
  std::vector<std::string> ListVirtualTables() const;

 private:
  void BumpVersion() { version_.fetch_add(1, std::memory_order_release); }

  std::atomic<int64_t> version_{1};
  mutable std::shared_mutex mutex_;
  ObjectId next_id_ = 1;

  std::map<std::string, TableInfo> tables_;
  std::unordered_map<ObjectId, std::string> table_names_;
  std::map<std::string, IndexInfo> indexes_;
  std::unordered_map<ObjectId, std::string> index_names_;
  /// (table_id << 16 | ordinal) -> stats
  std::unordered_map<int64_t, ColumnStats> column_stats_;
  std::map<std::string, std::shared_ptr<VirtualTableProvider>> virtual_tables_;

  static int64_t StatsKey(ObjectId table_id, int ordinal) {
    return (table_id << 16) | ordinal;
  }
};

}  // namespace imon::catalog

#endif  // IMON_CATALOG_CATALOG_H_
