// Row-level storage operations across the four Ingres storage
// structures (HEAP, BTREE, HASH, ISAM), with secondary-index maintenance
// and structure conversion (MODIFY).
//
// Reads have one API: every access path — full sweep, primary range,
// hash probe, ISAM range, secondary-index range — becomes a unit list
// (BuildScan) that ScanUnits reads a slice of, and ScanPath reads whole.
// The executor splits unit lists into morsels; a one-lane pool, or none,
// runs those morsels inline.
//
// Locators abstract over structures: a packed RID string for heap tables,
// the encoded primary key for BTREE tables. Secondary index payloads
// store the locator — the analog of Ingres' tidp column.

#ifndef IMON_EXEC_STORAGE_LAYER_H_
#define IMON_EXEC_STORAGE_LAYER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/plan.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/hash_file.h"
#include "storage/heap_file.h"
#include "storage/isam_file.h"

namespace imon::exec {

/// Opaque row address; valid until the row is moved or the table is
/// restructured.
using Locator = std::string;

class StorageLayer {
 public:
  StorageLayer(storage::DiskManager* disk, storage::BufferPool* pool)
      : disk_(disk), pool_(pool) {}

  // -- DDL ------------------------------------------------------------------
  /// Allocate storage for a new table; sets info->file_id.
  Status CreateTableStorage(catalog::TableInfo* info);

  /// Allocate + backfill a secondary index from existing rows; sets
  /// idx->file_id and idx->pages.
  Status CreateIndexStorage(catalog::IndexInfo* idx,
                            const catalog::TableInfo& table);

  Status DropTableStorage(const catalog::TableInfo& info);
  Status DropIndexStorage(const catalog::IndexInfo& idx);

  /// Convert the table's storage structure, rebuilding rows and all
  /// secondary indexes. Mutates *info (structure, file, page counts) and
  /// the IndexInfos in *indexes (files, pages).
  Status ModifyStructure(catalog::TableInfo* info,
                         std::vector<catalog::IndexInfo>* indexes,
                         catalog::StorageStructure target);

  // -- DML ------------------------------------------------------------------
  Result<Locator> Insert(const catalog::TableInfo& table,
                         const std::vector<catalog::IndexInfo>& indexes,
                         const Row& row);
  Status Delete(const catalog::TableInfo& table,
                const std::vector<catalog::IndexInfo>& indexes,
                const Locator& loc, const Row& old_row);
  Result<Locator> Update(const catalog::TableInfo& table,
                         const std::vector<catalog::IndexInfo>& indexes,
                         const Locator& loc, const Row& old_row,
                         const Row& new_row);

  // -- reads ------------------------------------------------------------------
  Result<Row> Fetch(const catalog::TableInfo& table, const Locator& loc);

  // -- statistics -------------------------------------------------------------
  /// Recompute row/page counts into *info (and index pages into catalog
  /// objects passed by the caller later).
  Status RefreshTableStats(catalog::TableInfo* info);
  Result<int64_t> IndexPages(const catalog::IndexInfo& idx) const;

  /// Encoded primary key of `row` for `table` (cast to column types).
  Result<std::string> PrimaryKeyOf(const catalog::TableInfo& table,
                                   const Row& row) const;

  /// Encoded bounds for an eq-prefix + range probe over a B-Tree.
  struct EncodedRange {
    std::string lower;        ///< seek target
    std::string upper_limit;  ///< stop boundary (see upper_open)
    bool upper_open = false;  ///< true: stop when key reaches upper_limit
    bool has_upper = false;
    std::string eq_prefix;    ///< every yielded key must keep this prefix
    /// Non-empty for an exclusive lower bound: keys with this prefix are
    /// skipped (they equal the bound value).
    std::string lower_exclusive_prefix;
  };

  // -- scans ----------------------------------------------------------------
  /// Structure-specific unit list for one access path: the only way to
  /// read a real table. Units are pages (heap chain, B-Tree leaves, index
  /// leaves), routed chain-head pages (ISAM) or bucket numbers (HASH; a
  /// full-key probe is the one bucket the key hashes to). The list and
  /// its order are a pure function of the structure and the access path
  /// — never of the worker count — so any split of it into morsels,
  /// visited in order, yields the same rows in the same order with the
  /// same early-stop set as one pass over every unit.
  struct ScanPlan {
    enum class Kind {  // in exec::ExecMetrics::parallel_scans order
      kHeapPages,    ///< units: heap chain pages
      kBtreeLeaves,  ///< units: primary B-Tree leaf pages
      kHashBuckets,  ///< units: ascending contiguous bucket numbers
      kIsamChains,   ///< units: routed chain-head pages
      kIndexLeaves,  ///< units: secondary-index leaf pages
    };
    Kind kind = Kind::kHeapPages;
    std::vector<uint32_t> units;
    /// Per-entry range predicate for kBtreeLeaves / kIndexLeaves; the
    /// chain's first leaf is entered at `range.lower`.
    EncodedRange range;
    /// kBtreeLeaves / kIndexLeaves: the tree the leaf units belong to.
    storage::BTree* tree = nullptr;
  };

  /// Build the unit list for `access` over `table`. Virtual indexes have
  /// no storage and are rejected.
  Result<ScanPlan> BuildScan(const catalog::TableInfo& table,
                             const optimizer::AccessPath& access);

  /// Scan rows of units `plan.units[begin..end)` in unit order; callback
  /// returns false to stop. Rows are decoded into buffers reused across
  /// calls: callbacks may move from the row (the batch gather path does),
  /// but must not hold a reference past their return. For kIndexLeaves
  /// the callback receives fetched base rows keyed by their locator. Safe
  /// to call concurrently over a frozen structure with disjoint or
  /// overlapping unit ranges; not safe against concurrent writers.
  Status ScanUnits(const catalog::TableInfo& table, const ScanPlan& plan,
                   size_t begin, size_t end,
                   const std::function<bool(const Locator&, Row&)>& fn);

  /// BuildScan + ScanUnits over every unit in order, for callers that
  /// read a whole path on one thread (DML targets, index-NL probes,
  /// ANALYZE, index backfill, MODIFY).
  Status ScanPath(const catalog::TableInfo& table,
                  const optimizer::AccessPath& access,
                  const std::function<bool(const Locator&, Row&)>& fn);

  storage::BufferPool* pool() const { return pool_; }
  storage::DiskManager* disk() const { return disk_; }

 private:
  /// Key-column ordinals used by the BTREE structure (PK, or all columns).
  static std::vector<int> BtreeKeyColumns(const catalog::TableInfo& table);

  /// Encoded index key of `row` under `idx`.
  Result<std::string> IndexKeyOf(const catalog::IndexInfo& idx,
                                 const catalog::TableInfo& table,
                                 const Row& row) const;

  static Result<EncodedRange> EncodeRange(
      const std::vector<TypeId>& key_types, const std::vector<Value>& eq,
      const std::optional<optimizer::KeyBound>& lower,
      const std::optional<optimizer::KeyBound>& upper);

  /// Encoded [low, high] routing bounds for an ISAM eq-prefix + range
  /// probe.
  Status EncodeIsamBounds(const catalog::TableInfo& table,
                          const std::vector<Value>& eq_prefix,
                          const std::optional<optimizer::KeyBound>& lower,
                          const std::optional<optimizer::KeyBound>& upper,
                          std::string* low, std::string* high) const;

  storage::HeapFile* HeapFor(const catalog::TableInfo& table);
  storage::HashFile* HashFor(const catalog::TableInfo& table);
  storage::IsamFile* IsamFor(const catalog::TableInfo& table);
  storage::BTree* BtreeFor(storage::FileId file);

  storage::DiskManager* disk_;
  storage::BufferPool* pool_;

  std::mutex cache_mutex_;
  std::unordered_map<storage::FileId, std::unique_ptr<storage::HeapFile>>
      heaps_;
  std::unordered_map<storage::FileId, std::unique_ptr<storage::HashFile>>
      hashes_;
  std::unordered_map<storage::FileId, std::unique_ptr<storage::IsamFile>>
      isams_;
  std::unordered_map<storage::FileId, std::unique_ptr<storage::BTree>>
      btrees_;
};

}  // namespace imon::exec

#endif  // IMON_EXEC_STORAGE_LAYER_H_
