#include "exec/storage_layer.h"

#include <cstring>
#include <numeric>

#include "storage/key_codec.h"

namespace imon::exec {

using catalog::IndexInfo;
using catalog::StorageStructure;
using catalog::TableInfo;
using storage::BTree;
using storage::HeapFile;
using storage::Rid;

namespace {

Locator PackRid(Rid rid) {
  int64_t packed = rid.Pack();
  Locator out(8, '\0');
  std::memcpy(out.data(), &packed, 8);
  return out;
}

Rid UnpackRid(const Locator& loc) {
  int64_t packed = 0;
  std::memcpy(&packed, loc.data(), 8);
  return Rid::Unpack(packed);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         std::memcmp(s.data(), prefix.data(), prefix.size()) == 0;
}

}  // namespace

std::vector<int> StorageLayer::BtreeKeyColumns(const TableInfo& table) {
  if (!table.primary_key.empty()) return table.primary_key;
  std::vector<int> all;
  for (const auto& c : table.columns) all.push_back(c.ordinal);
  return all;
}

storage::IsamFile* StorageLayer::IsamFor(const TableInfo& table) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = isams_.find(table.file_id);
  if (it == isams_.end()) {
    it = isams_
             .emplace(table.file_id, std::make_unique<storage::IsamFile>(
                                         pool_, table.file_id))
             .first;
  }
  return it->second.get();
}

storage::HashFile* StorageLayer::HashFor(const TableInfo& table) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = hashes_.find(table.file_id);
  if (it == hashes_.end()) {
    it = hashes_
             .emplace(table.file_id,
                      std::make_unique<storage::HashFile>(
                          pool_, table.file_id, table.main_page_target))
             .first;
  }
  return it->second.get();
}

HeapFile* StorageLayer::HeapFor(const TableInfo& table) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = heaps_.find(table.file_id);
  if (it == heaps_.end()) {
    it = heaps_
             .emplace(table.file_id,
                      std::make_unique<HeapFile>(pool_, table.file_id,
                                                 table.main_page_target))
             .first;
  }
  return it->second.get();
}

BTree* StorageLayer::BtreeFor(storage::FileId file) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = btrees_.find(file);
  if (it == btrees_.end()) {
    it = btrees_.emplace(file, std::make_unique<BTree>(pool_, file)).first;
  }
  return it->second.get();
}

Status StorageLayer::CreateTableStorage(TableInfo* info) {
  info->file_id = disk_->CreateFile();
  if (info->structure == StorageStructure::kHeap) {
    IMON_RETURN_IF_ERROR(HeapFor(*info)->Initialize());
    info->main_pages = 1;
    info->overflow_pages = 0;
  } else if (info->structure == StorageStructure::kHash) {
    IMON_RETURN_IF_ERROR(HashFor(*info)->Initialize());
    info->main_pages = info->main_page_target;
    info->overflow_pages = 0;
  } else if (info->structure == StorageStructure::kIsam) {
    IMON_RETURN_IF_ERROR(IsamFor(*info)->Build({}));
    info->main_pages = 2;  // directory + one (empty) main page
    info->overflow_pages = 0;
  } else {
    IMON_RETURN_IF_ERROR(BtreeFor(info->file_id)->Create());
    info->main_pages = 2;  // meta + root
    info->overflow_pages = 0;
  }
  info->row_count = 0;
  return Status::OK();
}

Result<std::string> StorageLayer::PrimaryKeyOf(const TableInfo& table,
                                               const Row& row) const {
  std::vector<int> key_cols = BtreeKeyColumns(table);
  std::string out;
  for (int ord : key_cols) {
    IMON_ASSIGN_OR_RETURN(Value v,
                          row[ord].CastTo(table.columns[ord].type));
    storage::EncodeKeyValue(v, &out);
  }
  return out;
}

Result<std::string> StorageLayer::IndexKeyOf(const IndexInfo& idx,
                                             const TableInfo& table,
                                             const Row& row) const {
  std::string out;
  for (int ord : idx.key_columns) {
    IMON_ASSIGN_OR_RETURN(Value v,
                          row[ord].CastTo(table.columns[ord].type));
    storage::EncodeKeyValue(v, &out);
  }
  return out;
}

Status StorageLayer::CreateIndexStorage(IndexInfo* idx,
                                        const TableInfo& table) {
  idx->file_id = disk_->CreateFile();
  BTree* tree = BtreeFor(idx->file_id);
  IMON_RETURN_IF_ERROR(tree->Create());
  // Backfill from current rows.
  Status inner = Status::OK();
  IMON_RETURN_IF_ERROR(ScanPath(
      table, optimizer::AccessPath{}, [&](const Locator& loc, const Row& row) {
        auto key = IndexKeyOf(*idx, table, row);
        if (!key.ok()) {
          inner = key.status();
          return false;
        }
        if (idx->unique) {
          auto cursor = tree->SeekLowerBound(*key);
          if (!cursor.ok()) {
            inner = cursor.status();
            return false;
          }
          if (cursor->Valid() && cursor->user_key() == *key) {
            inner = Status::AlreadyExists("unique index '" + idx->name +
                                          "': duplicate key");
            return false;
          }
        }
        inner = tree->Insert(*key, loc);
        return inner.ok();
      }));
  IMON_RETURN_IF_ERROR(inner);
  idx->pages = disk_->NumPages(idx->file_id);
  return Status::OK();
}

Status StorageLayer::DropTableStorage(const TableInfo& info) {
  pool_->Purge(info.file_id);
  disk_->DeleteFile(info.file_id);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  heaps_.erase(info.file_id);
  hashes_.erase(info.file_id);
  isams_.erase(info.file_id);
  btrees_.erase(info.file_id);
  return Status::OK();
}

Status StorageLayer::DropIndexStorage(const IndexInfo& idx) {
  pool_->Purge(idx.file_id);
  disk_->DeleteFile(idx.file_id);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  btrees_.erase(idx.file_id);
  return Status::OK();
}

Result<Locator> StorageLayer::Insert(const TableInfo& table,
                                     const std::vector<IndexInfo>& indexes,
                                     const Row& row) {
  if (row.size() != table.columns.size()) {
    return Status::Internal("row width mismatch on insert");
  }
  // Validate every uniqueness constraint BEFORE mutating anything, so a
  // violation leaves no orphan base row or index entry behind.
  std::string primary_key;
  if (table.structure == StorageStructure::kIsam &&
      !table.primary_key.empty()) {
    IMON_ASSIGN_OR_RETURN(std::string key, PrimaryKeyOf(table, row));
    bool duplicate = false;
    IMON_RETURN_IF_ERROR(
        IsamFor(table)->ScanRange(key, key, [&](Rid, const Row& existing) {
          auto existing_key = PrimaryKeyOf(table, existing);
          if (existing_key.ok() && *existing_key == key) {
            duplicate = true;
            return false;
          }
          return true;
        }));
    if (duplicate) {
      return Status::AlreadyExists("duplicate primary key in table '" +
                                   table.name + "'");
    }
  }
  if (table.structure == StorageStructure::kHash &&
      !table.primary_key.empty()) {
    IMON_ASSIGN_OR_RETURN(std::string key, PrimaryKeyOf(table, row));
    bool duplicate = false;
    IMON_RETURN_IF_ERROR(
        HashFor(table)->LookupBucket(key, [&](Rid, const Row& existing) {
          auto existing_key = PrimaryKeyOf(table, existing);
          if (existing_key.ok() && *existing_key == key) {
            duplicate = true;
            return false;
          }
          return true;
        }));
    if (duplicate) {
      return Status::AlreadyExists("duplicate primary key in table '" +
                                   table.name + "'");
    }
  }
  if (table.structure == StorageStructure::kBtree) {
    IMON_ASSIGN_OR_RETURN(primary_key, PrimaryKeyOf(table, row));
    if (!table.primary_key.empty()) {
      BTree* tree = BtreeFor(table.file_id);
      IMON_ASSIGN_OR_RETURN(BTree::Cursor cursor,
                            tree->SeekLowerBound(primary_key));
      if (cursor.Valid() && cursor.user_key() == primary_key) {
        return Status::AlreadyExists("duplicate primary key in table '" +
                                     table.name + "'");
      }
    }
  }
  std::vector<std::string> index_keys(indexes.size());
  for (size_t i = 0; i < indexes.size(); ++i) {
    const IndexInfo& idx = indexes[i];
    if (idx.is_virtual) continue;
    IMON_ASSIGN_OR_RETURN(index_keys[i], IndexKeyOf(idx, table, row));
    if (idx.unique) {
      BTree* tree = BtreeFor(idx.file_id);
      IMON_ASSIGN_OR_RETURN(BTree::Cursor cursor,
                            tree->SeekLowerBound(index_keys[i]));
      if (cursor.Valid() && cursor.user_key() == index_keys[i]) {
        return Status::AlreadyExists("unique index '" + idx.name +
                                     "': duplicate key");
      }
    }
  }

  Locator loc;
  if (table.structure == StorageStructure::kHeap) {
    IMON_ASSIGN_OR_RETURN(Rid rid, HeapFor(table)->Insert(row));
    loc = PackRid(rid);
  } else if (table.structure == StorageStructure::kHash) {
    IMON_ASSIGN_OR_RETURN(std::string key, PrimaryKeyOf(table, row));
    IMON_ASSIGN_OR_RETURN(Rid rid, HashFor(table)->Insert(key, row));
    loc = PackRid(rid);
  } else if (table.structure == StorageStructure::kIsam) {
    IMON_ASSIGN_OR_RETURN(std::string key, PrimaryKeyOf(table, row));
    IMON_ASSIGN_OR_RETURN(Rid rid, IsamFor(table)->Insert(key, row));
    loc = PackRid(rid);
  } else {
    std::string payload;
    SerializeRow(row, &payload);
    IMON_RETURN_IF_ERROR(BtreeFor(table.file_id)->Insert(primary_key, payload));
    loc = primary_key;
  }
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (indexes[i].is_virtual) continue;
    IMON_RETURN_IF_ERROR(BtreeFor(indexes[i].file_id)->Insert(index_keys[i],
                                                              loc));
  }
  return loc;
}

Status StorageLayer::Delete(const TableInfo& table,
                            const std::vector<IndexInfo>& indexes,
                            const Locator& loc, const Row& old_row) {
  if (table.structure == StorageStructure::kHeap) {
    IMON_RETURN_IF_ERROR(HeapFor(table)->Delete(UnpackRid(loc)));
  } else if (table.structure == StorageStructure::kHash) {
    IMON_RETURN_IF_ERROR(HashFor(table)->Delete(UnpackRid(loc)));
  } else if (table.structure == StorageStructure::kIsam) {
    IMON_RETURN_IF_ERROR(IsamFor(table)->Delete(UnpackRid(loc)));
  } else {
    std::string payload;
    SerializeRow(old_row, &payload);
    IMON_RETURN_IF_ERROR(BtreeFor(table.file_id)->Delete(loc, payload));
  }
  for (const IndexInfo& idx : indexes) {
    if (idx.is_virtual) continue;
    IMON_ASSIGN_OR_RETURN(std::string key, IndexKeyOf(idx, table, old_row));
    IMON_RETURN_IF_ERROR(BtreeFor(idx.file_id)->Delete(key, loc));
  }
  return Status::OK();
}

Result<Locator> StorageLayer::Update(const TableInfo& table,
                                     const std::vector<IndexInfo>& indexes,
                                     const Locator& loc, const Row& old_row,
                                     const Row& new_row) {
  // Implemented as delete + insert; simple and index-consistent. A failed
  // insert puts the old row back, so either both steps happen or neither.
  IMON_RETURN_IF_ERROR(Delete(table, indexes, loc, old_row));
  auto new_loc = Insert(table, indexes, new_row);
  if (!new_loc.ok()) Insert(table, indexes, old_row).ok();
  return new_loc;
}

Result<Row> StorageLayer::Fetch(const TableInfo& table, const Locator& loc) {
  if (table.structure == StorageStructure::kHeap) {
    return HeapFor(table)->Get(UnpackRid(loc));
  }
  if (table.structure == StorageStructure::kHash) {
    return HashFor(table)->Get(UnpackRid(loc));
  }
  if (table.structure == StorageStructure::kIsam) {
    return IsamFor(table)->Get(UnpackRid(loc));
  }
  BTree* tree = BtreeFor(table.file_id);
  IMON_ASSIGN_OR_RETURN(BTree::Cursor cursor, tree->SeekLowerBound(loc));
  if (!cursor.Valid() || cursor.user_key() != loc) {
    return Status::NotFound("no row at locator in table '" + table.name +
                            "'");
  }
  return DeserializeRow(cursor.payload());
}

Result<StorageLayer::EncodedRange> StorageLayer::EncodeRange(
    const std::vector<TypeId>& key_types, const std::vector<Value>& eq,
    const std::optional<optimizer::KeyBound>& lower,
    const std::optional<optimizer::KeyBound>& upper) {
  EncodedRange out;
  for (size_t i = 0; i < eq.size(); ++i) {
    IMON_ASSIGN_OR_RETURN(Value v, eq[i].CastTo(key_types[i]));
    storage::EncodeKeyValue(v, &out.eq_prefix);
  }
  out.lower = out.eq_prefix;
  if (lower.has_value()) {
    IMON_ASSIGN_OR_RETURN(Value v,
                          lower->value.CastTo(key_types[eq.size()]));
    std::string enc;
    storage::EncodeKeyValue(v, &enc);
    out.lower += enc;
    if (!lower->inclusive) {
      // Exclusive lower: skip entries whose next field equals v; encode
      // by remembering the prefix to skip. Reuse upper mechanism: the
      // caller-side loop skips StartsWith(lower) when flagged.
      out.lower_exclusive_prefix = out.lower;
    }
  }
  if (upper.has_value()) {
    IMON_ASSIGN_OR_RETURN(Value v,
                          upper->value.CastTo(key_types[eq.size()]));
    out.upper_limit = out.eq_prefix;
    storage::EncodeKeyValue(v, &out.upper_limit);
    out.upper_open = !upper->inclusive;
    out.has_upper = true;
  }
  return out;
}

Status StorageLayer::EncodeIsamBounds(
    const TableInfo& table, const std::vector<Value>& eq_prefix,
    const std::optional<optimizer::KeyBound>& lower,
    const std::optional<optimizer::KeyBound>& upper, std::string* low,
    std::string* high) const {
  std::vector<int> key_cols = BtreeKeyColumns(table);
  std::string prefix;
  for (size_t i = 0; i < eq_prefix.size() && i < key_cols.size(); ++i) {
    IMON_ASSIGN_OR_RETURN(
        Value v, eq_prefix[i].CastTo(table.columns[key_cols[i]].type));
    storage::EncodeKeyValue(v, &prefix);
  }
  *low = prefix;
  if (lower.has_value() && eq_prefix.size() < key_cols.size()) {
    IMON_ASSIGN_OR_RETURN(
        Value v,
        lower->value.CastTo(table.columns[key_cols[eq_prefix.size()]].type));
    storage::EncodeKeyValue(v, low);
  }
  high->clear();
  if (upper.has_value() && eq_prefix.size() < key_cols.size()) {
    *high = prefix;
    IMON_ASSIGN_OR_RETURN(
        Value v,
        upper->value.CastTo(table.columns[key_cols[eq_prefix.size()]].type));
    storage::EncodeKeyValue(v, high);
  } else if (!prefix.empty()) {
    // Prefix-successor: everything sharing the prefix sorts below
    // prefix + 0xFF... (field tags stay below 0xFF).
    *high = prefix + std::string(4, '\xff');
  }
  return Status::OK();
}

namespace {

/// Verdict of the per-entry range predicate on leaf units.
enum class RangeCheck {
  kYield,  ///< entry is in range
  kSkip,   ///< entry is outside but later ones may match
  kStop,   ///< entry and everything after it are outside
};

/// Range predicate over user keys. Only the chain's first leaf holds
/// entries below range.lower (key encodings are prefix-free, making the
/// user-key comparison equivalent to the full-key lower bound); ScanUnits
/// seeks past them and LeafChain's look at that leaf's last entry skips
/// them. The kStop conditions are monotone in key order, so stopping
/// inside any unit stops at the same entry one pass over every unit
/// would.
RangeCheck CheckRange(const StorageLayer::EncodedRange& range,
                      std::string_view key) {
  if (key.compare(range.lower) < 0) return RangeCheck::kSkip;
  if (!StartsWith(key, range.eq_prefix)) return RangeCheck::kStop;
  if (range.has_upper) {
    int cmp = key.compare(range.upper_limit);
    bool is_prefix = StartsWith(key, range.upper_limit);
    if (range.upper_open) {
      if (cmp >= 0) return RangeCheck::kStop;
    } else {
      if (cmp > 0 && !is_prefix) return RangeCheck::kStop;
    }
  }
  if (!range.lower_exclusive_prefix.empty() &&
      StartsWith(key, range.lower_exclusive_prefix)) {
    return RangeCheck::kSkip;
  }
  return RangeCheck::kYield;
}

/// LeafChain keep-going predicate: the chain ends exactly where a scan
/// of its leaves would stop.
std::function<bool(std::string_view)> KeepGoing(
    const StorageLayer::EncodedRange& range) {
  return [&range](std::string_view key) {
    return CheckRange(range, key) != RangeCheck::kStop;
  };
}

std::vector<TypeId> KeyTypes(const TableInfo& table,
                             const std::vector<int>& key_cols) {
  std::vector<TypeId> types;
  types.reserve(key_cols.size());
  for (int ord : key_cols) types.push_back(table.columns[ord].type);
  return types;
}

/// Key types of the primary structure: the PK's, or every column's.
std::vector<TypeId> PrimaryKeyTypes(const TableInfo& table) {
  if (!table.primary_key.empty()) return KeyTypes(table, table.primary_key);
  std::vector<TypeId> types;
  for (const auto& c : table.columns) types.push_back(c.type);
  return types;
}

}  // namespace

Result<StorageLayer::ScanPlan> StorageLayer::BuildScan(
    const TableInfo& table, const optimizer::AccessPath& access) {
  ScanPlan plan;
  switch (access.kind) {
    case optimizer::AccessPathKind::kSeqScan:
      switch (table.structure) {
        case StorageStructure::kHeap:
          plan.kind = ScanPlan::Kind::kHeapPages;
          IMON_RETURN_IF_ERROR(HeapFor(table)->PageChain(&plan.units));
          break;
        case StorageStructure::kHash:
          plan.kind = ScanPlan::Kind::kHashBuckets;
          plan.units.resize(HashFor(table)->buckets());
          std::iota(plan.units.begin(), plan.units.end(), 0u);
          break;
        case StorageStructure::kIsam:
          plan.kind = ScanPlan::Kind::kIsamChains;
          IMON_RETURN_IF_ERROR(IsamFor(table)->RoutedChainHeads(
              std::string(), std::string(), &plan.units));
          break;
        case StorageStructure::kBtree:
          plan.kind = ScanPlan::Kind::kBtreeLeaves;
          plan.tree = BtreeFor(table.file_id);
          // Default (all-pass) range; every leaf stays in the chain.
          IMON_RETURN_IF_ERROR(plan.tree->LeafChain(
              std::string(), [](std::string_view) { return true; },
              &plan.units));
          break;
      }
      break;
    case optimizer::AccessPathKind::kPrimaryBtree: {
      if (table.structure != StorageStructure::kBtree) {
        return Status::Internal("primary range scan on non-BTREE table");
      }
      plan.kind = ScanPlan::Kind::kBtreeLeaves;
      plan.tree = BtreeFor(table.file_id);
      IMON_ASSIGN_OR_RETURN(plan.range,
                            EncodeRange(PrimaryKeyTypes(table),
                                        access.eq_values, access.lower,
                                        access.upper));
      IMON_RETURN_IF_ERROR(plan.tree->LeafChain(
          plan.range.lower, KeepGoing(plan.range), &plan.units));
      break;
    }
    case optimizer::AccessPathKind::kPrimaryHash: {
      if (table.structure != StorageStructure::kHash) {
        return Status::Internal("hash lookup on non-HASH table");
      }
      // Collisions share the bucket; callers re-apply the equality
      // filters.
      std::vector<TypeId> types = PrimaryKeyTypes(table);
      if (access.eq_values.size() != types.size()) {
        return Status::Internal("hash lookup requires the full key");
      }
      plan.kind = ScanPlan::Kind::kHashBuckets;
      IMON_ASSIGN_OR_RETURN(EncodedRange key,
                            EncodeRange(types, access.eq_values, std::nullopt,
                                        std::nullopt));
      plan.units.push_back(HashFor(table)->BucketOf(key.eq_prefix));
      break;
    }
    case optimizer::AccessPathKind::kPrimaryIsam: {
      if (table.structure != StorageStructure::kIsam) {
        return Status::Internal("ISAM range scan on non-ISAM table");
      }
      plan.kind = ScanPlan::Kind::kIsamChains;
      std::string low, high;
      IMON_RETURN_IF_ERROR(EncodeIsamBounds(table, access.eq_values,
                                            access.lower, access.upper, &low,
                                            &high));
      IMON_RETURN_IF_ERROR(
          IsamFor(table)->RoutedChainHeads(low, high, &plan.units));
      break;
    }
    case optimizer::AccessPathKind::kSecondaryIndex: {
      if (access.index.is_virtual) {
        return Status::Internal("virtual index has no storage to scan");
      }
      plan.kind = ScanPlan::Kind::kIndexLeaves;
      plan.tree = BtreeFor(access.index.file_id);
      IMON_ASSIGN_OR_RETURN(
          plan.range, EncodeRange(KeyTypes(table, access.index.key_columns),
                                  access.eq_values, access.lower,
                                  access.upper));
      IMON_RETURN_IF_ERROR(plan.tree->LeafChain(
          plan.range.lower, KeepGoing(plan.range), &plan.units));
      break;
    }
  }
  return plan;
}

Status StorageLayer::ScanUnits(
    const TableInfo& table, const ScanPlan& plan, size_t begin, size_t end,
    const std::function<bool(const Locator&, Row&)>& fn) {
  end = std::min(end, plan.units.size());
  if (begin >= end) return Status::OK();
  auto by_rid = [&](Rid rid, Row& row) { return fn(PackRid(rid), row); };
  switch (plan.kind) {
    case ScanPlan::Kind::kHeapPages:
      return HeapFor(table)->ScanPages(plan.units.data() + begin,
                                       end - begin, by_rid);
    case ScanPlan::Kind::kHashBuckets:
      // Bucket units are a contiguous ascending range by construction.
      return HashFor(table)->ScanBuckets(plan.units[begin],
                                         plan.units[end - 1] + 1, by_rid);
    case ScanPlan::Kind::kIsamChains:
      return IsamFor(table)->ScanChainPages(plan.units, begin, end, by_rid);
    case ScanPlan::Kind::kBtreeLeaves:
    case ScanPlan::Kind::kIndexLeaves: {
      const bool index = plan.kind == ScanPlan::Kind::kIndexLeaves;
      Status inner = Status::OK();
      Row row;
      Locator loc;
      // Only the chain's first leaf holds entries below the range: enter
      // it at the lower bound, as a B-Tree seek would.
      const std::string no_seek;
      IMON_RETURN_IF_ERROR(plan.tree->ScanLeafPages(
          plan.units, begin, end, begin == 0 ? plan.range.lower : no_seek,
          [&](std::string_view key, std::string_view payload) {
            switch (CheckRange(plan.range, key)) {
              case RangeCheck::kSkip:
                return true;
              case RangeCheck::kStop:
                return false;
              case RangeCheck::kYield:
                break;
            }
            if (index) {
              loc.assign(payload.data(), payload.size());
              auto fetched = Fetch(table, loc);
              if (!fetched.ok()) {
                inner = fetched.status();
                return false;
              }
              row = std::move(*fetched);
            } else {
              Status st = DeserializeRowInto(payload, &row);
              if (!st.ok()) {
                inner = st;
                return false;
              }
              loc.assign(key.data(), key.size());
            }
            return fn(loc, row);
          }));
      return inner;
    }
  }
  return Status::Internal("unknown scan kind");
}

Status StorageLayer::ScanPath(
    const TableInfo& table, const optimizer::AccessPath& access,
    const std::function<bool(const Locator&, Row&)>& fn) {
  IMON_ASSIGN_OR_RETURN(ScanPlan plan, BuildScan(table, access));
  return ScanUnits(table, plan, 0, plan.units.size(), fn);
}

Status StorageLayer::ModifyStructure(TableInfo* info,
                                     std::vector<IndexInfo>* indexes,
                                     StorageStructure target) {
  // Materialize all rows.
  std::vector<Row> rows;
  IMON_RETURN_IF_ERROR(ScanPath(*info, optimizer::AccessPath{},
                                [&](const Locator&, const Row& row) {
                                  rows.push_back(row);
                                  return true;
                                }));

  // Tear down old storage (base + indexes).
  IMON_RETURN_IF_ERROR(DropTableStorage(*info));
  for (IndexInfo& idx : *indexes) {
    if (!idx.is_virtual) IMON_RETURN_IF_ERROR(DropIndexStorage(idx));
  }

  info->structure = target;
  if (target == StorageStructure::kIsam) {
    // ISAM is built statically from the sorted rows (the whole point of
    // the structure): sort on the key, lay out main pages, write the
    // fence directory. Later inserts go to overflow chains.
    info->file_id = disk_->CreateFile();
    std::vector<std::pair<std::string, Row>> keyed;
    keyed.reserve(rows.size());
    for (const Row& row : rows) {
      IMON_ASSIGN_OR_RETURN(std::string key, PrimaryKeyOf(*info, row));
      keyed.emplace_back(std::move(key), row);
    }
    IMON_RETURN_IF_ERROR(IsamFor(*info)->Build(std::move(keyed)));
    info->row_count = static_cast<int64_t>(rows.size());
  } else {
    IMON_RETURN_IF_ERROR(CreateTableStorage(info));
    for (const Row& row : rows) {
      IMON_ASSIGN_OR_RETURN(Locator loc, Insert(*info, {}, row));
      (void)loc;
    }
  }
  for (IndexInfo& idx : *indexes) {
    if (idx.is_virtual) continue;
    IMON_RETURN_IF_ERROR(CreateIndexStorage(&idx, *info));
  }
  IMON_RETURN_IF_ERROR(RefreshTableStats(info));
  return Status::OK();
}

Status StorageLayer::RefreshTableStats(TableInfo* info) {
  if (info->structure == StorageStructure::kHeap) {
    IMON_ASSIGN_OR_RETURN(storage::HeapFileStats stats,
                          HeapFor(*info)->ComputeStats());
    info->main_pages = stats.main_pages;
    info->overflow_pages = stats.overflow_pages;
    info->row_count = stats.live_rows;
  } else if (info->structure == StorageStructure::kHash) {
    IMON_ASSIGN_OR_RETURN(storage::HeapFileStats stats,
                          HashFor(*info)->ComputeStats());
    info->main_pages = stats.main_pages;
    info->overflow_pages = stats.overflow_pages;
    info->row_count = stats.live_rows;
  } else if (info->structure == StorageStructure::kIsam) {
    IMON_ASSIGN_OR_RETURN(storage::HeapFileStats stats,
                          IsamFor(*info)->ComputeStats());
    info->main_pages = stats.main_pages;
    info->overflow_pages = stats.overflow_pages;
    info->row_count = stats.live_rows;
  } else {
    IMON_ASSIGN_OR_RETURN(storage::BTreeStats stats,
                          BtreeFor(info->file_id)->ComputeStats());
    info->main_pages = stats.num_pages;
    info->overflow_pages = 0;
    info->row_count = stats.entries;
  }
  return Status::OK();
}

Result<int64_t> StorageLayer::IndexPages(const IndexInfo& idx) const {
  return static_cast<int64_t>(disk_->NumPages(idx.file_id));
}

}  // namespace imon::exec
