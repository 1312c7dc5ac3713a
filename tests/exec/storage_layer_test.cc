#include "exec/storage_layer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "storage/key_codec.h"

namespace imon::exec {
namespace {

using catalog::ColumnInfo;
using catalog::IndexInfo;
using catalog::StorageStructure;
using catalog::TableInfo;
using optimizer::AccessPath;
using optimizer::AccessPathKind;
using optimizer::KeyBound;

AccessPath SeqPath() { return AccessPath{}; }

AccessPath IndexPath(const IndexInfo& idx, std::vector<Value> eq,
                     std::optional<KeyBound> lower = std::nullopt,
                     std::optional<KeyBound> upper = std::nullopt) {
  AccessPath path;
  path.kind = AccessPathKind::kSecondaryIndex;
  path.index = idx;
  path.eq_values = std::move(eq);
  path.lower = std::move(lower);
  path.upper = std::move(upper);
  return path;
}

class StorageLayerTest : public ::testing::Test {
 protected:
  StorageLayerTest() : disk_(), pool_(&disk_, 512), layer_(&disk_, &pool_) {}

  TableInfo MakeTable(StorageStructure structure, bool with_pk = true) {
    TableInfo info;
    info.id = next_id_++;
    info.name = "t" + std::to_string(info.id);
    ColumnInfo id;
    id.name = "id";
    id.type = TypeId::kInt;
    id.ordinal = 0;
    ColumnInfo text;
    text.name = "txt";
    text.type = TypeId::kText;
    text.ordinal = 1;
    info.columns = {id, text};
    info.structure = structure;
    info.main_page_target = 2;
    if (with_pk) info.primary_key = {0};
    EXPECT_TRUE(layer_.CreateTableStorage(&info).ok());
    return info;
  }

  Row MakeRow(int64_t id, const std::string& text) {
    return {Value::Int(id), Value::Text(text)};
  }

  /// Rows `access` yields through ScanPath, in order.
  std::vector<Row> Rows(const TableInfo& t, const AccessPath& access) {
    std::vector<Row> out;
    Status st = layer_.ScanPath(t, access, [&](const Locator&, Row& row) {
      out.push_back(row);
      return true;
    });
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  /// Number of rows `access` yields.
  int64_t Count(const TableInfo& t, const AccessPath& access) {
    return static_cast<int64_t>(Rows(t, access).size());
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  StorageLayer layer_;
  int64_t next_id_ = 1;
};

TEST_F(StorageLayerTest, HeapInsertFetchDelete) {
  TableInfo t = MakeTable(StorageStructure::kHeap);
  auto loc = layer_.Insert(t, {}, MakeRow(1, "one"));
  ASSERT_TRUE(loc.ok());
  auto row = layer_.Fetch(t, *loc);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsText(), "one");
  ASSERT_TRUE(layer_.Delete(t, {}, *loc, *row).ok());
  EXPECT_TRUE(layer_.Fetch(t, *loc).status().IsNotFound());
}

TEST_F(StorageLayerTest, BtreeInsertKeepsPrimaryOrder) {
  TableInfo t = MakeTable(StorageStructure::kBtree);
  for (int64_t id : {5, 1, 9, 3}) {
    ASSERT_TRUE(layer_.Insert(t, {}, MakeRow(id, "r")).ok());
  }
  std::vector<int64_t> order;
  for (const Row& row : Rows(t, SeqPath())) order.push_back(row[0].AsInt());
  EXPECT_EQ(order, (std::vector<int64_t>{1, 3, 5, 9}));
}

TEST_F(StorageLayerTest, BtreePrimaryKeyDuplicateRejectedAtomically) {
  TableInfo t = MakeTable(StorageStructure::kBtree);
  IndexInfo idx;
  idx.id = 100;
  idx.name = "t_txt";
  idx.table_id = t.id;
  idx.key_columns = {1};
  ASSERT_TRUE(layer_.CreateIndexStorage(&idx, t).ok());
  std::vector<IndexInfo> indexes = {idx};

  ASSERT_TRUE(layer_.Insert(t, indexes, MakeRow(1, "a")).ok());
  auto dup = layer_.Insert(t, indexes, MakeRow(1, "b"));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // Nothing half-inserted: base row count and index agree.
  EXPECT_EQ(Count(t, SeqPath()), 1);
  EXPECT_EQ(Count(t, IndexPath(idx, {})), 1);
}

TEST_F(StorageLayerTest, UniqueSecondaryIndexEnforced) {
  TableInfo t = MakeTable(StorageStructure::kHeap, /*with_pk=*/false);
  IndexInfo idx;
  idx.id = 101;
  idx.name = "uniq_txt";
  idx.table_id = t.id;
  idx.key_columns = {1};
  idx.unique = true;
  ASSERT_TRUE(layer_.CreateIndexStorage(&idx, t).ok());
  std::vector<IndexInfo> indexes = {idx};
  ASSERT_TRUE(layer_.Insert(t, indexes, MakeRow(1, "same")).ok());
  EXPECT_EQ(layer_.Insert(t, indexes, MakeRow(2, "same")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(StorageLayerTest, IndexScanRangeAndEquality) {
  TableInfo t = MakeTable(StorageStructure::kHeap);
  IndexInfo idx;
  idx.id = 102;
  idx.name = "by_id";
  idx.table_id = t.id;
  idx.key_columns = {0};
  std::vector<IndexInfo> indexes;
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(layer_.Insert(t, indexes, MakeRow(i, "r")).ok());
  }
  ASSERT_TRUE(layer_.CreateIndexStorage(&idx, t).ok());  // backfill path

  auto count_range = [&](std::optional<KeyBound> lo,
                         std::optional<KeyBound> hi) {
    return Count(t, IndexPath(idx, {}, lo, hi));
  };
  EXPECT_EQ(count_range(KeyBound{Value::Int(10), true},
                        KeyBound{Value::Int(19), true}),
            10);
  EXPECT_EQ(count_range(KeyBound{Value::Int(10), false},
                        KeyBound{Value::Int(19), false}),
            8);
  EXPECT_EQ(count_range(KeyBound{Value::Int(95), true},
                        std::nullopt),
            5);
  EXPECT_EQ(count_range(std::nullopt,
                        KeyBound{Value::Int(4), true}),
            5);

  // Equality prefix.
  std::vector<Row> exact = Rows(t, IndexPath(idx, {Value::Int(42)}));
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0][0].AsInt(), 42);
}

TEST_F(StorageLayerTest, UpdateMaintainsIndexes) {
  TableInfo t = MakeTable(StorageStructure::kHeap);
  IndexInfo idx;
  idx.id = 103;
  idx.name = "by_txt";
  idx.table_id = t.id;
  idx.key_columns = {1};
  ASSERT_TRUE(layer_.CreateIndexStorage(&idx, t).ok());
  std::vector<IndexInfo> indexes = {idx};

  auto loc = layer_.Insert(t, indexes, MakeRow(1, "old"));
  ASSERT_TRUE(loc.ok());
  auto new_loc =
      layer_.Update(t, indexes, *loc, MakeRow(1, "old"), MakeRow(1, "new"));
  ASSERT_TRUE(new_loc.ok());

  auto find = [&](const std::string& key) {
    return Count(t, IndexPath(idx, {Value::Text(key)}));
  };
  EXPECT_EQ(find("old"), 0);
  EXPECT_EQ(find("new"), 1);
}

TEST_F(StorageLayerTest, ModifyHeapToBtreeAndBack) {
  TableInfo t = MakeTable(StorageStructure::kHeap);
  IndexInfo idx;
  idx.id = 104;
  idx.name = "by_txt2";
  idx.table_id = t.id;
  idx.key_columns = {1};
  ASSERT_TRUE(layer_.CreateIndexStorage(&idx, t).ok());
  std::vector<IndexInfo> indexes = {idx};
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        layer_.Insert(t, indexes, MakeRow(i, "x" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(layer_.RefreshTableStats(&t).ok());
  EXPECT_GT(t.overflow_pages, 0);

  ASSERT_TRUE(layer_.ModifyStructure(&t, &indexes, StorageStructure::kBtree).ok());
  EXPECT_EQ(t.structure, StorageStructure::kBtree);
  EXPECT_EQ(t.overflow_pages, 0);
  EXPECT_EQ(t.row_count, 500);
  // Secondary index rebuilt and queryable with btree locators (the
  // rebuilt IndexInfo in `indexes` carries the new file id).
  std::vector<Row> hit = Rows(t, IndexPath(indexes[0], {Value::Text("x42")}));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0][0].AsInt(), 42);

  // And back to heap.
  ASSERT_TRUE(layer_.ModifyStructure(&t, &indexes, StorageStructure::kHeap).ok());
  EXPECT_EQ(t.structure, StorageStructure::kHeap);
  EXPECT_EQ(t.row_count, 500);
}

TEST_F(StorageLayerTest, ScanPrimaryRange) {
  TableInfo t = MakeTable(StorageStructure::kBtree);
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(layer_.Insert(t, {}, MakeRow(i, "r")).ok());
  }
  AccessPath range;
  range.kind = AccessPathKind::kPrimaryBtree;
  range.lower = KeyBound{Value::Int(10), true};
  range.upper = KeyBound{Value::Int(14), true};
  std::vector<int64_t> seen;
  for (const Row& row : Rows(t, range)) seen.push_back(row[0].AsInt());
  EXPECT_EQ(seen, (std::vector<int64_t>{10, 11, 12, 13, 14}));
}

TEST_F(StorageLayerTest, PagesAccounting) {
  TableInfo t = MakeTable(StorageStructure::kHeap);
  IndexInfo idx;
  idx.id = 105;
  idx.name = "acct";
  idx.table_id = t.id;
  idx.key_columns = {0};
  ASSERT_TRUE(layer_.CreateIndexStorage(&idx, t).ok());
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(layer_.Insert(t, {idx}, MakeRow(i, "pad")).ok());
  }
  auto pages = layer_.IndexPages(idx);
  ASSERT_TRUE(pages.ok());
  EXPECT_GT(*pages, 1);
}

// ---------------------------------------------------------------------------
// Reference: for every structure and access path, ScanPath yields the
// (locator, row) sequence of the file-level scan it stands for, and so
// does ScanUnits concatenated over any split of the unit list.
// ---------------------------------------------------------------------------

/// (locator, serialized row) in scan order.
using Entries = std::vector<std::pair<Locator, std::string>>;

std::string Serialized(const Row& row) {
  std::string out;
  SerializeRow(row, &out);
  return out;
}

Locator RidLocator(storage::Rid rid) {
  int64_t packed = rid.Pack();
  Locator out(8, '\0');
  std::memcpy(out.data(), &packed, 8);
  return out;
}

std::string Encoded(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) storage::EncodeKeyValue(v, &out);
  return out;
}

AccessPath Path(AccessPathKind kind, std::vector<Value> eq,
                std::optional<KeyBound> lower = std::nullopt,
                std::optional<KeyBound> upper = std::nullopt) {
  AccessPath path;
  path.kind = kind;
  path.eq_values = std::move(eq);
  path.lower = std::move(lower);
  path.upper = std::move(upper);
  return path;
}

KeyBound Incl(int64_t v) { return KeyBound{Value::Int(v), true}; }
KeyBound Excl(int64_t v) { return KeyBound{Value::Int(v), false}; }

class ScanReferenceTest : public StorageLayerTest {
 protected:
  static constexpr int64_t kRows = 600;
  static constexpr int64_t kLateRows = 30;

  /// Table (a, b, c, pad) with primary key (a, b) and a secondary index
  /// on c (many duplicates), filled in scrambled key order and converted
  /// to `structure`; rows inserted after the conversion land in ISAM and
  /// HASH overflow chains.
  void Build(StorageStructure structure) {
    table_ = TableInfo();
    table_.id = next_id_++;
    table_.name = "wide" + std::to_string(table_.id);
    const char* names[] = {"a", "b", "c", "pad"};
    for (int i = 0; i < 4; ++i) {
      ColumnInfo col;
      col.name = names[i];
      col.type = i < 3 ? TypeId::kInt : TypeId::kText;
      col.ordinal = i;
      table_.columns.push_back(col);
    }
    table_.structure = StorageStructure::kHeap;
    table_.main_page_target = 4;
    table_.primary_key = {0, 1};
    ASSERT_TRUE(layer_.CreateTableStorage(&table_).ok());
    IndexInfo idx;
    idx.id = 1000 + table_.id;
    idx.name = "wide_c";
    idx.table_id = table_.id;
    idx.key_columns = {2};
    ASSERT_TRUE(layer_.CreateIndexStorage(&idx, table_).ok());
    indexes_ = {idx};
    for (int64_t i = 0; i < kRows; ++i) Add((i * 37) % kRows);
    if (structure != StorageStructure::kHeap) {
      ASSERT_TRUE(layer_.ModifyStructure(&table_, &indexes_, structure).ok());
    }
    for (int64_t k = kRows; k < kRows + kLateRows; ++k) Add(k);
  }

  void Add(int64_t k) {
    Row row = {Value::Int(k / 10), Value::Int(k % 10), Value::Int(k % 7),
               Value::Text("pad" + std::string(40, 'x') + std::to_string(k))};
    ASSERT_TRUE(layer_.Insert(table_, indexes_, row).ok());
  }

  const IndexInfo& index() const { return indexes_[0]; }

  Entries ViaPath(const AccessPath& path) {
    Entries out;
    Status st =
        layer_.ScanPath(table_, path, [&](const Locator& loc, Row& row) {
          out.emplace_back(loc, Serialized(row));
          return true;
        });
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  void AppendUnits(const StorageLayer::ScanPlan& plan, size_t begin,
                   size_t end, Entries* out) {
    Status st = layer_.ScanUnits(table_, plan, begin, end,
                                 [&](const Locator& loc, Row& row) {
                                   out->emplace_back(loc, Serialized(row));
                                   return true;
                                 });
    EXPECT_TRUE(st.ok()) << st;
  }

  /// ScanPath, every two-way split of the unit list and the one-unit
  /// split all reproduce `reference`.
  void ExpectMatches(const std::string& label, const AccessPath& path,
                     const Entries& reference, bool expect_rows = true) {
    SCOPED_TRACE(label);
    EXPECT_EQ(!reference.empty(), expect_rows) << reference.size();
    EXPECT_EQ(ViaPath(path), reference);
    auto plan = layer_.BuildScan(table_, path);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const size_t n = plan->units.size();
    for (size_t split = 0; split <= n; ++split) {
      Entries joined;
      AppendUnits(*plan, 0, split, &joined);
      AppendUnits(*plan, split, n, &joined);
      EXPECT_EQ(joined, reference) << "split at unit " << split << "/" << n;
    }
    Entries singles;
    for (size_t u = 0; u < n; ++u) AppendUnits(*plan, u, u + 1, &singles);
    EXPECT_EQ(singles, reference) << "one unit at a time";
  }

  /// Whole-table scan straight off the structure's file.
  Entries FileScan() {
    Entries out;
    auto by_rid = [&](storage::Rid rid, Row& row) {
      out.emplace_back(RidLocator(rid), Serialized(row));
      return true;
    };
    Status st;
    switch (table_.structure) {
      case StorageStructure::kHeap:
        st = storage::HeapFile(&pool_, table_.file_id, table_.main_page_target)
                 .Scan(by_rid);
        break;
      case StorageStructure::kHash:
        st = storage::HashFile(&pool_, table_.file_id, table_.main_page_target)
                 .Scan(by_rid);
        break;
      case StorageStructure::kIsam:
        st = storage::IsamFile(&pool_, table_.file_id).Scan(by_rid);
        break;
      case StorageStructure::kBtree:
        st = storage::BTree(&pool_, table_.file_id)
                 .ScanFrom("", [&](std::string_view key,
                                   std::string_view payload) {
                   auto row = DeserializeRow(payload);
                   EXPECT_TRUE(row.ok());
                   out.emplace_back(Locator(key), Serialized(*row));
                   return true;
                 });
        break;
    }
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  /// Range scan over an ordered B-Tree (the primary tree, or the index
  /// tree when `on_index`): BTree::ScanFrom at the encoded seek key, with
  /// eq + bounds decided on decoded column values, stopping at the first
  /// entry past the range.
  Entries OrderedScan(const AccessPath& path, bool on_index) {
    const std::vector<int>& key_cols =
        on_index ? index().key_columns : table_.primary_key;
    std::vector<Value> seek = path.eq_values;
    if (path.lower.has_value()) seek.push_back(path.lower->value);
    Entries out;
    Status st =
        storage::BTree(&pool_, on_index ? index().file_id : table_.file_id)
            .ScanFrom(Encoded(seek), [&](std::string_view key,
                                         std::string_view payload) {
              Locator loc(on_index ? payload : key);
              auto row = on_index ? layer_.Fetch(table_, loc)
                               : DeserializeRow(payload);
              EXPECT_TRUE(row.ok());
              for (size_t i = 0; i < path.eq_values.size(); ++i) {
                if ((*row)[key_cols[i]].Compare(path.eq_values[i]) != 0) {
                  return false;
                }
              }
              if (path.eq_values.size() < key_cols.size()) {
                const Value& v = (*row)[key_cols[path.eq_values.size()]];
                if (path.upper.has_value()) {
                  int cmp = v.Compare(path.upper->value);
                  if (cmp > 0 || (cmp == 0 && !path.upper->inclusive)) {
                    return false;
                  }
                }
                if (path.lower.has_value() && !path.lower->inclusive &&
                    v.Compare(path.lower->value) == 0) {
                  return true;
                }
              }
              out.emplace_back(loc, Serialized(*row));
              return true;
            });
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  Entries IsamRange(const std::string& low, const std::string& high) {
    Entries out;
    Status st = storage::IsamFile(&pool_, table_.file_id)
                    .ScanRange(low, high, [&](storage::Rid rid, Row& row) {
                      out.emplace_back(RidLocator(rid), Serialized(row));
                      return true;
                    });
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  Entries HashBucket(const std::vector<Value>& key) {
    Entries out;
    Status st =
        storage::HashFile(&pool_, table_.file_id, table_.main_page_target)
            .LookupBucket(Encoded(key), [&](storage::Rid rid, Row& row) {
              out.emplace_back(RidLocator(rid), Serialized(row));
              return true;
            });
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  /// Secondary-index eq and ranges (inclusive, exclusive, one-sided,
  /// empty) against the index tree's ordered scan.
  void ExpectIndexPathsMatch() {
    struct Case {
      const char* label;
      AccessPath path;
      bool rows;
    };
    const Case cases[] = {
        {"index eq", IndexPath(index(), {Value::Int(3)}), true},
        {"index incl range", IndexPath(index(), {}, Incl(2), Incl(4)), true},
        {"index excl range", IndexPath(index(), {}, Excl(2), Excl(5)), true},
        {"index lower only", IndexPath(index(), {}, Excl(5)), true},
        {"index upper only", IndexPath(index(), {}, std::nullopt, Incl(0)),
         true},
        {"index empty range", IndexPath(index(), {}, Excl(3), Incl(3)),
         false},
        {"index eq miss", IndexPath(index(), {Value::Int(99)}), false},
    };
    for (const Case& c : cases) {
      ExpectMatches(c.label, c.path, OrderedScan(c.path, true), c.rows);
    }
  }

  TableInfo table_;
  std::vector<IndexInfo> indexes_;
};

TEST_F(ScanReferenceTest, HeapPathsMatchFileScans) {
  Build(StorageStructure::kHeap);
  ExpectMatches("seq", SeqPath(), FileScan());
  ExpectIndexPathsMatch();
}

TEST_F(ScanReferenceTest, BtreePathsMatchFileScans) {
  Build(StorageStructure::kBtree);
  ExpectMatches("seq", SeqPath(), FileScan());
  const auto kPk = AccessPathKind::kPrimaryBtree;
  struct Case {
    const char* label;
    AccessPath path;
    bool rows;
  };
  const Case cases[] = {
      {"pk eq", Path(kPk, {Value::Int(5), Value::Int(3)}), true},
      {"pk eq miss", Path(kPk, {Value::Int(5), Value::Int(30)}), false},
      {"pk prefix", Path(kPk, {Value::Int(5)}), true},
      {"pk prefix incl range", Path(kPk, {Value::Int(5)}, Incl(2), Incl(6)),
       true},
      {"pk prefix excl range", Path(kPk, {Value::Int(5)}, Excl(2), Excl(6)),
       true},
      {"pk prefix empty range",
       Path(kPk, {Value::Int(5)}, Excl(4), Excl(5)), false},
      {"pk incl range", Path(kPk, {}, Incl(3), Incl(8)), true},
      {"pk excl range", Path(kPk, {}, Excl(3), Excl(8)), true},
      {"pk lower only", Path(kPk, {}, Excl(55)), true},
      {"pk upper only", Path(kPk, {}, std::nullopt, Excl(2)), true},
      {"pk inverted range", Path(kPk, {}, Incl(9), Incl(4)), false},
  };
  for (const Case& c : cases) {
    ExpectMatches(c.label, c.path, OrderedScan(c.path, false), c.rows);
  }
  // Every stored key as a point probe: a key that opens a leaf makes the
  // descent land on the previous leaf, whose entries all sort below it.
  for (int64_t k = 0; k < kRows + kLateRows; ++k) {
    AccessPath probe = Path(kPk, {Value::Int(k / 10), Value::Int(k % 10)});
    ExpectMatches("pk probe " + std::to_string(k), probe,
                  OrderedScan(probe, false));
  }
  ExpectIndexPathsMatch();
}

TEST_F(ScanReferenceTest, IsamPathsMatchFileScans) {
  Build(StorageStructure::kIsam);
  ExpectMatches("seq", SeqPath(), FileScan());
  const auto kIsam = AccessPathKind::kPrimaryIsam;
  ExpectMatches("isam range", Path(kIsam, {}, Incl(10), Incl(20)),
                IsamRange(Encoded({Value::Int(10)}),
                          Encoded({Value::Int(20)})));
  ExpectMatches("isam lower only", Path(kIsam, {}, Incl(50)),
                IsamRange(Encoded({Value::Int(50)}), ""));
  ExpectMatches("isam upper only", Path(kIsam, {}, std::nullopt, Incl(4)),
                IsamRange("", Encoded({Value::Int(4)})));
  ExpectMatches("isam prefix", Path(kIsam, {Value::Int(7)}),
                IsamRange(Encoded({Value::Int(7)}),
                          Encoded({Value::Int(7)}) + std::string(4, '\xff')));
  ExpectIndexPathsMatch();
}

TEST_F(ScanReferenceTest, HashPathsMatchFileScans) {
  Build(StorageStructure::kHash);
  ExpectMatches("seq", SeqPath(), FileScan());
  const std::vector<Value> probe = {Value::Int(5), Value::Int(3)};
  // Force a collision: another stored key in the probed bucket must come
  // back from the probe too (callers filter it out).
  storage::HashFile file(&pool_, table_.file_id, table_.main_page_target);
  const uint32_t bucket = file.BucketOf(Encoded(probe));
  int64_t other = -1;
  for (int64_t k = 0; k < kRows && other < 0; ++k) {
    if (k == 53) continue;
    if (file.BucketOf(Encoded({Value::Int(k / 10), Value::Int(k % 10)})) ==
        bucket) {
      other = k;
    }
  }
  ASSERT_GE(other, 0);
  Entries reference = HashBucket(probe);
  auto holds = [&](int64_t k) {
    for (const auto& [loc, bytes] : reference) {
      auto row = DeserializeRow(bytes);
      if (row.ok() && (*row)[0].AsInt() == k / 10 &&
          (*row)[1].AsInt() == k % 10) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(holds(53));
  EXPECT_TRUE(holds(other));
  ExpectMatches("hash probe", Path(AccessPathKind::kPrimaryHash, probe),
                reference);
  auto plan =
      layer_.BuildScan(table_, Path(AccessPathKind::kPrimaryHash, probe));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->units, std::vector<uint32_t>{bucket});
  ExpectIndexPathsMatch();
}

}  // namespace
}  // namespace imon::exec
