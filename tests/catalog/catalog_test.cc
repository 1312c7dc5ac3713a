#include "catalog/catalog.h"

#include <gtest/gtest.h>

namespace imon::catalog {
namespace {

TableInfo MakeTable(const std::string& name, int columns = 2) {
  TableInfo info;
  info.name = name;
  for (int i = 0; i < columns; ++i) {
    ColumnInfo col;
    col.name = "c" + std::to_string(i);
    col.type = TypeId::kInt;
    info.columns.push_back(col);
  }
  return info;
}

TEST(CatalogTest, CreateAndGetTable) {
  Catalog catalog;
  auto id = catalog.CreateTable(MakeTable("t"));
  ASSERT_TRUE(id.ok());
  auto info = catalog.GetTable("t");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->id, *id);
  EXPECT_EQ(info->columns.size(), 2u);
  EXPECT_EQ(info->columns[1].ordinal, 1);
  EXPECT_TRUE(catalog.HasTable("t"));
  auto by_id = catalog.GetTableById(*id);
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(by_id->name, "t");
}

TEST(CatalogTest, DuplicateTableRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  EXPECT_EQ(catalog.CreateTable(MakeTable("t")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, DropTableRemovesIndexesAndStats) {
  Catalog catalog;
  auto tid = catalog.CreateTable(MakeTable("t"));
  ASSERT_TRUE(tid.ok());
  IndexInfo idx;
  idx.name = "t_c0";
  idx.table_id = *tid;
  idx.key_columns = {0};
  ASSERT_TRUE(catalog.CreateIndex(idx).ok());
  ColumnStats stats;
  stats.has_histogram = true;
  ASSERT_TRUE(catalog.SetColumnStats(*tid, 0, stats).ok());

  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.GetTable("t").ok());
  EXPECT_FALSE(catalog.GetIndex("t_c0").ok());
  EXPECT_FALSE(catalog.GetColumnStats(*tid, 0).has_histogram);
  EXPECT_TRUE(catalog.DropTable("t").IsNotFound());
}

TEST(CatalogTest, IndexLifecycle) {
  Catalog catalog;
  auto tid = catalog.CreateTable(MakeTable("t"));
  IndexInfo idx;
  idx.name = "i1";
  idx.table_id = *tid;
  idx.key_columns = {1};
  idx.unique = true;
  auto iid = catalog.CreateIndex(idx);
  ASSERT_TRUE(iid.ok());
  EXPECT_EQ(catalog.CreateIndex(idx).status().code(),
            StatusCode::kAlreadyExists);

  auto table = catalog.GetTable("t");
  EXPECT_EQ(table->index_ids, std::vector<ObjectId>{*iid});
  auto on_table = catalog.IndexesOnTable(*tid);
  ASSERT_EQ(on_table.size(), 1u);
  EXPECT_TRUE(on_table[0].unique);

  ASSERT_TRUE(catalog.DropIndex("i1").ok());
  EXPECT_TRUE(catalog.GetTable("t")->index_ids.empty());
  EXPECT_TRUE(catalog.DropIndex("i1").IsNotFound());
}

TEST(CatalogTest, IndexOnUnknownTableRejected) {
  Catalog catalog;
  IndexInfo idx;
  idx.name = "i";
  idx.table_id = 999;
  EXPECT_TRUE(catalog.CreateIndex(idx).status().IsNotFound());
}

TEST(CatalogTest, UpdateTablePersistsMutableFields) {
  Catalog catalog;
  auto tid = catalog.CreateTable(MakeTable("t"));
  auto info = catalog.GetTableById(*tid);
  info->row_count = 42;
  info->overflow_pages = 7;
  info->structure = StorageStructure::kBtree;
  ASSERT_TRUE(catalog.UpdateTable(*info).ok());
  auto reread = catalog.GetTable("t");
  EXPECT_EQ(reread->row_count, 42);
  EXPECT_EQ(reread->overflow_pages, 7);
  EXPECT_EQ(reread->structure, StorageStructure::kBtree);
}

TEST(CatalogTest, ColumnStatsRoundTrip) {
  Catalog catalog;
  auto tid = catalog.CreateTable(MakeTable("t"));
  EXPECT_FALSE(catalog.GetColumnStats(*tid, 0).has_histogram);
  ColumnStats stats;
  stats.has_histogram = true;
  stats.histogram = Histogram::Build({Value::Int(1), Value::Int(2)});
  stats.built_at_micros = 123;
  ASSERT_TRUE(catalog.SetColumnStats(*tid, 0, stats).ok());
  auto got = catalog.GetColumnStats(*tid, 0);
  EXPECT_TRUE(got.has_histogram);
  EXPECT_EQ(got.built_at_micros, 123);
  EXPECT_EQ(got.histogram.total_rows(), 2);
  ASSERT_TRUE(catalog.ClearColumnStats(*tid).ok());
  EXPECT_FALSE(catalog.GetColumnStats(*tid, 0).has_histogram);
}

TEST(CatalogTest, VirtualTableNamespaceShared) {
  Catalog catalog;
  class Empty : public VirtualTableProvider {
   public:
    std::vector<ColumnInfo> Schema() const override { return {}; }
    std::vector<Row> Rows(int64_t) const override { return {}; }
  };
  ASSERT_TRUE(
      catalog.RegisterVirtualTable("v", std::make_shared<Empty>()).ok());
  EXPECT_TRUE(catalog.HasVirtualTable("v"));
  EXPECT_NE(catalog.GetVirtualTable("v"), nullptr);
  // Names collide across real and virtual tables, both directions.
  EXPECT_EQ(catalog.CreateTable(MakeTable("v")).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  EXPECT_EQ(
      catalog.RegisterVirtualTable("t", std::make_shared<Empty>()).code(),
      StatusCode::kAlreadyExists);
}

TEST(CatalogTest, FindColumn) {
  TableInfo t = MakeTable("t", 3);
  for (size_t i = 0; i < t.columns.size(); ++i) {
    t.columns[i].ordinal = static_cast<int>(i);
  }
  EXPECT_EQ(t.FindColumn("c1"), 1);
  EXPECT_FALSE(t.FindColumn("missing").has_value());
}

}  // namespace
}  // namespace imon::catalog
