#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>
#include <tuple>

#include "fs/mem_filesystem.h"
#include "storage/acid.h"
#include "storage/cof.h"
#include "storage/sarg.h"

namespace hive {
namespace {

Schema SalesSchema() {
  Schema s;
  s.AddField("item_sk", DataType::Bigint());
  s.AddField("price", DataType::Decimal(7, 2));
  s.AddField("category", DataType::String());
  return s;
}

TEST(CofTest, WriteReadRoundTrip) {
  MemFileSystem fs;
  CofWriter writer(SalesSchema());
  for (int64_t i = 0; i < 100; ++i)
    writer.AppendRow({Value::Bigint(i), Value::Decimal(i * 100, 2),
                      Value::String(i % 2 ? "Sports" : "Books")});
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs.WriteFile("/t/f0", *bytes).ok());

  auto reader = CofReader::Open(&fs, "/t/f0");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->schema().num_fields(), 3u);
  EXPECT_EQ((*reader)->NumRows(), 100u);
  auto batch = (*reader)->ReadRowGroup(0, {0, 1, 2});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 100u);
  EXPECT_EQ(batch->column(0)->GetI64(7), 7);
  EXPECT_EQ(batch->column(1)->GetValue(7).ToString(), "7.00");
  EXPECT_EQ(batch->column(2)->GetStr(7), "Sports");
}

TEST(CofTest, NullsSurviveRoundTrip) {
  MemFileSystem fs;
  Schema schema;
  schema.AddField("a", DataType::Bigint());
  schema.AddField("b", DataType::Double());
  schema.AddField("c", DataType::String());
  CofWriter writer(schema);
  writer.AppendRow({Value::Null(), Value::Double(1.5), Value::String("x")});
  writer.AppendRow({Value::Bigint(2), Value::Null(), Value::Null()});
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs.WriteFile("/t/f", *bytes).ok());
  auto reader = CofReader::Open(&fs, "/t/f");
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->ReadRowGroup(0, {0, 1, 2});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->column(0)->IsNull(0));
  EXPECT_FALSE(batch->column(0)->IsNull(1));
  EXPECT_TRUE(batch->column(1)->IsNull(1));
  EXPECT_TRUE(batch->column(2)->IsNull(1));
  EXPECT_EQ(batch->column(2)->GetStr(0), "x");
}

TEST(CofTest, MultipleRowGroupsAndStats) {
  MemFileSystem fs;
  CofWriteOptions options;
  options.row_group_size = 10;
  CofWriter writer(SalesSchema(), options);
  for (int64_t i = 0; i < 35; ++i)
    writer.AppendRow({Value::Bigint(i), Value::Decimal(i, 2), Value::String("c")});
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs.WriteFile("/t/f", *bytes).ok());
  auto reader = CofReader::Open(&fs, "/t/f");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_row_groups(), 4u);
  const auto& rg1 = (*reader)->row_group(1);
  EXPECT_EQ(rg1.num_rows, 10u);
  EXPECT_EQ(rg1.stats[0].min.i64(), 10);
  EXPECT_EQ(rg1.stats[0].max.i64(), 19);
  auto file_stats = (*reader)->FileStats(0);
  EXPECT_EQ(file_stats.min.i64(), 0);
  EXPECT_EQ(file_stats.max.i64(), 34);
  EXPECT_EQ(file_stats.value_count, 35u);
}

TEST(CofTest, SargSkipsRowGroups) {
  MemFileSystem fs;
  CofWriteOptions options;
  options.row_group_size = 10;
  CofWriter writer(SalesSchema(), options);
  for (int64_t i = 0; i < 100; ++i)
    writer.AppendRow({Value::Bigint(i), Value::Decimal(i, 2), Value::String("c")});
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs.WriteFile("/t/f", *bytes).ok());
  auto reader = CofReader::Open(&fs, "/t/f");
  ASSERT_TRUE(reader.ok());

  SearchArgument sarg;
  sarg.conjuncts.push_back({"item_sk", SargOp::kEq, {Value::Bigint(55)}, nullptr});
  int matching = 0;
  for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg)
    if ((*reader)->MightMatch(rg, sarg)) ++matching;
  EXPECT_EQ(matching, 1);

  SearchArgument range;
  range.conjuncts.push_back(
      {"item_sk", SargOp::kBetween, {Value::Bigint(15), Value::Bigint(34)}, nullptr});
  matching = 0;
  for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg)
    if ((*reader)->MightMatch(rg, range)) ++matching;
  EXPECT_EQ(matching, 3);  // row groups [10,19],[20,29],[30,39]
}

TEST(CofTest, BloomFilterSkipsNonMatchingGroups) {
  MemFileSystem fs;
  CofWriteOptions options;
  options.row_group_size = 100;
  options.bloom_columns = {"item_sk"};
  CofWriter writer(SalesSchema(), options);
  // Sparse keys so min/max ranges overlap but Blooms distinguish.
  for (int64_t i = 0; i < 300; ++i)
    writer.AppendRow({Value::Bigint(i * 1000 + (i % 100)), Value::Decimal(0, 2),
                      Value::String("c")});
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs.WriteFile("/t/f", *bytes).ok());
  auto reader = CofReader::Open(&fs, "/t/f");
  ASSERT_TRUE(reader.ok());
  SearchArgument sarg;
  // Value inside global min/max but not present in any row group.
  sarg.conjuncts.push_back({"item_sk", SargOp::kEq, {Value::Bigint(1500)}, nullptr});
  int matching = 0;
  for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg)
    if ((*reader)->MightMatch(rg, sarg)) ++matching;
  EXPECT_EQ(matching, 0);
}

TEST(CofTest, ProjectionReadsOnlyRequestedColumns) {
  MemFileSystem fs;
  CofWriter writer(SalesSchema());
  for (int64_t i = 0; i < 1000; ++i)
    writer.AppendRow({Value::Bigint(i), Value::Decimal(i, 2),
                      Value::String("long-category-string-" + std::to_string(i))});
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs.WriteFile("/t/f", *bytes).ok());
  auto reader = CofReader::Open(&fs, "/t/f");
  ASSERT_TRUE(reader.ok());
  fs.ResetIoStats();
  auto one = (*reader)->ReadRowGroup(0, {0});
  ASSERT_TRUE(one.ok());
  uint64_t bytes_one = fs.bytes_read();
  fs.ResetIoStats();
  auto all = (*reader)->ReadRowGroup(0, {0, 1, 2});
  ASSERT_TRUE(all.ok());
  uint64_t bytes_all = fs.bytes_read();
  EXPECT_LT(bytes_one * 2, bytes_all) << "column projection should reduce IO";
}

TEST(CofTest, RleCompressesConstantColumns) {
  Schema schema;
  schema.AddField("k", DataType::Bigint());
  CofWriter constant(schema);
  CofWriter random(schema);
  for (int64_t i = 0; i < 10000; ++i) {
    constant.AppendRow({Value::Bigint(7)});
    random.AppendRow({Value::Bigint(i * 2654435761 % 1000000)});
  }
  auto c = constant.Finish();
  auto r = random.Finish();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_LT(c->size() * 10, r->size());
}

TEST(CofTest, DictionaryEncodingForLowCardinalityStrings) {
  Schema schema;
  schema.AddField("s", DataType::String());
  CofWriter low(schema), high(schema);
  for (int64_t i = 0; i < 5000; ++i) {
    low.AppendRow({Value::String(i % 3 ? "Sports" : "Books")});
    high.AppendRow({Value::String("unique-string-value-" + std::to_string(i))});
  }
  auto l = low.Finish();
  auto h = high.Finish();
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(h.ok());
  EXPECT_LT(l->size() * 3, h->size());
}

TEST(CofTest, CorruptFileRejected) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("/t/garbage", "this is not a cof file at all").ok());
  auto reader = CofReader::Open(&fs, "/t/garbage");
  EXPECT_FALSE(reader.ok());
}

// --- ACID ---

TEST(AcidDirTest, ParseNames) {
  auto base = ParseAcidDirName("/w/t/base_100");
  EXPECT_EQ(base.kind, AcidDirKind::kBase);
  EXPECT_EQ(base.max_write_id, 100);
  auto delta = ParseAcidDirName("/w/t/delta_101_105");
  EXPECT_EQ(delta.kind, AcidDirKind::kDelta);
  EXPECT_EQ(delta.min_write_id, 101);
  EXPECT_EQ(delta.max_write_id, 105);
  auto dd = ParseAcidDirName("/w/t/delete_delta_103_103");
  EXPECT_EQ(dd.kind, AcidDirKind::kDeleteDelta);
  EXPECT_EQ(dd.min_write_id, 103);
  auto other = ParseAcidDirName("/w/t/random_dir");
  EXPECT_EQ(other.kind, AcidDirKind::kOther);
}

TEST(ValidWriteIdListTest, Validity) {
  ValidWriteIdList list{10, {4, 7}};
  EXPECT_TRUE(list.IsValid(1));
  EXPECT_FALSE(list.IsValid(4));
  EXPECT_FALSE(list.IsValid(11));
  EXPECT_TRUE(list.IsRangeValid(1, 3));
  EXPECT_FALSE(list.IsRangeValid(3, 5));
  EXPECT_TRUE(list.IsRangeValid(8, 10));
  EXPECT_FALSE(list.IsRangeValid(8, 11));
}

int64_t ScanCount(FileSystem* fs, const std::string& dir, const Schema& schema,
                  const ValidWriteIdList& snapshot) {
  AcidReader reader(fs, dir, schema);
  AcidScanOptions options;
  if (!reader.Open(snapshot, options).ok()) return -1;
  int64_t count = 0;
  bool done = false;
  for (;;) {
    auto batch = reader.NextBatch(&done);
    if (!batch.ok()) return -1;
    if (done) break;
    count += static_cast<int64_t>(batch->SelectedSize());
  }
  return count;
}

TEST(AcidTest, InsertAndScan) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  AcidWriter writer(&fs, "/w/t", schema, 1);
  for (int64_t i = 0; i < 50; ++i)
    writer.Insert({Value::Bigint(i), Value::Decimal(i, 2), Value::String("a")});
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, ValidWriteIdList::All(1)), 50);
}

TEST(AcidTest, SnapshotHidesUncommittedWrites) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  AcidWriter w1(&fs, "/w/t", schema, 1);
  w1.Insert({Value::Bigint(1), Value::Decimal(0, 2), Value::String("a")});
  ASSERT_TRUE(w1.Commit().ok());
  AcidWriter w2(&fs, "/w/t", schema, 2);
  w2.Insert({Value::Bigint(2), Value::Decimal(0, 2), Value::String("b")});
  ASSERT_TRUE(w2.Commit().ok());

  // Snapshot taken before write 2 committed: write id 2 is open.
  ValidWriteIdList snap{2, {2}};
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, snap), 1);
  // Snapshot after both commits.
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, ValidWriteIdList::All(2)), 2);
  // Aborted write stays invisible forever.
  ValidWriteIdList aborted{2, {2}};
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, aborted), 1);
}

TEST(AcidTest, DeleteHidesRows) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  AcidWriter w1(&fs, "/w/t", schema, 1);
  for (int64_t i = 0; i < 10; ++i)
    w1.Insert({Value::Bigint(i), Value::Decimal(0, 2), Value::String("a")});
  ASSERT_TRUE(w1.Commit().ok());

  // Delete rows 3 and 7 of write 1 (bucket 0, row ids 3 and 7).
  AcidWriter w2(&fs, "/w/t", schema, 2);
  w2.Delete({1, 0, 3});
  w2.Delete({1, 0, 7});
  ASSERT_TRUE(w2.Commit().ok());

  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, ValidWriteIdList::All(2)), 8);
  // A snapshot that does not see the delete still sees 10 rows.
  ValidWriteIdList before{2, {2}};
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, before), 10);
}

TEST(AcidTest, UpdateAsDeletePlusInsert) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  AcidWriter w1(&fs, "/w/t", schema, 1);
  w1.Insert({Value::Bigint(1), Value::Decimal(100, 2), Value::String("old")});
  ASSERT_TRUE(w1.Commit().ok());

  AcidWriter w2(&fs, "/w/t", schema, 2);
  w2.Delete({1, 0, 0});
  w2.Insert({Value::Bigint(1), Value::Decimal(200, 2), Value::String("new")});
  ASSERT_TRUE(w2.Commit().ok());

  AcidReader reader(&fs, "/w/t", schema);
  ASSERT_TRUE(reader.Open(ValidWriteIdList::All(2), {}).ok());
  bool done = false;
  std::vector<std::string> values;
  for (;;) {
    auto batch = reader.NextBatch(&done);
    ASSERT_TRUE(batch.ok());
    if (done) break;
    for (size_t i = 0; i < batch->SelectedSize(); ++i)
      values.push_back(batch->GetRow(i)[2].str());
  }
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "new");
}

TEST(AcidTest, MinorCompactionMergesDeltas) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  for (int64_t wid = 1; wid <= 5; ++wid) {
    AcidWriter w(&fs, "/w/t", schema, wid);
    w.Insert({Value::Bigint(wid), Value::Decimal(0, 2), Value::String("x")});
    ASSERT_TRUE(w.Commit().ok());
  }
  Compactor compactor(&fs, "/w/t", schema);
  ASSERT_TRUE(compactor.RunMinor(ValidWriteIdList::All(5)).ok());
  EXPECT_TRUE(fs.Exists("/w/t/delta_1_5"));
  // Rows unchanged pre-clean and post-clean.
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, ValidWriteIdList::All(5)), 5);
  ASSERT_TRUE(compactor.Clean(ValidWriteIdList::All(5)).ok());
  EXPECT_FALSE(fs.Exists("/w/t/delta_1_1"));
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, ValidWriteIdList::All(5)), 5);
}

TEST(AcidTest, MajorCompactionAppliesDeletes) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  AcidWriter w1(&fs, "/w/t", schema, 1);
  for (int64_t i = 0; i < 20; ++i)
    w1.Insert({Value::Bigint(i), Value::Decimal(0, 2), Value::String("x")});
  ASSERT_TRUE(w1.Commit().ok());
  AcidWriter w2(&fs, "/w/t", schema, 2);
  for (int64_t i = 0; i < 10; ++i) w2.Delete({1, 0, i});
  ASSERT_TRUE(w2.Commit().ok());

  Compactor compactor(&fs, "/w/t", schema);
  ASSERT_TRUE(compactor.RunMajor(ValidWriteIdList::All(2)).ok());
  EXPECT_TRUE(fs.Exists("/w/t/base_2"));
  ASSERT_TRUE(compactor.Clean(ValidWriteIdList::All(2)).ok());
  EXPECT_FALSE(fs.Exists("/w/t/delta_1_1"));
  EXPECT_FALSE(fs.Exists("/w/t/delete_delta_2_2"));
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, ValidWriteIdList::All(2)), 10);
}

TEST(AcidTest, RecordIdsSurviveMajorCompaction) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  AcidWriter w1(&fs, "/w/t", schema, 1);
  for (int64_t i = 0; i < 5; ++i)
    w1.Insert({Value::Bigint(i), Value::Decimal(0, 2), Value::String("x")});
  ASSERT_TRUE(w1.Commit().ok());
  Compactor compactor(&fs, "/w/t", schema);
  ASSERT_TRUE(compactor.RunMajor(ValidWriteIdList::All(1)).ok());
  ASSERT_TRUE(compactor.Clean(ValidWriteIdList::All(1)).ok());

  // Delete by the ORIGINAL record id; must still hit after compaction.
  AcidWriter w2(&fs, "/w/t", schema, 2);
  w2.Delete({1, 0, 2});
  ASSERT_TRUE(w2.Commit().ok());
  EXPECT_EQ(ScanCount(&fs, "/w/t", schema, ValidWriteIdList::All(2)), 4);
}

TEST(AcidTest, SargPushdownSkipsRowGroupsThroughAcidReader) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  CofWriteOptions options;
  options.row_group_size = 100;
  AcidWriter writer(&fs, "/w/t", schema, 1, options);
  for (int64_t i = 0; i < 1000; ++i)
    writer.Insert({Value::Bigint(i), Value::Decimal(0, 2), Value::String("x")});
  ASSERT_TRUE(writer.Commit().ok());

  AcidReader reader(&fs, "/w/t", schema);
  AcidScanOptions scan;
  scan.sarg.conjuncts.push_back({"item_sk", SargOp::kEq, {Value::Bigint(555)}, nullptr});
  ASSERT_TRUE(reader.Open(ValidWriteIdList::All(1), scan).ok());
  bool done = false;
  int64_t rows = 0;
  for (;;) {
    auto batch = reader.NextBatch(&done);
    ASSERT_TRUE(batch.ok());
    if (done) break;
    rows += static_cast<int64_t>(batch->SelectedSize());
  }
  EXPECT_EQ(reader.row_groups_read(), 1u);
  EXPECT_EQ(reader.row_groups_skipped(), 9u);
  EXPECT_EQ(rows, 100);  // row-group granularity; exact filter applied above
}

TEST(AcidTest, EmptyDirectoryScansZeroRows) {
  MemFileSystem fs;
  Schema schema = SalesSchema();
  EXPECT_EQ(ScanCount(&fs, "/w/missing", schema, ValidWriteIdList::All(1)), 0);
}

/// One ACID row as (write id, bucket, row id, v).
using AcidRow = std::array<int64_t, 4>;

Schema ValueSchema() {
  Schema s;
  s.AddField("v", DataType::Bigint());
  return s;
}

std::vector<std::string> DirFiles(FileSystem* fs, const AcidDirInfo& dir) {
  std::vector<std::string> out;
  auto files = fs->ListDir(dir.path);
  EXPECT_TRUE(files.ok());
  if (files.ok())
    for (const FileInfo& f : *files)
      if (!f.is_dir) out.push_back(f.path);
  return out;
}

/// Calls `fn(row group batch)` for every row group of every file in `dir`,
/// reading its first `columns` columns straight from the file.
template <typename Fn>
void ForEachRowGroup(FileSystem* fs, const AcidDirInfo& dir, size_t columns, Fn fn) {
  std::vector<size_t> all;
  for (size_t c = 0; c < columns; ++c) all.push_back(c);
  for (const std::string& path : DirFiles(fs, dir)) {
    auto reader = CofReader::Open(fs, path);
    ASSERT_TRUE(reader.ok());
    for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
      auto batch = (*reader)->ReadRowGroup(rg, all);
      ASSERT_TRUE(batch.ok());
      fn(*batch);
    }
  }
}

/// The rows `snapshot` sees, in file order: every visible row of the
/// selected base and deltas, anti-joined with a std::set of the record ids
/// whose deleting transaction is visible.
std::vector<AcidRow> ReferenceRows(FileSystem* fs, const std::string& dir,
                                   const ValidWriteIdList& snapshot) {
  auto sel = SelectAcidDirs(fs, dir, snapshot);
  EXPECT_TRUE(sel.ok());
  if (!sel.ok()) return {};
  std::set<std::tuple<int64_t, int64_t, int64_t>> deleted;
  for (const AcidDirInfo& d : sel->delete_deltas)
    ForEachRowGroup(fs, d, 4, [&](const RowBatch& b) {
      for (size_t i = 0; i < b.num_rows(); ++i)
        if (snapshot.IsValid(b.column(3)->i64_data()[i]))
          deleted.insert({b.column(0)->i64_data()[i], b.column(1)->i64_data()[i],
                          b.column(2)->i64_data()[i]});
    });
  std::vector<AcidDirInfo> data;
  if (sel->base) data.push_back(*sel->base);
  data.insert(data.end(), sel->deltas.begin(), sel->deltas.end());
  std::vector<AcidRow> rows;
  for (const AcidDirInfo& d : data)
    ForEachRowGroup(fs, d, 4, [&](const RowBatch& b) {
      for (size_t i = 0; i < b.num_rows(); ++i) {
        AcidRow row{b.column(0)->i64_data()[i], b.column(1)->i64_data()[i],
                    b.column(2)->i64_data()[i], b.column(3)->i64_data()[i]};
        if (snapshot.IsValid(row[0]) && !deleted.count({row[0], row[1], row[2]}))
          rows.push_back(row);
      }
    });
  return rows;
}

std::vector<AcidRow> ReaderRows(FileSystem* fs, const std::string& dir,
                                const ValidWriteIdList& snapshot) {
  AcidReader reader(fs, dir, ValueSchema());
  AcidScanOptions options;
  options.include_row_ids = true;
  EXPECT_TRUE(reader.Open(snapshot, options).ok());
  std::vector<AcidRow> rows;
  bool done = false;
  for (;;) {
    auto batch = reader.NextBatch(&done);
    EXPECT_TRUE(batch.ok());
    if (!batch.ok() || done) break;
    for (size_t i = 0; i < batch->SelectedSize(); ++i) {
      std::vector<Value> row = batch->GetRow(i);
      rows.push_back({row[1].i64(), row[2].i64(), row[3].i64(), row[0].i64()});
    }
  }
  return rows;
}

/// Merge-on-read must equal a plain set anti-join on every input: delete
/// deltas out of record-id order (as MERGE writes them), one record deleted
/// twice, deletes by open and aborted deleters, events on row-group
/// boundaries, and a data file whose rows are out of record-id order.
TEST(AcidTest, DeleteMergeMatchesSetAntiJoin) {
  MemFileSystem fs;
  const std::string dir = "/w/t";
  Schema schema = ValueSchema();
  CofWriteOptions small;
  small.row_group_size = 16;
  int64_t next_v = 0;
  auto insert = [&](int64_t wid, int rows, CofWriteOptions options) {
    AcidWriter writer(&fs, dir, schema, wid, options);
    for (int i = 0; i < rows; ++i) writer.Insert({Value::Bigint(next_v++)});
    ASSERT_TRUE(writer.Commit().ok());
  };
  auto erase = [&](int64_t wid, const std::vector<RecordId>& ids) {
    AcidWriter writer(&fs, dir, schema, wid, small);
    for (const RecordId& id : ids) writer.Delete(id);
    ASSERT_TRUE(writer.Commit().ok());
  };

  // base_2 holds write ids 1 and 2 in two row groups (4096 + 504 rows).
  insert(1, 4500, {});
  insert(2, 100, {});
  Compactor compactor(&fs, dir, schema);
  ASSERT_TRUE(compactor.RunMajor(ValidWriteIdList::All(2)).ok());
  ASSERT_TRUE(compactor.Clean(ValidWriteIdList::All(2)).ok());
  ASSERT_TRUE(fs.Exists(dir + "/base_2"));
  // Insert deltas 3..5, 16 rows a row group.
  for (int64_t wid = 3; wid <= 5; ++wid) insert(wid, 50, small);
  // Delete deltas in no particular record-id order, including both sides
  // of base_2's row-group boundary; 6 and 7 both delete (4, 0, 7).
  erase(6, {{1, 0, 4000}, {4, 0, 7}, {2, 0, 3}, {1, 0, 17}, {3, 0, 49},
            {5, 0, 16}, {1, 0, 4096}, {1, 0, 4095}, {5, 0, 15}, {9, 0, 1}});
  erase(7, {{4, 0, 7}, {3, 0, 0}, {1, 0, 0}, {2, 0, 99}});
  erase(8, {{3, 0, 1}, {2, 0, 98}, {4, 0, 7}});  // open deleter
  erase(9, {{3, 0, 2}, {1, 0, 1}});              // aborted deleter
  // delta_10_10 written directly, rows out of record-id order across two
  // buckets, four rows a row group.
  {
    const std::vector<std::pair<int64_t, int64_t>> ids = {
        {1, 5}, {0, 3}, {0, 9}, {1, 0}, {0, 0}, {0, 4}, {1, 2}, {0, 1},
        {1, 1}, {0, 2}, {0, 8}, {0, 5}, {1, 4}, {1, 3}, {0, 7}, {0, 6}};
    CofWriteOptions tiny;
    tiny.row_group_size = 4;
    CofWriter writer(AcidFileSchema(schema), tiny);
    for (const auto& [bucket, row_id] : ids)
      writer.AppendRow({Value::Bigint(10), Value::Bigint(bucket), Value::Bigint(row_id),
                        Value::Bigint(next_v++)});
    auto bytes = writer.Finish();
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(fs.MakeDirs(dir + "/" + DeltaDirName(10, 10)).ok());
    ASSERT_TRUE(fs.WriteFile(dir + "/" + DeltaDirName(10, 10) + "/file_0000", *bytes).ok());
  }
  erase(11, {{10, 1, 5}, {10, 0, 0}, {10, 0, 9}, {10, 1, 0}, {10, 0, 2},
             {10, 1, 3}, {10, 0, 6}, {5, 0, 49}});
  // Scattered deletes over every data file, in random order.
  {
    std::mt19937 rng(17);
    const std::vector<std::pair<int64_t, int64_t>> files = {
        {1, 4500}, {2, 100}, {3, 50}, {4, 50}, {5, 50}};
    std::vector<RecordId> ids;
    for (int i = 0; i < 200; ++i) {
      const auto& [wid, rows] = files[rng() % files.size()];
      ids.push_back({wid, 0, static_cast<int64_t>(rng() % rows)});
    }
    ids.push_back({10, static_cast<int64_t>(rng() % 2), static_cast<int64_t>(rng() % 10)});
    erase(12, ids);
  }

  const std::vector<ValidWriteIdList> snapshots = {
      {12, {8, 9}, {8}},   // now: 8 open, 9 aborted
      {12, {9}, {}},       // after 8 commits
      ValidWriteIdList::All(12),
      {12, {6, 9}, {}},    // (4, 0, 7) still deleted by 7
      {12, {7, 8, 9}, {}},  // ... and by 6
      {10, {8, 9}, {8}},   // sees delta_10_10 but none of its deletes
      {5, {}, {}},         // before any delete
      {2, {}, {}},         // base only
  };
  for (const ValidWriteIdList& snapshot : snapshots)
    EXPECT_EQ(ReaderRows(&fs, dir, snapshot), ReferenceRows(&fs, dir, snapshot))
        << snapshot.ToString();
  // The deletes do remove rows, so the comparison is not vacuous: 4,750
  // rows up to write id 5, 16 more in delta_10_10.
  EXPECT_EQ(ReferenceRows(&fs, dir, {5, {}, {}}).size(), 4750u);
  EXPECT_LT(ReferenceRows(&fs, dir, snapshots[0]).size(), 4750u + 16u - 150u);
}

}  // namespace
}  // namespace hive
