#include <gtest/gtest.h>

#include "fs/mem_filesystem.h"
#include "metastore/txn_manager.h"
#include "storage/acid.h"

namespace hive {
namespace {

Schema OneCol() {
  Schema s;
  s.AddField("v", DataType::Bigint());
  return s;
}

int64_t ScanSum(FileSystem* fs, const std::string& dir,
                const ValidWriteIdList& snapshot) {
  AcidReader reader(fs, dir, OneCol());
  EXPECT_TRUE(reader.Open(snapshot, {}).ok());
  int64_t sum = 0;
  bool done = false;
  for (;;) {
    auto batch = reader.NextBatch(&done);
    EXPECT_TRUE(batch.ok());
    if (done) break;
    for (size_t i = 0; i < batch->SelectedSize(); ++i)
      sum += batch->GetRow(i)[0].i64();
  }
  return sum;
}

void WriteOne(FileSystem* fs, const std::string& dir, int64_t wid, int64_t value) {
  AcidWriter writer(fs, dir, OneCol(), wid);
  writer.Insert({Value::Bigint(value)});
  ASSERT_TRUE(writer.Commit().ok());
}

/// Regression: minor compaction with an OPEN transaction in the middle of
/// the delta range must not produce a merged delta spanning the open id;
/// otherwise the open transaction's delta is orphaned when it commits.
TEST(CompactionSafetyTest, MinorNeverSpansOpenWriteIds) {
  MemFileSystem fs;
  // Committed: 1, 3, 4.  Open: 2 (its delta lands later).
  WriteOne(&fs, "/t", 1, 100);
  WriteOne(&fs, "/t", 3, 300);
  WriteOne(&fs, "/t", 4, 400);

  ValidWriteIdList snapshot;
  snapshot.high_watermark = 4;
  snapshot.exceptions = {2};
  snapshot.open_writes = {2};

  Compactor compactor(&fs, "/t", OneCol());
  ASSERT_TRUE(compactor.RunMinor(snapshot).ok());
  ASSERT_TRUE(compactor.Clean(snapshot).ok());
  // deltas 3..4 may merge; nothing may cover id 2.
  EXPECT_FALSE(fs.Exists("/t/delta_1_4"));
  EXPECT_TRUE(fs.Exists("/t/delta_1_1"));

  // Transaction 2 commits now.
  WriteOne(&fs, "/t", 2, 200);
  EXPECT_EQ(ScanSum(&fs, "/t", ValidWriteIdList::All(4)), 1000)
      << "late-committing delta must stay visible after compaction";
}

/// Regression: the open transaction holding the highest write id is above
/// the snapshot's high watermark, so it is in no exception list. Minor
/// compaction must still leave its delta alone.
TEST(CompactionSafetyTest, MinorLeavesOpenWriteIdAboveHighWatermark) {
  MemFileSystem fs;
  // Committed: 1..5. Open: 6, whose delta is already on disk (a writer
  // writes its files before its transaction commits).
  for (int64_t wid = 1; wid <= 6; ++wid) WriteOne(&fs, "/t", wid, wid);
  // What GetValidWriteIds derives here: hwm 5, no exceptions.
  ValidWriteIdList snapshot = ValidWriteIdList::All(5);

  Compactor compactor(&fs, "/t", OneCol());
  ASSERT_TRUE(compactor.RunMinor(snapshot).ok());
  ASSERT_TRUE(compactor.Clean(snapshot).ok());
  EXPECT_TRUE(fs.Exists("/t/delta_1_5"));
  EXPECT_TRUE(fs.Exists("/t/delta_6_6")) << "open transaction's delta survives";

  // Transaction 6 commits now.
  EXPECT_EQ(ScanSum(&fs, "/t", ValidWriteIdList::All(6)), 21);
}

/// Regression: a writer makes its delta directory before it writes the
/// file. Minor compaction between the two must not merge the empty
/// directory, or the file written afterwards reads as a pre-compaction
/// leftover.
TEST(CompactionSafetyTest, MinorLeavesEmptyDeltaOfOpenWriter) {
  MemFileSystem fs;
  // Committed: 1, 2, 3, 5. Open: 4, its directory made but not written.
  for (int64_t wid : {1, 2, 3, 5}) WriteOne(&fs, "/t", wid, wid);
  ASSERT_TRUE(fs.MakeDirs("/t/" + DeltaDirName(4, 4)).ok());
  ValidWriteIdList snapshot;
  snapshot.high_watermark = 5;
  snapshot.exceptions = {4};
  snapshot.open_writes = {4};

  Compactor compactor(&fs, "/t", OneCol());
  ASSERT_TRUE(compactor.RunMinor(snapshot).ok());
  ASSERT_TRUE(compactor.Clean(snapshot).ok());
  EXPECT_TRUE(fs.Exists("/t/delta_1_3"));
  EXPECT_FALSE(fs.Exists("/t/delta_1_5")) << "nothing may cover open id 4";

  // The writer finishes and transaction 4 commits.
  WriteOne(&fs, "/t", 4, 4);
  EXPECT_EQ(ScanSum(&fs, "/t", ValidWriteIdList::All(5)), 15);
}

/// Regression: a transaction that commits between the compactor's
/// GetSnapshot and GetValidWriteIds is an exception of the snapshot but no
/// longer open. It must still count as one the compactor may not span:
/// only aborted write ids may be compacted away.
TEST(CompactionSafetyTest, TransactionCommittingDuringSnapshotSurvives) {
  MemFileSystem fs;
  TransactionManager txns;
  const std::string table = "db.t";
  auto write = [&](int64_t txn, int64_t value) {
    auto wid = txns.AllocateWriteId(txn, table);
    ASSERT_TRUE(wid.ok());
    WriteOne(&fs, "/t", *wid, value);
  };
  int64_t t1 = txns.OpenTxn();
  write(t1, 1);
  ASSERT_TRUE(txns.CommitTxn(t1).ok());
  int64_t t2 = txns.OpenTxn();  // write id 2
  write(t2, 2);
  int64_t t3 = txns.OpenTxn();  // write id 3
  write(t3, 3);
  ASSERT_TRUE(txns.CommitTxn(t3).ok());

  TxnSnapshot txn_snapshot = txns.GetSnapshot();  // t2 still open
  ASSERT_TRUE(txns.CommitTxn(t2).ok());           // commits in between
  ValidWriteIdList snapshot = txns.GetValidWriteIds(table, txn_snapshot);
  EXPECT_EQ(snapshot.high_watermark, 3);
  EXPECT_EQ(snapshot.exceptions, std::set<int64_t>{2});
  EXPECT_EQ(snapshot.open_writes, std::set<int64_t>{2})
      << "a committed exception is not known to be aborted";

  Compactor compactor(&fs, "/t", OneCol());
  ASSERT_TRUE(compactor.RunMinor(snapshot).ok());
  ASSERT_TRUE(compactor.RunMajor(snapshot).ok());
  ASSERT_TRUE(compactor.Clean(snapshot).ok());
  ValidWriteIdList now = txns.GetValidWriteIds(table, txns.GetSnapshot());
  EXPECT_EQ(ScanSum(&fs, "/t", now), 6) << "transaction 2's row was compacted away";
}

TEST(CompactionSafetyTest, MinorSpansAbortedWriteIds) {
  MemFileSystem fs;
  // Committed: 1, 3.  Aborted: 2 (with data on disk that must disappear).
  WriteOne(&fs, "/t", 1, 100);
  WriteOne(&fs, "/t", 2, 999);  // aborted later
  WriteOne(&fs, "/t", 3, 300);

  ValidWriteIdList snapshot;
  snapshot.high_watermark = 3;
  snapshot.exceptions = {2};  // aborted: not in open_writes

  Compactor compactor(&fs, "/t", OneCol());
  ASSERT_TRUE(compactor.RunMinor(snapshot).ok());
  ASSERT_TRUE(compactor.Clean(snapshot).ok());
  EXPECT_TRUE(fs.Exists("/t/delta_1_3")) << "aborted ids are safe to span";
  EXPECT_FALSE(fs.Exists("/t/delta_2_2")) << "aborted delta compacted away";
  EXPECT_EQ(ScanSum(&fs, "/t", snapshot), 400);
  // Even a snapshot WITHOUT the exception now reads clean data: major
  // compaction "deletes history" (the merged delta excluded aborted rows).
  EXPECT_EQ(ScanSum(&fs, "/t", ValidWriteIdList::All(3)), 400);
}

TEST(CompactionSafetyTest, MajorCapsBelowOpenWriteIds) {
  MemFileSystem fs;
  WriteOne(&fs, "/t", 1, 100);
  WriteOne(&fs, "/t", 3, 300);  // open id 2 in between

  ValidWriteIdList snapshot;
  snapshot.high_watermark = 3;
  snapshot.exceptions = {2};
  snapshot.open_writes = {2};

  Compactor compactor(&fs, "/t", OneCol());
  ASSERT_TRUE(compactor.RunMajor(snapshot).ok());
  ASSERT_TRUE(compactor.Clean(snapshot).ok());
  EXPECT_FALSE(fs.Exists("/t/base_3")) << "base must not span open id 2";
  EXPECT_TRUE(fs.Exists("/t/base_1"));
  EXPECT_TRUE(fs.Exists("/t/delta_3_3")) << "delta above the cap survives";

  WriteOne(&fs, "/t", 2, 200);
  EXPECT_EQ(ScanSum(&fs, "/t", ValidWriteIdList::All(3)), 600);
}

TEST(CompactionSafetyTest, MajorAppliesDeletesAndErasesHistory) {
  MemFileSystem fs;
  AcidWriter w1(&fs, "/t", OneCol(), 1);
  for (int64_t i = 0; i < 10; ++i) w1.Insert({Value::Bigint(i)});
  ASSERT_TRUE(w1.Commit().ok());
  AcidWriter w2(&fs, "/t", OneCol(), 2);
  w2.Delete({1, 0, 0});
  w2.Delete({1, 0, 9});
  ASSERT_TRUE(w2.Commit().ok());

  Compactor compactor(&fs, "/t", OneCol());
  ValidWriteIdList snapshot = ValidWriteIdList::All(2);
  ASSERT_TRUE(compactor.RunMajor(snapshot).ok());
  ASSERT_TRUE(compactor.Clean(snapshot).ok());
  EXPECT_TRUE(fs.Exists("/t/base_2"));
  EXPECT_FALSE(fs.Exists("/t/delete_delta_2_2"));
  EXPECT_EQ(ScanSum(&fs, "/t", ValidWriteIdList::All(2)), 36);  // sum 1..8
}

TEST(CompactionSafetyTest, ConcurrentReaderSurvivesCleanBecauseDataIsMerged) {
  // Clean runs as a separate phase (Section 3.2): a reader that resolved
  // its file list before compaction keeps producing correct data from the
  // merged files; a reader opened after Clean sees the new layout.
  MemFileSystem fs;
  for (int64_t wid = 1; wid <= 5; ++wid) WriteOne(&fs, "/t", wid, wid);
  ValidWriteIdList snapshot = ValidWriteIdList::All(5);
  Compactor compactor(&fs, "/t", OneCol());
  ASSERT_TRUE(compactor.RunMinor(snapshot).ok());
  // Merge done, clean not yet: both old and new dirs exist, scans correct.
  EXPECT_TRUE(fs.Exists("/t/delta_1_5"));
  EXPECT_TRUE(fs.Exists("/t/delta_1_1"));
  EXPECT_EQ(ScanSum(&fs, "/t", snapshot), 15);
  ASSERT_TRUE(compactor.Clean(snapshot).ok());
  EXPECT_FALSE(fs.Exists("/t/delta_1_1"));
  EXPECT_EQ(ScanSum(&fs, "/t", snapshot), 15);
}

}  // namespace
}  // namespace hive
