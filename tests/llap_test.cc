#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fs/mem_filesystem.h"
#include "llap/daemon.h"
#include "server/hive_server.h"
#include "storage/acid.h"

namespace hive {
namespace {

Schema TestSchema() {
  Schema s;
  s.AddField("a", DataType::Bigint());
  s.AddField("b", DataType::String());
  return s;
}

void WriteCofFile(MemFileSystem* fs, const std::string& path, int rows,
                  const std::string& marker) {
  CofWriter writer(TestSchema());
  for (int i = 0; i < rows; ++i)
    writer.AppendRow({Value::Bigint(i), Value::String(marker)});
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs->WriteFile(path, *bytes).ok());
}

TEST(LlapCacheTest, ChunksCachedByFileRowGroupColumn) {
  MemFileSystem fs;
  Config config;
  LlapCacheProvider cache(&fs, config);
  WriteCofFile(&fs, "/t/f0", 100, "x");

  auto reader = cache.OpenReader("/t/f0");
  ASSERT_TRUE(reader.ok());
  fs.ResetIoStats();
  auto chunk1 = cache.ReadChunk(*reader, 0, 0);
  ASSERT_TRUE(chunk1.ok());
  uint64_t bytes_first = fs.bytes_read();
  EXPECT_GT(bytes_first, 0u);

  auto chunk2 = cache.ReadChunk(*reader, 0, 0);
  ASSERT_TRUE(chunk2.ok());
  EXPECT_EQ(fs.bytes_read(), bytes_first) << "second read must hit the cache";
  EXPECT_EQ(cache.data_hits(), 1u);
  EXPECT_EQ(*chunk1, *chunk2) << "same shared chunk";

  // A different column is a different cache entry.
  auto chunk3 = cache.ReadChunk(*reader, 0, 1);
  ASSERT_TRUE(chunk3.ok());
  EXPECT_GT(fs.bytes_read(), bytes_first);
}

TEST(LlapCacheTest, MetadataCachedAcrossOpens) {
  MemFileSystem fs;
  LlapCacheProvider cache(&fs, Config{});
  WriteCofFile(&fs, "/t/f0", 10, "x");
  auto r1 = cache.OpenReader("/t/f0");
  auto r2 = cache.OpenReader("/t/f0");
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->get(), r2->get()) << "same cached reader";
  EXPECT_EQ(cache.metadata_hits(), 1u);
}

TEST(LlapCacheTest, FileIdChangeInvalidates) {
  // The ETag analogue (Section 5.1): rewriting a path yields a new FileId;
  // cached chunks for the old file must never serve the new one.
  MemFileSystem fs;
  LlapCacheProvider cache(&fs, Config{});
  WriteCofFile(&fs, "/t/f0", 10, "old");
  auto r1 = cache.OpenReader("/t/f0");
  ASSERT_TRUE(r1.ok());
  auto old_chunk = cache.ReadChunk(*r1, 0, 1);
  ASSERT_TRUE(old_chunk.ok());
  EXPECT_EQ((*old_chunk)->GetStr(0), "old");

  WriteCofFile(&fs, "/t/f0", 10, "new");
  auto r2 = cache.OpenReader("/t/f0");
  ASSERT_TRUE(r2.ok());
  EXPECT_NE((*r2)->file_id(), (*r1)->file_id());
  auto new_chunk = cache.ReadChunk(*r2, 0, 1);
  ASSERT_TRUE(new_chunk.ok());
  EXPECT_EQ((*new_chunk)->GetStr(0), "new");
}

TEST(LlapCacheTest, EvictionUnderCapacity) {
  MemFileSystem fs;
  Config config;
  config.llap_cache_capacity_bytes = 4096;  // tiny cache
  LlapCacheProvider cache(&fs, config);
  for (int f = 0; f < 10; ++f)
    WriteCofFile(&fs, "/t/f" + std::to_string(f), 200, "data");
  for (int f = 0; f < 10; ++f) {
    auto reader = cache.OpenReader("/t/f" + std::to_string(f));
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE(cache.ReadChunk(*reader, 0, 0).ok());
    ASSERT_TRUE(cache.ReadChunk(*reader, 0, 1).ok());
  }
  EXPECT_LE(cache.used_bytes(), 4096u);
  EXPECT_LT(cache.cached_chunks(), 20u) << "some chunks must have been evicted";
}

TEST(LlapCacheTest, MvccViaAcidFileSelection) {
  // Two snapshots address different delta files; both are served correctly
  // from one cache because keys carry file identity (the "MVCC view").
  MemFileSystem fs;
  Config config;
  LlapCacheProvider cache(&fs, config);
  Schema schema = TestSchema();
  AcidWriter w1(&fs, "/w/t", schema, 1);
  w1.Insert({Value::Bigint(1), Value::String("v1")});
  ASSERT_TRUE(w1.Commit().ok());
  AcidWriter w2(&fs, "/w/t", schema, 2);
  w2.Insert({Value::Bigint(2), Value::String("v2")});
  ASSERT_TRUE(w2.Commit().ok());

  auto count_rows = [&](const ValidWriteIdList& snapshot) {
    AcidReader reader(&fs, "/w/t", schema, &cache);
    AcidScanOptions options;
    EXPECT_TRUE(reader.Open(snapshot, options).ok());
    int64_t rows = 0;
    bool done = false;
    for (;;) {
      auto batch = reader.NextBatch(&done);
      EXPECT_TRUE(batch.ok());
      if (done) break;
      rows += static_cast<int64_t>(batch->SelectedSize());
    }
    return rows;
  };
  EXPECT_EQ(count_rows(ValidWriteIdList::All(2)), 2);
  ValidWriteIdList old_snapshot{2, {2}, {}};
  EXPECT_EQ(count_rows(old_snapshot), 1) << "older snapshot sees fewer files";
  EXPECT_EQ(count_rows(ValidWriteIdList::All(2)), 2)
      << "newer snapshot unaffected by cached reads of the older one";
  EXPECT_GT(cache.data_hits(), 0u);
}

TEST(LlapCacheTest, CompactionCleanupDropsChunksOfDeletedFiles) {
  MemFileSystem fs;
  Config config;
  config.container_startup_us = 0;
  config.compaction_delta_threshold = 3;
  HiveServer2 server(&fs, config);
  Connection session = server.Connect();
  session.config().result_cache_enabled = false;
  ASSERT_TRUE(session.Execute("CREATE TABLE t (a INT, b STRING)").ok());
  for (int i = 0; i < 2; ++i)
    ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  ASSERT_TRUE(session.Execute("SELECT SUM(a) FROM t").ok());
  LlapCacheProvider* cache = server.llap()->cache();
  ASSERT_GT(cache->cached_chunks(), 0u);
  // The third delta triggers a major compaction; its cleanup deletes both
  // deltas the SELECT cached, and their chunks leave the cache with them.
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (3, 'z')").ok());
  ASSERT_EQ(server.compaction()->compactions_run(), 1);
  EXPECT_EQ(cache->cached_chunks(), 0u);
  auto sum = session.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->rows[0][0].i64(), 9);
}

TEST(LlapDaemonTest, FragmentsRunOnPersistentExecutors) {
  MemFileSystem fs;
  Config config;
  config.num_executors = 3;
  LlapDaemon daemon(&fs, config);
  EXPECT_EQ(daemon.num_executors(), 3);
  std::atomic<int> ran{0};
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(daemon.SubmitFragment([&ran] {
      ran.fetch_add(1);
      return Status::OK();
    }));
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(daemon.fragments_completed(), 16);
}

TEST(LlapDaemonTest, FragmentErrorsPropagate) {
  MemFileSystem fs;
  LlapDaemon daemon(&fs, Config{});
  auto future = daemon.SubmitFragment([] { return Status::ExecError("boom"); });
  Status status = future.get();
  EXPECT_TRUE(status.IsExecError());
}

TEST(LlapDaemonTest, IoElevatorPrefetchesAsync) {
  MemFileSystem fs;
  LlapDaemon daemon(&fs, Config{});
  WriteCofFile(&fs, "/t/f0", 50, "x");
  auto reader = daemon.cache()->OpenReader("/t/f0");
  ASSERT_TRUE(reader.ok());
  auto f0 = daemon.PrefetchChunk(*reader, 0, 0);
  auto f1 = daemon.PrefetchChunk(*reader, 0, 1);
  auto c0 = f0.get();
  auto c1 = f1.get();
  ASSERT_TRUE(c0.ok() && c1.ok());
  EXPECT_EQ((*c0)->size(), 50u);
  EXPECT_EQ((*c1)->GetStr(0), "x");
  // Later synchronous reads hit what the elevator loaded.
  uint64_t hits = daemon.cache()->data_hits();
  ASSERT_TRUE(daemon.cache()->ReadChunk(*reader, 0, 0).ok());
  EXPECT_GT(daemon.cache()->data_hits(), hits);
}

TEST(LlapDaemonTest, ReadAheadOfResidentChunkIssuesNoElevatorTask) {
  MemFileSystem fs;
  LlapDaemon daemon(&fs, Config{});
  LlapCacheProvider* cache = daemon.cache();
  WriteCofFile(&fs, "/t/f0", 50, "x");
  auto reader = cache->OpenReader("/t/f0");
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(cache->ReadChunk(*reader, 0, 0).ok());

  const int64_t issued = daemon.prefetches_issued();
  const uint64_t decodes = cache->data_decodes();
  const uint64_t hits = cache->data_hits();
  const uint64_t misses = cache->data_misses();
  EXPECT_FALSE(daemon.PrefetchChunk(*reader, 0, 0).valid())
      << "a resident chunk needs no read-ahead";
  EXPECT_EQ(daemon.prefetches_issued(), issued);
  EXPECT_EQ(cache->data_decodes(), decodes);
  EXPECT_EQ(cache->data_hits(), hits);
  EXPECT_EQ(cache->data_misses(), misses);

  // A missing chunk still rides the elevator.
  auto missing = daemon.PrefetchChunk(*reader, 0, 1);
  ASSERT_TRUE(missing.valid());
  ASSERT_TRUE(missing.get().ok());
  EXPECT_EQ(daemon.prefetches_issued(), issued + 1);
  EXPECT_EQ(cache->data_decodes(), decodes + 1);
}

TEST(LlapDaemonTest, ChunkPoisonedWhileResidentIsCaughtByItsConsumer) {
  MemFileSystem fs;
  LlapDaemon daemon(&fs, Config{});
  LlapCacheProvider* cache = daemon.cache();
  WriteCofFile(&fs, "/t/f0", 50, "x");
  auto reader = cache->OpenReader("/t/f0");
  ASSERT_TRUE(reader.ok());
  auto first = cache->ReadChunk(*reader, 0, 0);
  ASSERT_TRUE(first.ok());
  const std::vector<int64_t> clean = (*first)->i64_data();
  ASSERT_EQ(cache->PoisonChunks(1), 1u);
  const uint64_t decodes = cache->data_decodes();

  // The read-ahead skips the resident chunk without validating it ...
  EXPECT_FALSE(daemon.PrefetchChunk(*reader, 0, 0).valid());
  EXPECT_EQ(cache->poison_detected(), 0u);
  // ... and the read that consumes it catches the poisoning and re-decodes.
  auto consumed = cache->ReadChunk(*reader, 0, 0);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(cache->poison_detected(), 1u);
  EXPECT_EQ(cache->data_decodes(), decodes + 1);
  EXPECT_EQ((*consumed)->i64_data(), clean);
}

TEST(LlapCacheTest, ColdChunkDecodesOnceUnderConcurrency) {
  // Single-flight: N threads racing on one cold chunk must produce exactly
  // one decode and one recorded miss; everyone else scores a hit. This is
  // what keeps the parallel scan's read-ahead from duplicating I/O work.
  MemFileSystem fs;
  LlapCacheProvider cache(&fs, Config{});
  WriteCofFile(&fs, "/t/f0", 200, "x");
  auto reader = cache.OpenReader("/t/f0");
  ASSERT_TRUE(reader.ok());

  constexpr int kThreads = 8;
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  std::vector<ColumnVectorPtr> seen(kThreads);
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      go.fetch_add(1);
      while (go.load() < kThreads) {}  // line up at the gate
      auto chunk = cache.ReadChunk(*reader, 0, 0);
      if (chunk.ok()) seen[t] = *chunk;
      else errors.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(cache.data_decodes(), 1u) << "cold chunk must decode exactly once";
  EXPECT_EQ(cache.data_misses(), 1u);
  EXPECT_EQ(cache.data_hits(), static_cast<uint64_t>(kThreads - 1));
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(seen[t], seen[0]) << "all threads share the decoded chunk";
}

}  // namespace
}  // namespace hive
