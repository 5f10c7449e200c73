#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/exec_context.h"
#include "fs/mem_filesystem.h"
#include "server/hive_server.h"
#include "server/workload_loader.h"

namespace hive {
namespace {

/// Morsel-driven intra-query parallelism: the engine must return the same
/// result at any executor count — parallel scans use an ordered (by-morsel)
/// gather and partial aggregates merge in first-seen input order, so the
/// output is not merely set-equal but identical row for row.
class ParallelExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs_ = new MemFileSystem();
    Config config;
    config.container_startup_us = 0;
    config.num_executors = 8;  // pool size; sessions scale workers below it
    server_ = new HiveServer2(fs_, config);
    Connection loader = server_->Connect();
    TpcdsOptions options;
    options.days = 6;  // keep the suite fast
    ASSERT_TRUE(LoadTpcds(loader, options).ok());
  }
  static void TearDownTestSuite() {
    delete server_;
    delete fs_;
  }

  /// Session configured for a given worker count (0 = serial engine).
  Connection SessionFor(int workers) {
    Connection session = server_->Connect();
    session.config().result_cache_enabled = false;
    if (workers == 0) {
      session.config().parallel_scan_enabled = false;
    } else {
      session.config().num_executors = workers;
    }
    return session;
  }

  static std::vector<std::string> Rows(const QueryResult& result) {
    std::vector<std::string> out;
    out.reserve(result.rows.size());
    for (const auto& row : result.rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.ToString();
        line += '|';
      }
      out.push_back(std::move(line));
    }
    return out;
  }

  static MemFileSystem* fs_;
  static HiveServer2* server_;
};

MemFileSystem* ParallelExecTest::fs_ = nullptr;
HiveServer2* ParallelExecTest::server_ = nullptr;

TEST_F(ParallelExecTest, TpcdsIdenticalAcrossExecutorCounts) {
  Connection serial = SessionFor(0);
  for (const BenchQuery& q : TpcdsQueries()) {
    auto baseline = serial.Execute(q.sql);
    ASSERT_TRUE(baseline.ok()) << q.name << ": " << baseline.status().ToString();
    std::vector<std::string> expected = Rows(*baseline);
    for (int workers : {1, 2, 8}) {
      Connection session = SessionFor(workers);
      auto result = session.Execute(q.sql);
      ASSERT_TRUE(result.ok())
          << q.name << " @" << workers << ": " << result.status().ToString();
      EXPECT_EQ(Rows(*result), expected)
          << q.name << " differs at " << workers << " executors";
    }
  }
}

TEST_F(ParallelExecTest, UnorderedScanPreservesSerialRowOrder) {
  // No ORDER BY: the ordered morsel gather must still reproduce the serial
  // engine's row order exactly, at every worker count.
  const std::string sql =
      "SELECT ss_item_sk, ss_quantity, ss_sales_price FROM store_sales "
      "WHERE ss_quantity > 10";
  Connection serial = SessionFor(0);
  auto baseline = serial.Execute(sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->rows.size(), 0u);
  for (int workers : {1, 2, 8}) {
    Connection session = SessionFor(workers);
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Rows(*result), Rows(*baseline))
        << "row order diverged at " << workers << " executors";
  }
}

TEST_F(ParallelExecTest, ScanPipelinesFanOutAcrossExecutors) {
  // A parallel aggregation over the partitioned fact table must actually
  // fan worker fragments out to the LLAP executor pool (the coordinator
  // fragment alone would leave the counter at +1).
  Connection session = SessionFor(8);
  int64_t before = server_->llap()->fragments_submitted();
  auto result = session.Execute("SELECT ss_store_sk, COUNT(*), SUM(ss_quantity) FROM store_sales "
      "GROUP BY ss_store_sk");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(server_->llap()->fragments_submitted(), before + 1)
      << "expected intra-query worker fragments beyond the coordinator";
}

TEST(ThreadPoolTest, SubmitOrRunFallsBackInlineWhenSaturated) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> blocked{0};
  // Saturate both pool threads.
  for (int i = 0; i < 2; ++i)
    pool.Submit([&] {
      blocked.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  while (blocked.load() < 2) std::this_thread::yield();

  // With no free executor the task must run inline on the caller — this is
  // what makes nested coordinator->worker fan-out deadlock-free.
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.SubmitOrRun([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();

  // An idle pool runs SubmitOrRun tasks on pool threads, not the caller.
  ThreadPool idle(2);
  std::atomic<bool> done{false};
  std::thread::id async_id;
  idle.SubmitOrRun([&] {
    async_id = std::this_thread::get_id();
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_NE(async_id, caller);
  idle.Wait();
}

TEST(RuntimeStatsTest, RecordAccumulatesAcrossWorkers) {
  // Parallel workers each record their partial row counts under the same
  // operator digest; totals must be the sum, not the last writer's value.
  RuntimeStats stats;
  stats.Record("scan-digest", 5);
  stats.Record("scan-digest", 7);
  stats.Record("filter-digest", 3);
  MutexLock lock(&stats.mu);
  EXPECT_EQ(stats.row_counts["scan-digest"], 12);
  EXPECT_EQ(stats.row_counts["filter-digest"], 3);
}

}  // namespace
}  // namespace hive
