#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_governor.h"
#include "exec/spill.h"
#include "fs/fault_injection.h"
#include "fs/mem_filesystem.h"
#include "server/hive_server.h"

namespace hive {
namespace {

// --- memory governor unit tests ---

TEST(MemoryGovernorTest, ReserveDenyRelease) {
  MemoryGovernor gov(1000);
  EXPECT_TRUE(gov.TryReserve(600));
  EXPECT_EQ(gov.reserved(), 600);
  EXPECT_FALSE(gov.TryReserve(600)) << "over-limit reserve must be denied";
  EXPECT_EQ(gov.denied(), 1);
  EXPECT_EQ(gov.reserved(), 600) << "a denied reserve must not take bytes";
  gov.Release(600);
  EXPECT_EQ(gov.reserved(), 0);
  EXPECT_TRUE(gov.TryReserve(1000));
}

TEST(MemoryGovernorTest, UnlimitedAdmitsEverything) {
  MemoryGovernor gov(0);
  EXPECT_TRUE(gov.TryReserve(int64_t{1} << 60));
  EXPECT_EQ(gov.denied(), 0);
}

TEST(QueryMemoryTest, QueryCapChecksBeforeGovernor) {
  MemoryGovernor gov(1000);
  QueryMemory q(&gov, 500);
  EXPECT_TRUE(q.bounded());
  EXPECT_TRUE(q.TryGrow(400));
  EXPECT_FALSE(q.TryGrow(200)) << "query cap is 500";
  EXPECT_EQ(q.used(), 400);
  EXPECT_EQ(gov.reserved(), 400);
}

TEST(QueryMemoryTest, GovernorDeniesAcrossQueries) {
  MemoryGovernor gov(1000);
  QueryMemory a(&gov, 0);
  ASSERT_TRUE(a.TryGrow(700));
  {
    QueryMemory b(&gov, 0);
    EXPECT_FALSE(b.TryGrow(400)) << "process budget is shared";
    EXPECT_TRUE(b.TryGrow(300));
  }
  // b's destructor released its share.
  EXPECT_EQ(gov.reserved(), 700);
  QueryMemory c(&gov, 0);
  EXPECT_TRUE(c.TryGrow(300));
}

TEST(MemoryReservationTest, GrowToIsAbsoluteAndDenialKeepsSize) {
  MemoryGovernor gov(1000);
  QueryMemory q(&gov, 0);
  MemoryReservation r(&q);
  EXPECT_TRUE(r.GrowTo(400));
  EXPECT_EQ(r.held(), 400);
  EXPECT_TRUE(r.GrowTo(100)) << "GrowTo may shrink";
  EXPECT_EQ(q.used(), 100);
  EXPECT_FALSE(r.GrowTo(2000));
  EXPECT_EQ(r.held(), 100) << "a denied grow keeps the previous size";
  r.Release();
  EXPECT_EQ(q.used(), 0);
}

TEST(MemoryReservationTest, NullMemoryAdmitsEverything) {
  MemoryReservation r;
  EXPECT_TRUE(r.GrowTo(int64_t{1} << 60));
}

// --- spill stream format unit tests ---

/// Bare context: a MemFileSystem, a default config, nothing else.
struct SpillHarness {
  MemFileSystem mem;
  Config config;
  ExecContext ctx;
  SpillHarness() {
    ctx.fs = &mem;
    ctx.config = &config;
    ctx.spill_dir = "/spill";
  }
};

TEST(SpillStreamTest, RecordsRoundTripAcrossChunks) {
  SpillHarness h;
  SpillChunkWriter writer(&h.ctx, "/spill/t");
  // Large records force several chunk files (threshold is 256 KiB).
  std::vector<std::string> records;
  for (int i = 0; i < 5; ++i)
    records.push_back(std::string(200 * 1024, static_cast<char>('a' + i)) +
                      std::to_string(i));
  for (const std::string& r : records) ASSERT_TRUE(writer.AppendRecord(r).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_GT(writer.num_chunks(), 1) << "test meant to span multiple chunks";
  EXPECT_EQ(writer.num_records(), records.size());

  SpillChunkReader reader(&h.ctx, writer.prefix(), writer.num_chunks());
  std::string record;
  for (const std::string& want : records) {
    auto more = reader.NextRecord(&record);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(*more);
    EXPECT_EQ(record, want);
  }
  auto end = reader.NextRecord(&record);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(*end);
}

TEST(SpillStreamTest, CorruptChunkIsTransientCorruption) {
  SpillHarness h;
  SpillChunkWriter writer(&h.ctx, "/spill/c");
  ASSERT_TRUE(writer.AppendRecord("the payload under test").ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_EQ(writer.num_chunks(), 1);

  std::string path = writer.prefix() + ".c0";
  auto data = h.mem.ReadFile(path);
  ASSERT_TRUE(data.ok());
  std::string bad = *data;
  bad[bad.size() / 2] ^= 0x40;  // flip one payload bit behind the checksum
  ASSERT_TRUE(h.mem.WriteFile(path, bad).ok());

  // Retries re-read the same corrupt bytes, so the (transient) corruption
  // eventually surfaces after the attempt budget.
  SpillChunkReader reader(&h.ctx, writer.prefix(), writer.num_chunks());
  std::string record;
  auto result = reader.NextRecord(&record);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTransient()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("checksum"), std::string::npos)
      << result.status().ToString();
}

TEST(SpillStreamTest, BatchWriterRoundTripsRowsAndSeqs) {
  SpillHarness h;
  Schema schema;
  schema.AddField("k", DataType::Bigint());
  schema.AddField("s", DataType::String());
  RowBatch dense(schema);
  for (int i = 0; i < 2500; ++i) {
    dense.column(0)->AppendValue(Value::Bigint(i * 3));
    dense.column(1)->AppendValue(Value::String("row-" + std::to_string(i)));
  }
  dense.set_num_rows(2500);

  SpillBatchWriter writer(&h.ctx, "/spill/b", schema, /*with_seqs=*/true);
  for (size_t i = 0; i < 2500; ++i)
    ASSERT_TRUE(writer.AppendBatchRow(dense, i, 1000 + i).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.num_rows(), 2500u);

  SpillBatchReader reader(&h.ctx, writer);
  RowBatch batch(schema);
  std::vector<uint64_t> seqs;
  size_t row = 0;
  for (;;) {
    auto more = reader.NextBatch(&batch, &seqs);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_EQ(seqs.size(), batch.num_rows());
    for (size_t i = 0; i < batch.num_rows(); ++i, ++row) {
      EXPECT_EQ(batch.column(0)->GetValue(i).AsInt64(),
                static_cast<int64_t>(row * 3));
      EXPECT_EQ(batch.column(1)->GetValue(i).str(), "row-" + std::to_string(row));
      EXPECT_EQ(seqs[i], 1000 + row);
    }
  }
  EXPECT_EQ(row, 2500u);
}

TEST(SpillPartitionTest, DepthConsumesFreshHashBytes) {
  // Rows colliding at depth 0 (same top byte) must still split at depth 1.
  uint64_t a = 0xAB12000000000000ULL;
  uint64_t b = 0xAB34000000000000ULL;
  EXPECT_EQ(SpillPartitionOf(a, 0, 8), SpillPartitionOf(b, 0, 8));
  EXPECT_NE(SpillPartitionOf(a, 1, 251), SpillPartitionOf(b, 1, 251));
}

// --- end-to-end: a small warehouse whose working set dwarfs tiny budgets ---

constexpr int kFactRows = 4096;
constexpr int kDimRows = 512;

/// Scrambled-but-deterministic value column: distinct from the key order so
/// sorts actually permute rows.
int ValueOf(int i) { return (i * 7919 + 13) % kFactRows; }

std::vector<std::string> Rows(const QueryResult& result) {
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

/// One self-contained cluster: mem fs + fault decorator + server + data.
struct Cluster {
  MemFileSystem mem;
  FaultInjectingFileSystem faults;
  std::unique_ptr<HiveServer2> server;

  explicit Cluster(int executors, Config config = {}, uint64_t seed = 1)
      : faults(&mem, seed) {
    config.container_startup_us = 0;
    config.num_executors = executors;
    server = std::make_unique<HiveServer2>(&faults, config);
    faults.set_clock(server->clock());
    Connection loader = server->Connect();
    Load(loader);
  }

  void Load(Connection& session) {
    ASSERT_TRUE(session
                    .Execute("CREATE TABLE fact (fk INT, v INT, g INT, "
                             "pad STRING)")
                    .ok());
    ASSERT_TRUE(
        session.Execute("CREATE TABLE dim (dk INT, name STRING)").ok());
    for (int base = 0; base < kFactRows; base += 256) {
      std::string insert = "INSERT INTO fact VALUES ";
      for (int i = 0; i < 256; ++i) {
        int k = base + i;
        insert += (i ? ", (" : "(") + std::to_string(k) + ", " +
                  std::to_string(ValueOf(k)) + ", " + std::to_string(k % 97) +
                  ", 'pad-" + std::to_string(k) + "-abcdefghijklmnop')";
      }
      ASSERT_TRUE(session.Execute(insert).ok());
    }
    for (int base = 0; base < kDimRows; base += 256) {
      std::string insert = "INSERT INTO dim VALUES ";
      for (int i = 0; i < 256; ++i) {
        int k = base + i;
        insert += (i ? ", (" : "(") + std::to_string(k * 7) + ", 'name-" +
                  std::to_string(k) + "')";
      }
      ASSERT_TRUE(session.Execute(insert).ok());
    }
  }

  Connection NewSession(int64_t query_budget) {
    Connection session = server->Connect();
    session.config().result_cache_enabled = false;
    session.config().query_memory_limit_bytes = query_budget;
    return session;
  }

  int64_t Metric(const char* name) { return server->metrics()->Value(name); }
};

/// The queries the budget matrix sweeps: each blocking operator family gets
/// at least one query whose state exceeds the small budgets.
const std::vector<std::pair<std::string, std::string>>& MatrixQueries() {
  static const std::vector<std::pair<std::string, std::string>> queries = {
      // Grace hash join: the fact table is the build side.
      {"join",
       "SELECT name, v FROM dim JOIN fact ON dk = fk ORDER BY v, fk LIMIT 40"},
      // Left outer keeps unmatched probe rows through the spill path.
      {"left_join",
       "SELECT fk, name FROM fact LEFT JOIN dim ON fk = dk "
       "ORDER BY fk LIMIT 60"},
      // Wide aggregation: one group per fact key.
      {"agg", "SELECT fk, SUM(v) AS s FROM fact GROUP BY fk ORDER BY fk"},
      // External merge sort: full-output ORDER BY, no LIMIT.
      {"sort", "SELECT v, fk FROM fact ORDER BY v, fk"},
      // The acceptance shape: join + aggregate + sort in one plan.
      {"join_agg_sort",
       "SELECT g, COUNT(*) AS c, SUM(v) AS s, MIN(name) AS m "
       "FROM dim JOIN fact ON dk = fk GROUP BY g ORDER BY s DESC, g"},
      // Grace probes that evaluate a residual over both inputs: an inner
      // join, and a semi join whose build side is the fact table too.
      {"residual_join",
       "SELECT name, v FROM dim JOIN fact ON dk = fk AND v > dk "
       "ORDER BY v, fk LIMIT 40"},
      {"residual_semi_join",
       "SELECT dk, name FROM dim WHERE EXISTS "
       "(SELECT 1 FROM fact WHERE fk = dk AND v > dk) ORDER BY dk"},
      // Aggregate states of every shape a spilled partial carries: DISTINCT
      // value sets, AVG's sum and count, STRING minima and maxima, a DOUBLE
      // sum (quarters, exact in any order) and a NULL key.
      {"agg_distinct",
       "SELECT g, COUNT(DISTINCT v) AS d, COUNT(*) AS c FROM fact GROUP BY g ORDER BY g"},
      {"agg_avg_string_min_max",
       "SELECT fk % 1000 AS k, AVG(v) AS a, MIN(pad) AS lo, MAX(pad) AS hi "
       "FROM fact GROUP BY fk % 1000 ORDER BY k"},
      {"agg_double_sum",
       "SELECT fk % 1500 AS k, SUM(CAST(v AS DOUBLE) / 4) AS s FROM fact "
       "GROUP BY fk % 1500 ORDER BY k"},
      {"agg_null_key",
       "SELECT CASE WHEN g % 5 = 0 THEN NULL ELSE fk % 1000 END AS k, COUNT(*) AS c, "
       "SUM(v) AS s FROM fact GROUP BY CASE WHEN g % 5 = 0 THEN NULL ELSE fk % 1000 END "
       "ORDER BY k"},
  };
  return queries;
}

class SpillEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    exec1_ = new Cluster(1);
    exec8_ = new Cluster(8);
    baseline_ = new std::map<std::string, std::vector<std::string>>();
    Connection session = exec1_->NewSession(0);
    for (const auto& [name, sql] : MatrixQueries()) {
      auto result = session.Execute(sql);
      ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
      (*baseline_)[name] = Rows(*result);
    }
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete exec8_;
    delete exec1_;
  }

  void TearDown() override {
    for (Cluster* c : {exec1_, exec8_}) {
      c->faults.ClearRules();
      c->faults.ResetSchedule();
      c->faults.Reseed(1);
      if (c->server->llap()) c->server->llap()->cache()->Clear();
    }
  }

  /// Runs the matrix on `cluster` under `budget` and asserts byte-identity
  /// with the unlimited single-executor baseline.
  void RunMatrix(Cluster* cluster, int64_t budget) {
    Connection session = cluster->NewSession(budget);
    for (const auto& [name, sql] : MatrixQueries()) {
      SCOPED_TRACE(name + " @budget=" + std::to_string(budget));
      auto result = session.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Rows(*result), baseline_->at(name)) << "diverged from baseline";
    }
  }

  static Cluster* exec1_;
  static Cluster* exec8_;
  /// The unlimited single-executor rows of each matrix query, by name.
  static std::map<std::string, std::vector<std::string>>* baseline_;
};

Cluster* SpillEndToEndTest::exec1_ = nullptr;
Cluster* SpillEndToEndTest::exec8_ = nullptr;
std::map<std::string, std::vector<std::string>>* SpillEndToEndTest::baseline_ = nullptr;

TEST_F(SpillEndToEndTest, BudgetLadderIsByteIdenticalAtBothExecutorCounts) {
  // 64 KiB is roughly 1/4 of the fact working set; 16 KiB roughly 1/16.
  int64_t spilled_before = exec1_->Metric("exec.spill.bytes");
  for (Cluster* cluster : {exec1_, exec8_}) {
    for (int64_t budget : {int64_t{0}, int64_t{64 * 1024}, int64_t{16 * 1024}}) {
      RunMatrix(cluster, budget);
    }
  }
  EXPECT_GT(exec1_->Metric("exec.spill.bytes"), spilled_before)
      << "the small budgets never spilled; the ladder tested nothing";
  EXPECT_GT(exec1_->Metric("exec.spill.partitions"), 0);
  EXPECT_GT(exec1_->Metric("exec.spill.merge_passes"), 0);
  EXPECT_GT(exec1_->Metric("exec.spill.denied_reservations"), 0);
  EXPECT_GT(exec8_->Metric("exec.spill.bytes"), 0)
      << "parallel operators never spilled";
}

TEST_F(SpillEndToEndTest, SpillSurvivesInjectedFaultsByteIdentical) {
  // Acceptance: working set >= 4x budget, 1 and 8 executors, three fault
  // seeds injecting transient read errors and corruption into the spill
  // directory itself. Results must match the unlimited fault-free baseline.
  for (Cluster* cluster : {exec1_, exec8_}) {
    for (uint64_t seed : {uint64_t{3}, uint64_t{5}, uint64_t{9}}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      cluster->faults.ClearRules();
      cluster->faults.ResetSchedule();
      cluster->faults.Reseed(seed);
      FaultRule rule;
      rule.path_prefix = "/tmp/spill";  // the default spill namespace
      rule.read_error_rate = 0.2;
      rule.max_read_errors_per_site = 1;
      rule.corrupt_rate = 0.1;
      rule.max_corruptions_per_site = 1;
      cluster->faults.AddRule(rule);
      int64_t spilled_before = cluster->Metric("exec.spill.bytes");
      RunMatrix(cluster, 16 * 1024);
      EXPECT_GT(cluster->Metric("exec.spill.bytes"), spilled_before)
          << "faulted run never spilled";
    }
  }
}

TEST_F(SpillEndToEndTest, SpillDisabledFailsCleanlyWithResourceExhausted) {
  Connection session = exec1_->NewSession(16 * 1024);
  session.config().spill_enabled = false;
  for (const auto& [name, sql] : MatrixQueries()) {
    SCOPED_TRACE(name);
    auto result = session.Execute(sql);
    ASSERT_FALSE(result.ok()) << "a 16 KiB budget cannot fit this working set";
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("query.memory.limit.bytes"),
              std::string::npos)
        << "the status must name the knob: " << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("spilling is unavailable"),
              std::string::npos)
        << result.status().ToString();
  }
  // The cluster stays healthy: the same queries succeed right after.
  RunMatrix(exec1_, 16 * 1024);
}

TEST_F(SpillEndToEndTest, ProcessGovernorBoundsConcurrentStateAndRecovers) {
  // Governor-level budget (exec.memory.limit.bytes) instead of a per-query
  // cap: the same spill ladder must hold.
  Config config;
  config.exec_memory_limit_bytes = 48 * 1024;
  Cluster governed(4, config);
  Connection session = governed.NewSession(0);
  for (const auto& [name, sql] : MatrixQueries()) {
    SCOPED_TRACE(name);
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Rows(*result), baseline_->at(name));
  }
  EXPECT_GT(governed.Metric("exec.spill.bytes"), 0);
  EXPECT_EQ(governed.server->memory_governor()->reserved(), 0)
      << "queries must hand every reserved byte back";
}

TEST_F(SpillEndToEndTest, TopKSortNeverSpillsUnderTinyBudget) {
  // ORDER BY ... LIMIT keeps a bounded heap: a budget far too small for the
  // full sort must still pass without touching the spill path.
  Connection session = exec1_->NewSession(16 * 1024);
  int64_t spilled_before = exec1_->Metric("exec.spill.bytes");
  int64_t denied_before = exec1_->Metric("exec.spill.denied_reservations");
  auto result = session.Execute("SELECT v, fk FROM fact ORDER BY v, fk LIMIT 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 10u);
  // Prefix of the full-sort baseline.
  std::vector<std::string> got = Rows(*result);
  const std::vector<std::string>& sorted = baseline_->at("sort");
  ASSERT_GE(sorted.size(), got.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], sorted[i]) << "row " << i;
  EXPECT_EQ(exec1_->Metric("exec.spill.bytes"), spilled_before)
      << "top-K must not materialize or spill";
  EXPECT_EQ(exec1_->Metric("exec.spill.denied_reservations"), denied_before)
      << "a 10-row heap cannot plausibly exhaust 16 KiB";
}

TEST_F(SpillEndToEndTest, SetOpReportsRealFootprintAndFailsCleanly) {
  // INTERSECT cannot spill; under a budget smaller than its digest sets it
  // must fail with the budget status, not a fabricated-estimate OOM pass.
  Connection tiny = exec1_->NewSession(4 * 1024);
  auto denied = tiny.Execute("SELECT fk FROM fact INTERSECT SELECT dk FROM dim");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted)
      << denied.status().ToString();
  EXPECT_NE(denied.status().ToString().find("set operation"), std::string::npos)
      << denied.status().ToString();

  Connection roomy = exec1_->NewSession(0);
  auto ok = roomy.Execute("SELECT fk FROM fact INTERSECT SELECT dk FROM dim");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  // dim keys are 7k for k in [0, 512), all below kFactRows: every dim key
  // appears on the fact side, so the intersection is the whole dim key set.
  EXPECT_EQ(ok->rows.size(), static_cast<size_t>(kDimRows));
}

TEST_F(SpillEndToEndTest, ExplainAnalyzeAnnotatesSpillingOperators) {
  // 97 groups of COUNT, SUM and a STRING MIN take ~15 KiB in the column
  // state, so the budget sits well below that for the aggregate to spill.
  Connection session = exec8_->NewSession(8 * 1024);
  auto analyzed = session.Execute("EXPLAIN ANALYZE SELECT g, COUNT(*) AS c, SUM(v) AS s, MIN(name) AS m "
      "FROM dim JOIN fact ON dk = fk GROUP BY g ORDER BY s DESC, g");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string all;
  for (const auto& row : analyzed->rows) all += row[0].ToString() + "\n";
  EXPECT_NE(all.find("spill=grace"), std::string::npos)
      << "join spill missing from the profile:\n" << all;
  EXPECT_NE(all.find("spill=agg"), std::string::npos)
      << "aggregate spill missing from the profile:\n" << all;

  auto sorted = session.Execute("EXPLAIN ANALYZE SELECT v, fk FROM fact ORDER BY v, fk");
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  all.clear();
  for (const auto& row : sorted->rows) all += row[0].ToString() + "\n";
  EXPECT_NE(all.find("spill=sort"), std::string::npos)
      << "sort spill missing from the profile:\n" << all;
}

TEST_F(SpillEndToEndTest, SpillDirectoryIsTornDownAfterQueries) {
  Connection session = exec1_->NewSession(16 * 1024);
  auto result = session.Execute("SELECT v, fk FROM fact ORDER BY v, fk");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto leftovers = exec1_->mem.ListDir("/tmp/spill");
  if (leftovers.ok()) {
    EXPECT_TRUE(leftovers->empty())
        << leftovers->size() << " spill entries leaked, first: "
        << (*leftovers)[0].path;
  }
}

}  // namespace
}  // namespace hive
