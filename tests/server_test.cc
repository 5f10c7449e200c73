#include <gtest/gtest.h>

#include <thread>

#include "fs/mem_filesystem.h"
#include "server/hive_server.h"

namespace hive {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Config config;
    config.container_startup_us = 0;  // keep unit tests latency-free
    server_ = std::make_unique<HiveServer2>(&fs_, config);
    session_ = server_->Connect();
  }

  QueryResult Run(const std::string& sql) {
    auto r = session_.Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sql;
    return r.ok() ? *r : QueryResult{};
  }

  Status RunScript(const std::string& sql) {
    return session_.ExecuteScript(sql).status();
  }

  MemFileSystem fs_;
  std::unique_ptr<HiveServer2> server_;
  Connection session_;
};

TEST_F(ServerTest, CreateInsertSelectRoundTrip) {
  Run("CREATE TABLE t (a INT, b STRING, c DECIMAL(7,2))");
  QueryResult insert = Run("INSERT INTO t VALUES (1, 'x', 1.50), (2, 'y', 2.25)");
  EXPECT_EQ(insert.rows_affected, 2);
  QueryResult select = Run("SELECT a, b, c FROM t ORDER BY a");
  ASSERT_EQ(select.rows.size(), 2u);
  EXPECT_EQ(select.rows[0][1].str(), "x");
  EXPECT_EQ(select.rows[1][2].ToString(), "2.25");
}

TEST_F(ServerTest, InsertSelectAndCtas) {
  Run("CREATE TABLE src (a INT)");
  Run("INSERT INTO src VALUES (1), (2), (3)");
  Run("CREATE TABLE dst (a INT)");
  Run("INSERT INTO dst SELECT a * 10 FROM src WHERE a > 1");
  QueryResult rows = Run("SELECT a FROM dst ORDER BY a");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].i64(), 20);

  Run("CREATE TABLE ctas AS SELECT a FROM src WHERE a <> 2");
  QueryResult ctas = Run("SELECT COUNT(*) FROM ctas");
  EXPECT_EQ(ctas.rows[0][0].i64(), 2);
}

TEST_F(ServerTest, PartitionedInsertCreatesPartitions) {
  Run("CREATE TABLE sales (amt INT) PARTITIONED BY (day INT)");
  Run("INSERT INTO sales VALUES (10, 1), (20, 1), (30, 2)");
  auto parts = server_->catalog()->GetPartitions("default", "sales");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 2u);
  EXPECT_TRUE(fs_.Exists("/warehouse/default.db/sales/day=1"));
  QueryResult rows = Run("SELECT SUM(amt) FROM sales WHERE day = 1");
  EXPECT_EQ(rows.rows[0][0].i64(), 30);
}

TEST_F(ServerTest, UpdateAndDelete) {
  Run("CREATE TABLE t (id INT, v STRING)");
  Run("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  QueryResult update = Run("UPDATE t SET v = 'B' WHERE id = 2");
  EXPECT_EQ(update.rows_affected, 1);
  QueryResult rows = Run("SELECT v FROM t WHERE id = 2");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].str(), "B");

  QueryResult del = Run("DELETE FROM t WHERE id <> 2");
  EXPECT_EQ(del.rows_affected, 2);
  QueryResult remaining = Run("SELECT COUNT(*) FROM t");
  EXPECT_EQ(remaining.rows[0][0].i64(), 1);
}

TEST_F(ServerTest, MergeUpsert) {
  Run("CREATE TABLE target (id INT, v INT)");
  Run("CREATE TABLE source (id INT, v INT)");
  Run("INSERT INTO target VALUES (1, 10), (2, 20)");
  Run("INSERT INTO source VALUES (2, 200), (3, 300)");
  QueryResult merge = Run(
      "MERGE INTO target t USING source s ON t.id = s.id "
      "WHEN MATCHED THEN UPDATE SET v = s.v "
      "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.v)");
  EXPECT_EQ(merge.rows_affected, 2);
  QueryResult rows = Run("SELECT id, v FROM target ORDER BY id");
  ASSERT_EQ(rows.rows.size(), 3u);
  EXPECT_EQ(rows.rows[1][1].i64(), 200);
  EXPECT_EQ(rows.rows[2][1].i64(), 300);
}

TEST_F(ServerTest, MergeWithDelete) {
  Run("CREATE TABLE target (id INT, v INT)");
  Run("CREATE TABLE source (id INT, del INT)");
  Run("INSERT INTO target VALUES (1, 10), (2, 20)");
  Run("INSERT INTO source VALUES (1, 1), (2, 0)");
  Run("MERGE INTO target t USING source s ON t.id = s.id "
      "WHEN MATCHED AND s.del = 1 THEN DELETE");
  QueryResult rows = Run("SELECT id FROM target");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].i64(), 2);
}

TEST_F(ServerTest, SnapshotIsolationAcrossSessions) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1)");
  // A second writer's data becomes visible only after it commits; since
  // statements auto-commit, verify the monotonic view.
  Connection other = server_->Connect();
  auto r = other.Execute("INSERT INTO t VALUES (2)");
  ASSERT_TRUE(r.ok());
  QueryResult rows = Run("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rows.rows[0][0].i64(), 2);
}

TEST_F(ServerTest, ResultCacheHitsAndInvalidation) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2)");
  QueryResult first = Run("SELECT SUM(a) FROM t");
  EXPECT_FALSE(first.profile().counter(obs::qc::kFromResultCache));
  QueryResult second = Run("SELECT  SUM(a)  FROM t");  // same canonical AST
  EXPECT_TRUE(second.profile().counter(obs::qc::kFromResultCache));
  EXPECT_EQ(second.rows[0][0].i64(), 3);
  // A write invalidates (snapshot changed).
  Run("INSERT INTO t VALUES (10)");
  QueryResult third = Run("SELECT SUM(a) FROM t");
  EXPECT_FALSE(third.profile().counter(obs::qc::kFromResultCache));
  EXPECT_EQ(third.rows[0][0].i64(), 13);
}

TEST_F(ServerTest, NondeterministicQueriesNotCached) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1)");
  Run("SELECT a, RAND() FROM t");
  QueryResult second = Run("SELECT a, RAND() FROM t");
  EXPECT_FALSE(second.profile().counter(obs::qc::kFromResultCache));
}

TEST_F(ServerTest, ExplainShowsPlan) {
  Run("CREATE TABLE t (a INT, b INT)");
  Run("INSERT INTO t VALUES (1, 2)");
  QueryResult plan = Run("EXPLAIN SELECT a FROM t WHERE b > 1");
  ASSERT_FALSE(plan.rows.empty());
  std::string text;
  for (const auto& row : plan.rows) text += row[0].str() + "\n";
  EXPECT_NE(text.find("Scan"), std::string::npos);
}

TEST_F(ServerTest, SemiAndAntiResidualsStopAtAProbeRowsFirstMatch) {
  Run("CREATE TABLE t1 (k INT, s STRING)");
  Run("CREATE TABLE t2 (k INT, q INT)");
  Run("INSERT INTO t1 VALUES (1, 'x')");
  Run("INSERT INTO t2 VALUES (1, 20), (1, 5)");
  // t1's row has two candidates in build order: (1, 20) passes on q alone,
  // while (1, 5) reaches the cast, which fails on 'x'.
  const std::string cond =
      "t2.k = t1.k AND (t2.q > 10 OR CAST(t1.s AS DATE) IS NULL)";
  // Semi and anti joins stop at a probe row's first match...
  QueryResult exists =
      Run("SELECT COUNT(*) FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE " + cond + ")");
  ASSERT_EQ(exists.rows.size(), 1u);
  EXPECT_EQ(exists.rows[0][0].i64(), 1);
  QueryResult not_exists = Run(
      "SELECT COUNT(*) FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE " + cond + ")");
  ASSERT_EQ(not_exists.rows.size(), 1u);
  EXPECT_EQ(not_exists.rows[0][0].i64(), 0);
  // ...while an inner join evaluates every candidate.
  auto inner = session_.Execute("SELECT t1.k, t2.q FROM t1 JOIN t2 ON " + cond);
  ASSERT_FALSE(inner.ok());
  EXPECT_NE(inner.status().ToString().find("bad DATE: x"), std::string::npos)
      << inner.status().ToString();
}

TEST_F(ServerTest, ResidualJoinsOverABuildLargerThanABatch) {
  // t1 has k = 0..9 and t2 has q = 0..2999, more rows than a vectorized
  // batch; g is the parity of k and of q. Row k has a q > k * 400 (the
  // first is k * 400 + 1, of its parity too) for k <= 7 only.
  Run("CREATE TABLE t1 (k INT, g INT)");
  Run("CREATE TABLE t2 (q INT, g INT)");
  std::string t1 = "INSERT INTO t1 VALUES (0, 0)";
  for (int k = 1; k < 10; ++k)
    t1 += ", (" + std::to_string(k) + ", " + std::to_string(k % 2) + ")";
  Run(t1);
  std::string t2 = "INSERT INTO t2 VALUES (0, 0)";
  for (int q = 1; q < 3000; ++q)
    t2 += ", (" + std::to_string(q) + ", " + std::to_string(q % 2) + ")";
  Run(t2);
  auto keys = [&](const std::string& sql) {
    std::vector<int64_t> out;
    for (const auto& row : Run(sql).rows) out.push_back(row[0].i64());
    return out;
  };
  const std::vector<int64_t> matched = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<int64_t> unmatched = {8, 9};
  // A small batch size also splits the semi and anti rounds into chunks.
  for (int batch_size : {1024, 3}) {
    session_.config().vector_batch_size = batch_size;
    // With no equi key every t2 row is a candidate of every t1 row; with
    // g the rows of one parity share their candidates.
    for (const std::string cond : {"t2.q > t1.k * 400", "t2.g = t1.g AND t2.q > t1.k * 400"}) {
      const std::string sub = "(SELECT 1 FROM t2 WHERE " + cond + ") ORDER BY k";
      EXPECT_EQ(keys("SELECT k FROM t1 WHERE EXISTS " + sub), matched) << cond;
      EXPECT_EQ(keys("SELECT k FROM t1 WHERE NOT EXISTS " + sub), unmatched) << cond;
    }
    // Inner and left joins evaluate every pair: sum over k <= 7 of
    // 2999 - k * 400 matches, plus t1's two unmatched rows for LEFT.
    const std::string on = " t2 ON t2.q > t1.k * 400";
    EXPECT_EQ(keys("SELECT COUNT(*) FROM t1 JOIN" + on), std::vector<int64_t>{12792});
    EXPECT_EQ(keys("SELECT COUNT(*) FROM t1 LEFT JOIN" + on), std::vector<int64_t>{12794});
  }
}

TEST_F(ServerTest, PartitionWhosePredicateFailsIsPruned) {
  Run("CREATE TABLE tp (v INT) PARTITIONED BY (p STRING)");
  Run("INSERT INTO tp VALUES (1, 'x'), (2, '2018-02-01'), (3, '2017-05-05')");
  // 'x' does not parse as a DATE: static pruning drops that partition
  // instead of failing the query.
  const std::string sql = "SELECT v FROM tp WHERE CAST(p AS DATE) > DATE '2018-01-01'";
  QueryResult rows = Run(sql);
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].i64(), 2);
  QueryResult plan = Run("EXPLAIN " + sql);
  std::string text;
  for (const auto& row : plan.rows) text += row[0].str() + "\n";
  EXPECT_NE(text.find("partitions: 1"), std::string::npos) << text;
}

TEST_F(ServerTest, CastThatCannotParseIsNotFoldedAndFailsAtRunTime) {
  Run("CREATE TABLE t1 (k INT)");
  Run("INSERT INTO t1 VALUES (1)");
  auto result = session_.Execute("SELECT CAST('x' AS DATE) FROM t1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("bad DATE: x"), std::string::npos)
      << result.status().ToString();
}

TEST_F(ServerTest, InsertValuesEvaluatesEachExpression) {
  Run("CREATE TABLE tv (a INT, b INT)");
  Run("INSERT INTO tv VALUES (-3, 1 + 2), (CAST('7' AS INT), NULL)");
  QueryResult rows = Run("SELECT a, b FROM tv ORDER BY a");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].i64(), -3);
  EXPECT_EQ(rows.rows[0][1].i64(), 3);
  EXPECT_EQ(rows.rows[1][0].i64(), 7);
  EXPECT_TRUE(rows.rows[1][1].is_null());
}

TEST_F(ServerTest, MaterializedViewRewriteFullContainment) {
  Run("CREATE TABLE f (k INT, grp INT, v INT)");
  Run("CREATE TABLE d (k INT, year INT)");
  Run("INSERT INTO d VALUES (1, 2016), (2, 2017), (3, 2018), (4, 2019)");
  std::string values = "INSERT INTO f VALUES ";
  for (int i = 0; i < 40; ++i) {
    if (i) values += ", ";
    values += "(" + std::to_string(i % 4 + 1) + ", " + std::to_string(i % 3) + ", " +
              std::to_string(i) + ")";
  }
  Run(values);
  Run("CREATE MATERIALIZED VIEW mv AS "
      "SELECT year, grp, SUM(v) AS sum_v FROM f, d WHERE f.k = d.k AND year > 2017 "
      "GROUP BY year, grp");
  // Fully contained query (Figure 4b): stricter filter, fewer keys.
  QueryResult rewritten = Run(
      "SELECT SUM(v) FROM f, d WHERE f.k = d.k AND year = 2018 GROUP BY year");
  EXPECT_EQ(rewritten.profile().counter(obs::qc::kMvRewrites), 1) << "expected MV rewrite";
  // Cross-check against the MV-free answer.
  session_.config().materialized_view_rewriting_enabled = false;
  QueryResult direct = Run(
      "SELECT SUM(v) FROM f, d WHERE f.k = d.k AND year = 2018 GROUP BY year");
  EXPECT_EQ(direct.profile().counter(obs::qc::kMvRewrites), 0);
  ASSERT_EQ(rewritten.rows.size(), direct.rows.size());
  EXPECT_EQ(rewritten.rows[0][0].ToString(), direct.rows[0][0].ToString());
}

TEST_F(ServerTest, MaterializedViewRollUpCountsNoRowsAsZero) {
  Run("CREATE TABLE f (k INT, v INT)");
  Run("CREATE TABLE d (k INT, year INT)");
  Run("INSERT INTO d VALUES (1, 2016), (2, 2017), (3, 2018), (4, 2019)");
  Run("INSERT INTO f VALUES (1, 10), (2, 20), (3, 30), (4, 40), (3, 31)");
  Run("CREATE MATERIALIZED VIEW mv AS SELECT year, COUNT(*) AS n, SUM(v) AS s "
      "FROM f, d WHERE f.k = d.k AND year > 2017 GROUP BY year");
  // No view row has year 2030: COUNT rolls up as the SUM of no counts,
  // which must still read 0.
  QueryResult rewritten =
      Run("SELECT COUNT(*), SUM(v) FROM f, d WHERE f.k = d.k AND year = 2030");
  EXPECT_EQ(rewritten.profile().counter(obs::qc::kMvRewrites), 1) << "expected MV rewrite";
  ASSERT_EQ(rewritten.rows.size(), 1u);
  EXPECT_EQ(rewritten.rows[0][0].ToString(), "0");
  EXPECT_TRUE(rewritten.rows[0][1].is_null());
}

TEST_F(ServerTest, MaterializedViewPartialContainmentUnion) {
  Run("CREATE TABLE f (k INT, v INT)");
  Run("CREATE TABLE d (k INT, year INT)");
  Run("INSERT INTO d VALUES (1, 2016), (2, 2017), (3, 2018)");
  Run("INSERT INTO f VALUES (1, 10), (2, 20), (3, 30), (1, 11), (2, 21), (3, 31)");
  Run("CREATE MATERIALIZED VIEW mv2 AS "
      "SELECT year, SUM(v) AS sum_v FROM f, d WHERE f.k = d.k AND year > 2017 "
      "GROUP BY year");
  // Wider filter (Figure 4c): needs MV part UNION source part.
  QueryResult rewritten =
      Run("SELECT year, SUM(v) FROM f, d WHERE f.k = d.k AND year > 2016 GROUP BY year");
  EXPECT_EQ(rewritten.profile().counter(obs::qc::kMvRewrites), 1);
  session_.config().materialized_view_rewriting_enabled = false;
  QueryResult direct =
      Run("SELECT year, SUM(v) FROM f, d WHERE f.k = d.k AND year > 2016 GROUP BY year");
  ASSERT_EQ(rewritten.rows.size(), direct.rows.size());
  int64_t total_rewritten = 0, total_direct = 0;
  for (const auto& row : rewritten.rows) total_rewritten += row[1].i64();
  for (const auto& row : direct.rows) total_direct += row[1].i64();
  EXPECT_EQ(total_rewritten, total_direct);
}

TEST_F(ServerTest, StaleMaterializedViewNotUsedUntilRebuilt) {
  session_.config().result_cache_enabled = false;  // isolate MV behaviour
  Run("CREATE TABLE f (k INT, v INT)");
  Run("INSERT INTO f VALUES (1, 10)");
  Run("CREATE MATERIALIZED VIEW mv3 AS SELECT k, SUM(v) AS s FROM f GROUP BY k");
  QueryResult hit = Run("SELECT k, SUM(v) FROM f GROUP BY k");
  EXPECT_EQ(hit.profile().counter(obs::qc::kMvRewrites), 1);
  // New data makes the view stale: rewriting must stop.
  Run("INSERT INTO f VALUES (1, 5)");
  QueryResult miss = Run("SELECT k, SUM(v) FROM f GROUP BY k");
  EXPECT_EQ(miss.profile().counter(obs::qc::kMvRewrites), 0);
  EXPECT_EQ(miss.rows[0][1].i64(), 15);
  // Rebuild refreshes the snapshot; rewriting resumes with correct data.
  Run("ALTER MATERIALIZED VIEW mv3 REBUILD");
  QueryResult again = Run("SELECT k, SUM(v) FROM f GROUP BY k");
  EXPECT_EQ(again.profile().counter(obs::qc::kMvRewrites), 1);
  EXPECT_EQ(again.rows[0][1].i64(), 15);
}

TEST_F(ServerTest, IncrementalMvRebuildForSpjViews) {
  Run("CREATE TABLE f (k INT, v INT)");
  Run("INSERT INTO f VALUES (1, 10), (2, 20)");
  Run("CREATE MATERIALIZED VIEW mv4 AS SELECT k, v FROM f WHERE v > 5");
  Run("INSERT INTO f VALUES (3, 30)");
  QueryResult rebuild = Run("ALTER MATERIALIZED VIEW mv4 REBUILD");
  // Incremental: only the new row flows in.
  EXPECT_EQ(rebuild.rows_affected, 1);
  session_.config().materialized_view_rewriting_enabled = false;
  QueryResult rows = Run("SELECT COUNT(*) FROM mv4");
  EXPECT_EQ(rows.rows[0][0].i64(), 3);
}

TEST_F(ServerTest, FullMvRebuildAfterUpdate) {
  Run("CREATE TABLE f (k INT, v INT)");
  Run("INSERT INTO f VALUES (1, 10), (2, 20)");
  Run("CREATE MATERIALIZED VIEW mv5 AS SELECT k, SUM(v) AS s FROM f GROUP BY k");
  Run("UPDATE f SET v = 100 WHERE k = 1");
  Run("ALTER MATERIALIZED VIEW mv5 REBUILD");
  session_.config().materialized_view_rewriting_enabled = false;
  QueryResult rows = Run("SELECT s FROM mv5 WHERE k = 1");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].i64(), 100);
}

TEST_F(ServerTest, DroidFederationPushdown) {
  Run("CREATE EXTERNAL TABLE events (d1 STRING, m1 DOUBLE, yr INT) "
      "STORED BY 'droid' TBLPROPERTIES ('droid.datasource' = 'events')");
  Run("INSERT INTO events VALUES ('a', 1.5, 2017), ('b', 2.5, 2017), "
      "('a', 3.0, 2018), ('c', 4.0, 2019)");
  EXPECT_EQ(server_->droid()->NumRows("events"), 4u);
  // Figure 6-style query: filter + groupBy + sort pushed to the store.
  QueryResult rows = Run(
      "SELECT d1, SUM(m1) AS s FROM events WHERE yr >= 2017 AND yr <= 2018 "
      "GROUP BY d1 ORDER BY s DESC LIMIT 10");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0].str(), "a");
  EXPECT_DOUBLE_EQ(rows.rows[0][1].f64(), 4.5);
  // The plan must contain a federated scan (pushed query), no local join.
  QueryResult plan = Run(
      "EXPLAIN SELECT d1, SUM(m1) AS s FROM events WHERE yr >= 2017 AND yr <= 2018 "
      "GROUP BY d1");
  std::string text;
  for (const auto& row : plan.rows) text += row[0].str() + "\n";
  EXPECT_EQ(text.find("Aggregate"), std::string::npos)
      << "aggregate should be pushed into droid:\n" << text;
}

TEST_F(ServerTest, DroidSchemaInference) {
  Schema existing;
  existing.AddField("dim", DataType::String());
  existing.AddField("metric", DataType::Double());
  ASSERT_TRUE(server_->droid()->CreateDataSource("existing", existing).ok());
  Run("CREATE EXTERNAL TABLE mapped STORED BY 'droid' "
      "TBLPROPERTIES ('droid.datasource' = 'existing')");
  auto desc = server_->catalog()->GetTable("default", "mapped");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->schema.num_fields(), 2u) << "schema inferred from droid metadata";
}

TEST_F(ServerTest, CsvHandlerRoundTrip) {
  Run("CREATE EXTERNAL TABLE ext (a INT, b STRING) STORED BY 'jdbc'");
  Run("INSERT INTO ext VALUES (1, 'x'), (2, 'comma,and\\escape')");
  QueryResult rows = Run("SELECT a, b FROM ext WHERE a = 2");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][1].str(), "comma,and\\escape");
}

TEST_F(ServerTest, WorkloadManagerAdmissionAndMappings) {
  ASSERT_TRUE(RunScript(
      "CREATE RESOURCE PLAN daytime;"
      "CREATE POOL daytime.bi WITH alloc_fraction=0.8, query_parallelism=2;"
      "CREATE POOL daytime.etl WITH alloc_fraction=0.2, query_parallelism=1;"
      "CREATE APPLICATION MAPPING visualization_app IN daytime TO bi;"
      "ALTER PLAN daytime SET DEFAULT POOL = etl;"
      "ALTER RESOURCE PLAN daytime ENABLE ACTIVATE;").ok());
  ASSERT_TRUE(server_->workload_manager()->HasActivePlan());
  auto bi = server_->workload_manager()->Admit("visualization_app");
  ASSERT_TRUE(bi.ok());
  EXPECT_EQ((*bi)->pool, "bi");
  auto etl = server_->workload_manager()->Admit("batch_thing");
  ASSERT_TRUE(etl.ok());
  EXPECT_EQ((*etl)->pool, "etl");
  // etl full (parallelism 1): the next etl query borrows from bi.
  auto borrowed = server_->workload_manager()->Admit("batch_thing");
  ASSERT_TRUE(borrowed.ok());
  EXPECT_EQ((*borrowed)->borrowed_from, "bi");
  server_->workload_manager()->Release(*bi);
  server_->workload_manager()->Release(*etl);
  server_->workload_manager()->Release(*borrowed);
  EXPECT_EQ(server_->workload_manager()->ActiveInPool("bi"), 0);
}

TEST_F(ServerTest, WorkloadManagerMoveTrigger) {
  ASSERT_TRUE(RunScript(
      "CREATE RESOURCE PLAN p;"
      "CREATE POOL p.fast WITH alloc_fraction=0.8, query_parallelism=5;"
      "CREATE POOL p.slow WITH alloc_fraction=0.2, query_parallelism=20;"
      "CREATE RULE downgrade IN p WHEN total_runtime > 3000 THEN MOVE slow;"
      "ADD RULE downgrade TO fast;"
      "ALTER PLAN p SET DEFAULT POOL = fast;"
      "ALTER RESOURCE PLAN p ENABLE ACTIVATE;").ok());
  auto handle = server_->workload_manager()->Admit("app");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->pool, "fast");
  server_->workload_manager()->ReportProgress(*handle, 2000);
  EXPECT_EQ((*handle)->pool, "fast") << "below threshold";
  server_->workload_manager()->ReportProgress(*handle, 3500);
  EXPECT_EQ((*handle)->pool, "slow") << "moved after exceeding total_runtime";
  server_->workload_manager()->Release(*handle);
}

TEST_F(ServerTest, WorkloadManagerKillTrigger) {
  ASSERT_TRUE(RunScript(
      "CREATE RESOURCE PLAN k;"
      "CREATE POOL k.only WITH alloc_fraction=1.0, query_parallelism=5;"
      "CREATE RULE killer IN k WHEN total_runtime > 1 THEN KILL;"
      "ADD RULE killer TO only;"
      "ALTER PLAN k SET DEFAULT POOL = only;"
      "ALTER RESOURCE PLAN k ENABLE ACTIVATE;").ok());
  auto handle = server_->workload_manager()->Admit("app");
  ASSERT_TRUE(handle.ok());
  server_->workload_manager()->ReportProgress(*handle, 100);
  EXPECT_TRUE((*handle)->cancelled->load());
  server_->workload_manager()->Release(*handle);
}

TEST_F(ServerTest, ReoptimizationRecoversFromBuildOverflow) {
  Run("CREATE TABLE big (k INT)");
  Run("CREATE TABLE small (k INT)");
  std::string values = "INSERT INTO big VALUES ";
  for (int i = 0; i < 300; ++i) values += (i ? ", (" : "(") + std::to_string(i) + ")";
  Run(values);
  Run("INSERT INTO small VALUES (1), (2)");
  // Corrupt the stats so the optimizer puts the big table on the build side.
  auto desc = server_->catalog()->GetTable("default", "big");
  ASSERT_TRUE(desc.ok());
  TableDesc corrupted = *desc;
  corrupted.stats.row_count = 1;
  ASSERT_TRUE(server_->catalog()->UpdateTable(corrupted).ok());
  session_.config().join_build_row_limit = 100;
  session_.config().reexecution_strategy = "reoptimize";
  QueryResult rows = Run(
      "SELECT COUNT(*) FROM small, big WHERE small.k = big.k");
  EXPECT_EQ(rows.rows[0][0].i64(), 2);
  EXPECT_EQ(rows.profile().counter(obs::qc::kReexecutions), 1)
      << "first attempt must fail on the build limit, rerun with runtime stats";
}

TEST_F(ServerTest, CompactionTriggersAfterManyInserts) {
  session_.config().result_cache_enabled = false;
  Run("CREATE TABLE t (a INT)");
  for (int i = 0; i < 12; ++i) Run("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  // The per-insert compaction check fires once the delta threshold (10) is
  // crossed; afterwards the directory count must be low again.
  auto entries = fs_.ListDir("/warehouse/default.db/t");
  ASSERT_TRUE(entries.ok());
  EXPECT_LT(entries->size(), 12u) << "compaction should have merged deltas";
  QueryResult rows = Run("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rows.rows[0][0].i64(), 12);
}

TEST_F(ServerTest, LlapCacheServesRepeatedScans) {
  Run("CREATE TABLE t (a INT, b STRING)");
  std::string values = "INSERT INTO t VALUES ";
  for (int i = 0; i < 500; ++i)
    values += (i ? ", (" : "(") + std::to_string(i) + ", 'v" + std::to_string(i) + "')";
  Run(values);
  session_.config().result_cache_enabled = false;  // isolate the data cache
  Run("SELECT SUM(a) FROM t");
  uint64_t misses_after_first = server_->llap()->cache()->data_misses();
  EXPECT_GT(misses_after_first, 0u);
  fs_.ResetIoStats();
  Run("SELECT SUM(a) FROM t");
  EXPECT_GT(server_->llap()->cache()->data_hits(), 0u);
  EXPECT_EQ(server_->llap()->cache()->data_misses(), misses_after_first)
      << "second scan must be served from the LLAP cache";
}

TEST_F(ServerTest, ShowTablesAndDropTable) {
  Run("CREATE TABLE t1 (a INT)");
  Run("CREATE TABLE t2 (a INT)");
  QueryResult tables = Run("SHOW TABLES");
  EXPECT_EQ(tables.rows.size(), 2u);
  Run("DROP TABLE t1");
  tables = Run("SHOW TABLES");
  EXPECT_EQ(tables.rows.size(), 1u);
  auto missing = session_.Execute("SELECT * FROM t1");
  EXPECT_FALSE(missing.ok());
  Run("DROP TABLE IF EXISTS t1");  // no error
}

TEST_F(ServerTest, AnalyzeRecomputesStatistics) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2), (3)");
  Run("DELETE FROM t WHERE a = 3");
  // Additive stats drift after deletes; ANALYZE resets them.
  Run("ANALYZE TABLE t COMPUTE STATISTICS");
  auto desc = server_->catalog()->GetTable("default", "t");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->stats.row_count, 2);
}

TEST_F(ServerTest, ThunderingHerdPendingMode) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2), (3)");
  // Many identical queries race on a cold cache: exactly one should fill.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> from_cache{0}, computed{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      Connection s = server_->Connect();
      auto r = s.Execute("SELECT SUM(a) FROM t");
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->rows[0][0].i64(), 6);
      (r->profile().counter(obs::qc::kFromResultCache) ? from_cache : computed)++;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1) << "only the filler computes";
  EXPECT_EQ(from_cache.load(), kThreads - 1);
}


TEST_F(ServerTest, InsertWithExplicitColumnList) {
  Run("CREATE TABLE t (a INT, b STRING, c DOUBLE)");
  Run("INSERT INTO t (b, a) VALUES ('x', 7)");
  QueryResult rows = Run("SELECT a, b, c FROM t");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].i64(), 7);
  EXPECT_EQ(rows.rows[0][1].str(), "x");
  EXPECT_TRUE(rows.rows[0][2].is_null()) << "unlisted column defaults to NULL";
}

TEST_F(ServerTest, NotNullConstraintEnforcedOnInsert) {
  Run("CREATE TABLE t (a INT NOT NULL, b STRING)");
  auto bad = session_.Execute("INSERT INTO t (b) VALUES ('x')");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(session_.Execute("INSERT INTO t VALUES (1, 'x')").ok());
}

TEST_F(ServerTest, UpdateOnPartitionedTable) {
  Run("CREATE TABLE sales (amt INT) PARTITIONED BY (day INT)");
  Run("INSERT INTO sales VALUES (10, 1), (20, 2), (30, 2)");
  QueryResult updated = Run("UPDATE sales SET amt = amt + 1 WHERE day = 2");
  EXPECT_EQ(updated.rows_affected, 2);
  QueryResult rows = Run("SELECT SUM(amt) FROM sales");
  EXPECT_EQ(rows.rows[0][0].i64(), 10 + 21 + 31);
  // Partition columns cannot be updated.
  auto bad = session_.Execute("UPDATE sales SET day = 9");
  EXPECT_FALSE(bad.ok());
}

TEST_F(ServerTest, DeleteFromSpecificPartitionLeavesOthers) {
  Run("CREATE TABLE sales (amt INT) PARTITIONED BY (day INT)");
  Run("INSERT INTO sales VALUES (10, 1), (20, 2), (30, 2)");
  Run("DELETE FROM sales WHERE day = 2 AND amt > 25");
  QueryResult rows = Run("SELECT COUNT(*) FROM sales");
  EXPECT_EQ(rows.rows[0][0].i64(), 2);
}

TEST_F(ServerTest, DropTableTakesExclusiveLockPath) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1)");
  // A still-open reader transaction holding a shared lock blocks DROP.
  int64_t reader_txn = server_->txns()->OpenTxn();
  ASSERT_TRUE(
      server_->txns()->AcquireLock(reader_txn, "default.t", LockMode::kShared).ok());
  auto blocked = session_.Execute("DROP TABLE t");
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kLockTimeout);
  ASSERT_TRUE(server_->txns()->CommitTxn(reader_txn).ok());
  EXPECT_TRUE(session_.Execute("DROP TABLE t").ok());
}

/// Handler whose metastore drop hook fails until told otherwise — models an
/// external system rejecting the un-registration call.
class FlakyDropHandler : public StorageHandler {
 public:
  std::string name() const override { return "flaky"; }
  Result<OperatorPtr> CreateScan(ExecContext*, const RelNode&) override {
    return Status::NotSupported("flaky handler has no scan");
  }
  Status Insert(const TableDesc&, const RowBatch&) override {
    return Status::NotSupported("flaky handler has no insert");
  }
  Status OnDropTable(const TableDesc&) override {
    if (fail_drops) return Status::TransientIoError("external system unavailable");
    return Status::OK();
  }
  bool fail_drops = true;
};

TEST_F(ServerTest, FailedHandlerDropReleasesExclusiveLock) {
  // Regression: when the storage handler's OnDropTable failed, DROP TABLE
  // returned without aborting its transaction, leaking the exclusive lock —
  // every later lock on the table (including the retried drop) then failed.
  auto handler = std::make_unique<FlakyDropHandler>();
  FlakyDropHandler* flaky = handler.get();
  server_->RegisterStorageHandler(std::move(handler));
  Run("CREATE TABLE ext (a INT) STORED BY 'flaky'");

  auto drop = session_.Execute("DROP TABLE ext");
  EXPECT_FALSE(drop.ok());
  EXPECT_TRUE(server_->catalog()->GetTable("default", "ext").ok())
      << "failed drop must keep the table registered";

  // The external system recovers: the retried drop must get the exclusive
  // lock (i.e. the failed attempt released it) and succeed.
  flaky->fail_drops = false;
  auto retry = session_.Execute("DROP TABLE ext");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(server_->catalog()->GetTable("default", "ext").ok());
}

TEST_F(ServerTest, MvStalenessWindowAllowsRewriteOnStaleData) {
  session_.config().result_cache_enabled = false;
  Run("CREATE TABLE f (k INT, v INT)");
  Run("INSERT INTO f VALUES (1, 10)");
  // 1-hour staleness window: rewriting continues after new data arrives.
  Run("CREATE MATERIALIZED VIEW mv_window "
      "TBLPROPERTIES ('rewriting.time.window' = '3600') "
      "AS SELECT k, SUM(v) AS s FROM f GROUP BY k");
  Run("INSERT INTO f VALUES (1, 5)");
  QueryResult q = Run("SELECT k, SUM(v) FROM f GROUP BY k");
  EXPECT_EQ(q.profile().counter(obs::qc::kMvRewrites), 1)
      << "within the staleness window the stale view still rewrites";
  // The (stale) answer comes from the view: 10, not 15.
  EXPECT_EQ(q.rows[0][1].i64(), 10);
}

// --- sessions & connections (connection manager) ---

TEST_F(ServerTest, SessionConfigOverridesAreIsolated) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2)");
  Connection cached = server_->Connect();
  Connection uncached = server_->Connect();
  uncached.config().result_cache_enabled = false;
  // Warm the cache from the first session...
  ASSERT_TRUE(cached.Execute("SELECT SUM(a) FROM t").ok());
  auto hit = cached.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->profile().counter(obs::qc::kFromResultCache));
  // ...while the overridden session keeps computing.
  auto computed = uncached.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(computed.ok());
  EXPECT_FALSE(computed->profile().counter(obs::qc::kFromResultCache))
      << "one session's override must not leak into another";
}

TEST_F(ServerTest, ConfigLayeringSessionOverridesLiveServerDefault) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1)");
  Connection inherit = server_->Connect();
  ASSERT_TRUE(inherit.Execute("SELECT SUM(a) FROM t").ok());
  auto warm = inherit.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->profile().counter(obs::qc::kFromResultCache))
      << "server default result_cache_enabled=true should apply";
  // Flip the server default: sessions that never touched the field track
  // the live default...
  Config flipped = server_->default_config();
  flipped.result_cache_enabled = false;
  server_->SetDefaultConfig(flipped);
  auto after = inherit.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->profile().counter(obs::qc::kFromResultCache))
      << "an untouched session field must follow the new server default";
  // ...while an explicit session override beats the server default.
  Connection pinned = server_->Connect();
  pinned.config().result_cache_enabled = true;
  ASSERT_TRUE(pinned.Execute("SELECT SUM(a) FROM t").ok());
  auto overridden = pinned.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(overridden.ok());
  EXPECT_TRUE(overridden->profile().counter(obs::qc::kFromResultCache))
      << "session override > server default";
}

TEST_F(ServerTest, CurrentDatabaseIsPerSession) {
  Run("CREATE DATABASE db2");
  Connection other = server_->Connect();
  other.set_database("db2");
  ASSERT_TRUE(other.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(other.Execute("INSERT INTO t VALUES (100)").ok());
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2)");
  // Unqualified names resolve against each session's own database.
  auto mine = session_.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine->rows[0][0].i64(), 2);
  auto theirs = other.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(theirs->rows[0][0].i64(), 100);
}

TEST_F(ServerTest, TempTablesInvisibleAcrossSessionsAndShadowPermanent) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1)");
  Connection scratch = server_->Connect();
  ASSERT_TRUE(scratch.Execute("CREATE TEMPORARY TABLE t (a INT)").ok());
  ASSERT_TRUE(scratch.Execute("INSERT INTO t VALUES (7), (8)").ok());
  // The temp shadows the permanent table for its own session...
  auto shadowed = scratch.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(shadowed.ok());
  EXPECT_EQ(shadowed->rows[0][0].i64(), 15);
  // ...is invisible to every other session...
  auto permanent = session_.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(permanent.ok());
  EXPECT_EQ(permanent->rows[0][0].i64(), 1);
  // ...and never shows up in SHOW TABLES.
  auto tables = scratch.Execute("SHOW TABLES");
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->rows.size(), 1u) << "only the permanent table is listed";
  // DROP removes the shadow first; the permanent table reappears.
  ASSERT_TRUE(scratch.Execute("DROP TABLE t").ok());
  auto unshadowed = scratch.Execute("SELECT SUM(a) FROM t");
  ASSERT_TRUE(unshadowed.ok());
  EXPECT_EQ(unshadowed->rows[0][0].i64(), 1);
}

TEST_F(ServerTest, CloseDropsTempTablesDeterministically) {
  Connection scratch = server_->Connect();
  ASSERT_TRUE(scratch.Execute("CREATE TEMPORARY TABLE tmp (a INT)").ok());
  ASSERT_TRUE(scratch.Execute("INSERT INTO tmp VALUES (1)").ok());
  std::string physical = Session::TempPhysicalName(scratch.id(), "tmp");
  ASSERT_TRUE(server_->catalog()->GetTable(kTempDatabase, physical).ok());
  ASSERT_TRUE(scratch.Close().ok());
  EXPECT_FALSE(server_->catalog()->GetTable(kTempDatabase, physical).ok())
      << "close must drop the session's temp tables";
}

TEST_F(ServerTest, DoubleCloseIsIdempotentAndExecuteAfterCloseFails) {
  Connection conn = server_->Connect();
  ASSERT_TRUE(conn.Execute("SELECT 1").ok());
  EXPECT_TRUE(conn.Close().ok());
  EXPECT_TRUE(conn.Close().ok()) << "second close must be a clean no-op";
  auto dead = conn.Execute("SELECT 1");
  ASSERT_FALSE(dead.ok());
  EXPECT_NE(dead.status().ToString().find("connection is closed"),
            std::string::npos)
      << dead.status().ToString();
}

TEST_F(ServerTest, ConnectionMetricsTrackOpenAndClose) {
  int64_t active_before = server_->connections()->active();
  {
    Connection a = server_->Connect();
    Connection b = server_->Connect();
    EXPECT_EQ(server_->connections()->active(), active_before + 2);
  }
  EXPECT_EQ(server_->connections()->active(), active_before)
      << "destructor must close the session";
}

// --- prepared statements & plan cache ---

TEST_F(ServerTest, PreparedExecuteByteIdenticalToAdHoc) {
  Run("CREATE TABLE t (a INT, b STRING)");
  Run("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  Run("PREPARE q AS SELECT a, b FROM t WHERE a >= ? ORDER BY a");
  auto prepared = session_.Execute("EXECUTE q (2)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto adhoc = session_.Execute("SELECT a, b FROM t WHERE a >= 2 ORDER BY a");
  ASSERT_TRUE(adhoc.ok());
  ASSERT_EQ(prepared->rows.size(), adhoc->rows.size());
  for (size_t i = 0; i < adhoc->rows.size(); ++i)
    for (size_t c = 0; c < adhoc->rows[i].size(); ++c)
      EXPECT_EQ(prepared->rows[i][c].ToString(), adhoc->rows[i][c].ToString())
          << "row " << i << " col " << c;
}

TEST_F(ServerTest, PreparedExecuteSharesResultCacheWithAdHoc) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2)");
  Run("PREPARE q AS SELECT SUM(a) FROM t WHERE a > ?");
  // Ad-hoc fills the result cache; the equivalent EXECUTE must hit it
  // (their canonical cache keys are identical).
  ASSERT_TRUE(session_.Execute("SELECT SUM(a) FROM t WHERE a > 0").ok());
  auto exec = session_.Execute("EXECUTE q (0)");
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(exec->profile().counter(obs::qc::kFromResultCache))
      << "EXECUTE and the equivalent ad-hoc SELECT must share a cache key";
}

TEST_F(ServerTest, PlanCacheHitsOnRepeatedExecute) {
  session_.config().result_cache_enabled = false;  // isolate the plan cache
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2), (3)");
  Run("PREPARE q AS SELECT SUM(a) FROM t WHERE a > ?");
  int64_t misses_before = server_->plan_cache()->misses();
  int64_t hits_before = server_->plan_cache()->hits();
  ASSERT_TRUE(session_.Execute("EXECUTE q (0)").ok());
  EXPECT_EQ(server_->plan_cache()->misses(), misses_before + 1);
  auto second = session_.Execute("EXECUTE q (0)");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->rows[0][0].i64(), 6);
  EXPECT_EQ(server_->plan_cache()->hits(), hits_before + 1)
      << "the second EXECUTE must reuse the optimized plan";
}

TEST_F(ServerTest, PlanCacheInvalidatedByDdlStaysCorrect) {
  session_.config().result_cache_enabled = false;
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1), (2)");
  Run("PREPARE q AS SELECT SUM(a) FROM t");
  auto first = session_.Execute("EXECUTE q");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rows[0][0].i64(), 3);
  // The insert bumps the catalog version (stats change): the cached plan is
  // stale and must be invalidated, and the answer must reflect the write.
  int64_t invalidations_before = server_->plan_cache()->invalidations();
  Run("INSERT INTO t VALUES (10)");
  auto second = session_.Execute("EXECUTE q");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->rows[0][0].i64(), 13)
      << "a stale cached plan must never produce a stale answer";
  EXPECT_GT(server_->plan_cache()->invalidations(), invalidations_before);
}

TEST_F(ServerTest, ExplainExecuteReportsPlanCacheState) {
  session_.config().result_cache_enabled = false;
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1)");
  Run("PREPARE q AS SELECT a FROM t WHERE a > ?");
  auto cold = session_.Execute("EXPLAIN EXECUTE q (0)");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->rows.empty());
  EXPECT_NE(cold->rows[0][0].ToString().find("plan cache: miss"),
            std::string::npos);
  auto warm = session_.Execute("EXPLAIN EXECUTE q (0)");
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->rows[0][0].ToString().find("plan cache: hit"),
            std::string::npos)
      << "EXPLAIN EXECUTE must warm and then report the plan cache";
}

TEST_F(ServerTest, PreparedStatementLifecycleErrors) {
  Run("CREATE TABLE t (a INT)");
  Run("PREPARE q AS SELECT a FROM t WHERE a > ?");
  // Duplicate name.
  auto dup = session_.Execute("PREPARE q AS SELECT a FROM t");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // Wrong arity.
  auto missing = session_.Execute("EXECUTE q");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("expects 1 parameter"),
            std::string::npos)
      << missing.status().ToString();
  // Non-literal arguments are rejected.
  auto expr = session_.Execute("EXECUTE q (a + 1)");
  EXPECT_FALSE(expr.ok());
  // DEALLOCATE then EXECUTE: clean not-found.
  ASSERT_TRUE(session_.Execute("DEALLOCATE q").ok());
  auto gone = session_.Execute("EXECUTE q (1)");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  // Prepared statements are session-scoped.
  Run("PREPARE mine AS SELECT a FROM t");
  Connection other = server_->Connect();
  auto foreign = other.Execute("EXECUTE mine");
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, TimestampPlusIntervalMovesTheTimestamp) {
  Run("CREATE TABLE ts (t TIMESTAMP)");
  Run("INSERT INTO ts VALUES (CAST('2018-01-01 00:00:00' AS TIMESTAMP))");
  QueryResult shifted = Run("SELECT t + INTERVAL '1' DAY, t - INTERVAL '1' DAY FROM ts");
  ASSERT_EQ(shifted.rows.size(), 1u);
  EXPECT_EQ(shifted.rows[0][0].ToString(), "2018-01-02 00:00:00");
  EXPECT_EQ(shifted.rows[0][1].ToString(), "2017-12-31 00:00:00");
  QueryResult kept = Run(
      "SELECT COUNT(*) FROM ts "
      "WHERE t + INTERVAL '1' DAY > CAST('2018-01-01 12:00:00' AS TIMESTAMP)");
  EXPECT_EQ(kept.rows[0][0].i64(), 1);
}

TEST_F(ServerTest, UnixTimestampIsAnUnknownFunctionAtPlanTime) {
  Run("CREATE TABLE t (a INT)");
  auto result = session_.Execute("SELECT UNIX_TIMESTAMP() FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPlanError) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("unknown function"), std::string::npos);
}

}  // namespace
}  // namespace hive
