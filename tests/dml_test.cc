#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fs/fault_injection.h"
#include "fs/mem_filesystem.h"
#include "obs/metric_names.h"
#include "server/hive_server.h"

namespace hive {
namespace {

// UPDATE, DELETE and MERGE read their targets with one SELECT through the
// query engine, so they get what any SELECT gets — task retries, deadlines,
// row-group skipping, the memory governor — and the same table at every
// executor count.

/// One self-contained server over a fault-injecting in-memory file system.
struct Cluster {
  MemFileSystem mem;
  FaultInjectingFileSystem faults{&mem, /*seed=*/1};
  std::unique_ptr<HiveServer2> server;
  Connection session;

  explicit Cluster(int executors = 4, bool legacy_v12 = false) {
    Config config;
    if (legacy_v12) config.SetLegacyV12Mode();
    config.container_startup_us = 0;
    config.num_executors = executors;
    server = std::make_unique<HiveServer2>(&faults, config);
    faults.set_clock(server->clock());
    session = server->Connect();
    session.config().result_cache_enabled = false;
  }

  QueryResult Run(const std::string& sql) {
    auto result = session.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\nSQL: " << sql;
    return result.ok() ? *result : QueryResult{};
  }

  /// Every row of `sql`, one '|'-joined string per row.
  std::vector<std::string> Rows(const std::string& sql) {
    std::vector<std::string> out;
    for (const auto& row : Run(sql).rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.push_back(line);
    }
    return out;
  }

  /// Loads `table` with (id, v, p) rows for ids [0, n), `per_insert` rows
  /// per INSERT statement (one delta file, hence one row group, each). The
  /// p literal is id % 4 followed by `p_suffix` (".5" for a DECIMAL p).
  void Load(const std::string& table, int n, int per_insert,
            const std::string& p_suffix = "") {
    for (int base = 0; base < n; base += per_insert) {
      std::string sql = "INSERT INTO " + table + " VALUES ";
      for (int id = base; id < base + per_insert && id < n; ++id)
        sql += (id > base ? ", (" : "(") + std::to_string(id) + ", " +
               std::to_string(id * 10) + ", " + std::to_string(id % 4) + p_suffix + ")";
      Run(sql);
    }
  }

  int64_t Metric(const char* name) { return server->metrics()->Value(name); }

  /// Drops cached chunks so the next statement pays real (faultable) reads.
  void ColdCache() {
    if (server->llap()) server->llap()->cache()->Clear();
  }
};

/// id -> (v, p), the expected contents of a target loaded by Cluster::Load.
using Model = std::map<int64_t, std::pair<int64_t, int64_t>>;

/// The model as Cluster::Rows renders `SELECT id, v, p ... ORDER BY id`.
std::vector<std::string> ModelRows(const Model& model, const std::string& p_suffix = "") {
  std::vector<std::string> out;
  for (const auto& [id, row] : model)
    out.push_back(std::to_string(id) + "|" + std::to_string(row.first) + "|" +
                  std::to_string(row.second) + p_suffix + "|");
  return out;
}

TEST(DmlEngineTest, TransientReadFaultsOnTheTargetAreRetried) {
  Cluster c;
  c.Run("CREATE TABLE t (id INT, v INT, p INT)");
  c.Run("CREATE TABLE src (id INT, v INT, p INT)");
  c.Load("t", 2000, 250);
  c.Run("INSERT INTO src VALUES (5, 1, 0), (6, 2, 0), (5000, 3, 0)");
  FaultRule rule;
  rule.path_prefix = "/warehouse/default.db/t/";
  rule.read_error_rate = 0.3;
  rule.max_read_errors_per_site = 1;
  c.faults.AddRule(rule);
  const std::vector<std::pair<std::string, int64_t>> statements = {
      {"UPDATE t SET v = v + 1 WHERE id < 1000", 1000},
      {"DELETE FROM t WHERE id >= 1500", 500},
      {"MERGE INTO t USING src s ON t.id = s.id WHEN MATCHED THEN UPDATE SET v = s.v "
       "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.v, s.p)",
       3}};
  for (const auto& [sql, affected] : statements) {
    SCOPED_TRACE(sql);
    c.faults.ResetSchedule();
    c.ColdCache();
    uint64_t injected = c.faults.injected_read_errors();
    auto result = c.session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows_affected, affected);
    EXPECT_GT(c.faults.injected_read_errors(), injected)
        << "the schedule injected nothing into the target read";
  }
  c.faults.ClearRules();
  auto summary = c.Run("SELECT COUNT(*), SUM(v) FROM t").rows;
  // 1500 rows survive the DELETE, plus the MERGE's one inserted row; ids
  // 0..999 gained 1, then ids 5 and 6 took the source values 1 and 2.
  int64_t sum = 0;
  for (int id = 0; id < 1500; ++id) sum += id * 10 + (id < 1000 ? 1 : 0);
  sum += (1 + 2 + 3) - (51 + 61);
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0][0].i64(), 1501);
  EXPECT_EQ(summary[0][1].i64(), sum);
}

TEST(DmlEngineTest, UpdateHonoursTheQueryDeadlineAndCommitsNothing) {
  Cluster c;
  c.Run("CREATE TABLE t (id INT, v INT, p INT)");
  c.Load("t", 1000, 250);
  std::vector<std::string> before = c.Rows("SELECT id, v, p FROM t ORDER BY id");
  // Every read of the target stalls 100 ms (modeled); the deadline is 50 ms.
  FaultRule rule;
  rule.path_prefix = "/warehouse/default.db/t/";
  rule.latency_rate = 1.0;
  rule.latency_us = 100000;
  c.faults.AddRule(rule);
  c.ColdCache();
  c.session.config().query_timeout_ms = 50;
  auto result = c.session.Execute("UPDATE t SET v = 0");
  ASSERT_FALSE(result.ok()) << "the deadline never fired";
  EXPECT_NE(result.status().ToString().find("query.timeout.ms"), std::string::npos)
      << result.status().ToString();
  c.faults.ClearRules();
  c.session.config().query_timeout_ms = 0;
  EXPECT_EQ(c.Rows("SELECT id, v, p FROM t ORDER BY id"), before);
}

TEST(DmlEngineTest, KeyRangeUpdateSkipsRowGroups) {
  Cluster c;
  c.Run("CREATE TABLE t (id INT, v INT, p INT)");
  c.Load("t", 1000, 200);  // five delta files with disjoint id ranges
  int64_t skipped = c.Metric(obs::metric::kMorselsSkipped);
  QueryResult update = c.Run("UPDATE t SET v = -1 WHERE id BETWEEN 210 AND 219");
  EXPECT_EQ(update.rows_affected, 10);
  EXPECT_GT(c.Metric(obs::metric::kMorselsSkipped), skipped)
      << "the UPDATE's WHERE never reached the sarg";
  auto rows = c.Run("SELECT COUNT(*) FROM t WHERE v = -1").rows;
  EXPECT_EQ(rows[0][0].i64(), 10);
}

TEST(DmlEngineTest, MergeSpillsUnderATightBudgetToTheSameTable) {
  Cluster c;
  for (const char* table : {"unlimited", "tight"}) {
    c.Run(std::string("CREATE TABLE ") + table + " (id INT, v INT, p INT)");
    c.Load(table, 4096, 512);
  }
  c.Run("CREATE TABLE src (id INT, v INT, p INT)");
  c.Run("INSERT INTO src VALUES (7, 70000, 1), (4000, 1, 1), (9000, 2, 3)");
  const std::string merge =
      " t USING src s ON t.id = s.id WHEN MATCHED THEN UPDATE SET v = s.v "
      "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.v, s.p)";
  EXPECT_EQ(c.Run("MERGE INTO unlimited" + merge).rows_affected, 3);
  int64_t spilled = c.Metric(obs::metric::kSpillBytes);
  c.session.config().query_memory_limit_bytes = 16 * 1024;
  EXPECT_EQ(c.Run("MERGE INTO tight" + merge).rows_affected, 3);
  EXPECT_GT(c.Metric(obs::metric::kSpillBytes), spilled)
      << "the MERGE's join never spilled under a 16 KiB budget";
  c.session.config().query_memory_limit_bytes = 0;
  EXPECT_EQ(c.Rows("SELECT id, v, p FROM tight ORDER BY id"),
            c.Rows("SELECT id, v, p FROM unlimited ORDER BY id"));
}

TEST(DmlEngineTest, MergeRejectsATargetRowMatchedTwice) {
  Cluster c;
  c.Run("CREATE TABLE target (id INT, v INT)");
  c.Run("CREATE TABLE source (id INT, v INT)");
  c.Run("INSERT INTO target VALUES (1, 10)");
  c.Run("INSERT INTO source VALUES (1, 100), (1, 200)");
  auto result = c.session.Execute(
      "MERGE INTO target t USING source s ON t.id = s.id "
      "WHEN MATCHED THEN UPDATE SET v = s.v "
      "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.v)");
  ASSERT_FALSE(result.ok()) << "a target row matched by two source rows must fail";
  EXPECT_NE(result.status().ToString().find("cardinality violation"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(c.Rows("SELECT id, v FROM target ORDER BY id"),
            std::vector<std::string>{"1|10|"});
}

TEST(DmlEngineTest, MergeReexecutesPastTheJoinBuildRowLimit) {
  Cluster c;
  c.Run("CREATE TABLE t (id INT, v INT, p INT)");
  c.Load("t", 2000, 500);
  c.Run("CREATE TABLE src (id INT, v INT, p INT)");
  c.Run("INSERT INTO src VALUES (5, 1, 0), (6, 2, 0), (5000, 3, 0)");
  Model model;
  for (int64_t id = 0; id < 2000; ++id) model[id] = {id * 10, id % 4};
  model[5].first = 1;
  model[6].first = 2;
  model[5000] = {3, 0};
  // The first attempt's hash join trips the build-side guard; the
  // re-execution lifts it, as it does for a client's SELECT.
  int64_t reexecutions = c.Metric(obs::qc::kReexecutions);
  c.session.config().join_build_row_limit = 100;
  QueryResult merge = c.Run(
      "MERGE INTO t USING src s ON t.id = s.id WHEN MATCHED THEN UPDATE SET v = s.v "
      "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.v, s.p)");
  EXPECT_EQ(merge.rows_affected, 3);
  EXPECT_GT(c.Metric(obs::qc::kReexecutions), reexecutions)
      << "the MERGE's join never reached the build-row limit";
  c.session.config().join_build_row_limit = INT64_MAX;
  EXPECT_EQ(c.Rows("SELECT id, v, p FROM t ORDER BY id"), ModelRows(model));
}

// --- the same DML stream against an in-test model ---

enum class TargetKind { kPartitioned, kDecimalPartitioned, kTemporary, kViewCovered };
/// The engine the statements run on: v3.1 at 1 or 4 executors, or the
/// v1.2 baseline (MapReduce runtime, restricted SQL surface).
enum class Engine { kOneExecutor, kFourExecutors, kLegacyV12 };

class DmlModelTest : public ::testing::TestWithParam<std::tuple<TargetKind, Engine>> {};

TEST_P(DmlModelTest, UpdateDeleteMergeMatchTheModel) {
  auto [kind, engine] = GetParam();
  Cluster c(engine == Engine::kOneExecutor ? 1 : 4, engine == Engine::kLegacyV12);
  // A DECIMAL partition holds fractional values: p is id % 4 + 0.5.
  const bool decimal_p = kind == TargetKind::kDecimalPartitioned;
  const std::string p_type = decimal_p ? "DECIMAL(4,1)" : "INT";
  const std::string p_suffix = decimal_p ? ".5" : "";
  switch (kind) {
    case TargetKind::kPartitioned:
    case TargetKind::kDecimalPartitioned:
      c.Run("CREATE TABLE t (id INT, v INT) PARTITIONED BY (p " + p_type + ")");
      break;
    case TargetKind::kTemporary:
      c.Run("CREATE TEMPORARY TABLE t (id INT, v INT, p INT)");
      break;
    case TargetKind::kViewCovered:
      c.Run("CREATE TABLE t (id INT, v INT, p INT)");
      break;
  }
  constexpr int kRows = 3000;
  c.Load("t", kRows, 500, p_suffix);
  if (kind == TargetKind::kViewCovered)
    c.Run("CREATE MATERIALIZED VIEW t_mv AS SELECT id, v, p FROM t");
  Model model;
  for (int64_t id = 0; id < kRows; ++id) model[id] = {id * 10, id % 4};

  // Source rows straddle the end of the table: half update or delete
  // existing ids, half insert new ones (into a new partition for p = 4).
  c.Run("CREATE TABLE src (id INT, v INT, p " + p_type + ", del INT)");
  std::string values;
  for (int64_t id = kRows - 20; id < kRows + 20; ++id)
    values += (values.empty() ? "(" : ", (") + std::to_string(id) + ", " +
              std::to_string(id * 7) + ", " + std::to_string(id % 5) + p_suffix + ", " +
              std::to_string(id % 5 == 0 ? 1 : 0) + ")";
  c.Run("INSERT INTO src VALUES " + values);

  auto check = [&](const std::string& sql, int64_t affected) {
    SCOPED_TRACE(sql);
    EXPECT_EQ(c.Run(sql).rows_affected, affected);
    EXPECT_EQ(c.Rows("SELECT id, v, p FROM t ORDER BY id"), ModelRows(model, p_suffix));
  };

  int64_t updated = 0;
  for (auto& [id, row] : model)
    if (id % 3 == 0) {
      row.first += 1000;
      ++updated;
    }
  check("UPDATE t SET v = v + 1000 WHERE id % 3 = 0", updated);

  int64_t deleted = 0;
  for (int64_t id = 100; id < 400; ++id) deleted += model.erase(id);
  check("DELETE FROM t WHERE id BETWEEN 100 AND 399", deleted);

  int64_t merged = 0;
  for (int64_t id = kRows - 20; id < kRows + 20; ++id, ++merged) {
    auto it = model.find(id);
    if (it == model.end())
      model[id] = {id * 7, id % 5};
    else if (id % 5 == 0)
      model.erase(it);
    else
      it->second.first = id * 7;
  }
  check("MERGE INTO t AS tgt USING src s ON tgt.id = s.id "
        "WHEN MATCHED AND s.del = 1 THEN DELETE "
        "WHEN MATCHED THEN UPDATE SET v = s.v "
        "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.v, s.p)",
        merged);
}

std::string ParamName(const ::testing::TestParamInfo<DmlModelTest::ParamType>& info) {
  static const char* const kKinds[] = {"Partitioned", "DecimalPartitioned", "Temporary",
                                       "ViewCovered"};
  static const char* const kEngines[] = {"1exec", "4exec", "v12"};
  return std::string(kKinds[static_cast<int>(std::get<0>(info.param))]) + "_" +
         kEngines[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Targets, DmlModelTest,
    ::testing::Combine(::testing::Values(TargetKind::kPartitioned,
                                         TargetKind::kDecimalPartitioned,
                                         TargetKind::kTemporary, TargetKind::kViewCovered),
                       ::testing::Values(Engine::kOneExecutor, Engine::kFourExecutors,
                                         Engine::kLegacyV12)),
    ParamName);

}  // namespace
}  // namespace hive
