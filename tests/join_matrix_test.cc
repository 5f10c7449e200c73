#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fs/fault_injection.h"
#include "fs/mem_filesystem.h"
#include "llap/daemon.h"
#include "server/hive_server.h"
#include "server/workload_loader.h"

namespace hive {
namespace {

/// The join matrix: every join shape the flat-hash engine supports, asserted
/// byte-identical across the serial operator, the morsel-parallel operator at
/// every executor count, the perfect-hash and generic table variants, and a
/// seeded fault schedule. The serial engine with parallel join and perfect
/// hash both disabled is the reference — the slow, boring path every
/// optimization must reproduce row for row.
class JoinMatrixTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mem_ = new MemFileSystem();
    faults_ = new FaultInjectingFileSystem(mem_, /*seed=*/1);
    Config config;
    config.container_startup_us = 0;
    config.num_executors = 8;  // pool size; sessions scale workers below it
    server_ = new HiveServer2(faults_, config);
    faults_->set_clock(server_->clock());
    Connection loader = server_->Connect();
    TpcdsOptions options;
    options.days = 5;  // keep the suite fast
    ASSERT_TRUE(LoadTpcds(loader, options).ok());
  }
  static void TearDownTestSuite() {
    delete server_;
    delete faults_;
    delete mem_;
  }

  void TearDown() override {
    faults_->ClearRules();
    faults_->ResetSchedule();
    faults_->Reseed(1);
    if (server_->llap()) server_->llap()->cache()->Clear();
  }

  /// Reference session: serial engine, flat table but no parallel build,
  /// no perfect hash — the baseline all variants must match.
  static Connection BaselineSession() {
    Connection session = server_->Connect();
    session.config().result_cache_enabled = false;
    session.config().parallel_scan_enabled = false;
    session.config().parallel_join_enabled = false;
    session.config().perfect_hash_join_enabled = false;
    return session;
  }

  /// Session configured for a given worker count (0 = serial engine).
  static Connection SessionFor(int workers, bool perfect_hash = true) {
    Connection session = server_->Connect();
    session.config().result_cache_enabled = false;
    session.config().perfect_hash_join_enabled = perfect_hash;
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

  /// Runs `sql` on the baseline session and on every engine variant,
  /// asserting byte-identical rows everywhere.
  void ExpectIdenticalEverywhere(const std::string& name,
                                 const std::string& sql) {
    Connection baseline_conn = BaselineSession();
    auto baseline = baseline_conn.Execute(sql);
    ASSERT_TRUE(baseline.ok()) << name << ": " << baseline.status().ToString();
    const std::vector<std::string> expected = Rows(*baseline);
    for (int workers : {0, 1, 2, 4, 8}) {
      for (bool perfect : {false, true}) {
        Connection conn = SessionFor(workers, perfect);
        auto result = conn.Execute(sql);
        ASSERT_TRUE(result.ok()) << name << " @" << workers
                                 << (perfect ? "/ph" : "") << ": "
                                 << result.status().ToString();
        EXPECT_EQ(Rows(*result), expected)
            << name << " differs at " << workers << " executors"
            << (perfect ? " with perfect hash" : "");
      }
    }
  }

  static MemFileSystem* mem_;
  static FaultInjectingFileSystem* faults_;
  static HiveServer2* server_;
};

MemFileSystem* JoinMatrixTest::mem_ = nullptr;
FaultInjectingFileSystem* JoinMatrixTest::faults_ = nullptr;
HiveServer2* JoinMatrixTest::server_ = nullptr;

/// The matrix proper: one named query per join shape.
struct MatrixQuery {
  const char* name;
  const char* sql;
};

const MatrixQuery kMatrix[] = {
    // Inner fact x dim on a dense integer key: the perfect-hash sweet spot.
    {"inner_fact_dim",
     "SELECT ss_item_sk, i_category, ss_quantity FROM store_sales, item "
     "WHERE ss_item_sk = i_item_sk AND ss_quantity > 15"},
    // Inner join with an extra conjunct beyond the equi key. It names one
    // input only, so the optimizer pushes it below the join: no residual.
    {"inner_residual",
     "SELECT ss_ticket_number, sr_return_amt FROM store_sales "
     "JOIN store_returns ON ss_ticket_number = sr_ticket_number "
     "AND ss_quantity > 5"},
    // Fact x fact: duplicate keys on both sides of the table.
    {"fact_fact_dup_keys",
     "SELECT ss_item_sk, sr_return_amt, ss_sales_price FROM store_sales "
     "JOIN store_returns ON ss_item_sk = sr_item_sk "
     "WHERE ss_quantity > 18"},
    // Left outer: unmatched probe rows must null-pad deterministically.
    {"left_outer",
     "SELECT d_date_sk, d_year, sr_item_sk FROM date_dim "
     "LEFT JOIN store_returns ON d_date_sk = sr_returned_date_sk"},
    // Right outer: normalized to a left join with swapped inputs.
    {"right_outer",
     "SELECT sr_item_sk, d_date_sk, d_moy FROM store_returns "
     "RIGHT JOIN date_dim ON sr_returned_date_sk = d_date_sk"},
    // Full outer: both unmatched tails emit, build tail in build-row order.
    {"full_outer",
     "SELECT d_date_sk, s_store_sk, s_state FROM date_dim "
     "FULL JOIN store ON d_date_sk = s_store_sk"},
    // Empty build side: dim filter matches nothing; probe must survive.
    {"empty_build_inner",
     "SELECT ss_item_sk, i_brand FROM store_sales, item "
     "WHERE ss_item_sk = i_item_sk AND i_category = 'NoSuchCategory'"},
    {"empty_build_left",
     "SELECT c_customer_sk, ss_ticket_number FROM customer "
     "LEFT JOIN store_sales ON c_customer_sk = ss_customer_sk "
     "AND ss_quantity > 1000"},
    // Semi / anti shapes (compiled from IN / NOT EXISTS).
    {"semi",
     "SELECT COUNT(*) FROM store_sales WHERE ss_item_sk IN "
     "(SELECT i_item_sk FROM item WHERE i_category = 'Sports')"},
    {"anti",
     "SELECT COUNT(*) FROM customer c WHERE NOT EXISTS "
     "(SELECT 1 FROM store_sales ss WHERE ss.ss_customer_sk = c.c_customer_sk)"},
    // Aggregation stacked on a join: flat agg table over flat join table.
    {"join_then_agg",
     "SELECT i_category, COUNT(*) AS cnt, SUM(ss_quantity) FROM store_sales, "
     "item WHERE ss_item_sk = i_item_sk GROUP BY i_category ORDER BY "
     "i_category"},
    // DISTINCT aggregate over join output (hash-set accumulator path).
    {"distinct_agg",
     "SELECT COUNT(DISTINCT ss_item_sk), SUM(DISTINCT ss_sales_price) "
     "FROM store_sales, store WHERE ss_store_sk = s_store_sk"},
    // Residuals: conjuncts the optimizer cannot push below the join, so the
    // probe evaluates them on its (probe row, candidate) pairs.
    {"inner_cross_side_residual",
     "SELECT ss_ticket_number, ss_sales_price, sr_return_amt FROM store_sales "
     "JOIN store_returns ON ss_ticket_number = sr_ticket_number "
     "AND ss_sales_price > sr_return_amt"},
    {"left_residual",
     "SELECT d_date_sk, d_moy, sr_item_sk FROM date_dim "
     "LEFT JOIN store_returns ON d_date_sk = sr_returned_date_sk AND d_moy > 3"},
    {"full_residual",
     "SELECT d_date_sk, d_moy, s_store_sk, s_state FROM date_dim "
     "FULL JOIN store ON d_date_sk = s_store_sk AND d_moy > s_store_sk"},
    {"semi_residual",
     "SELECT c_customer_sk, c_name FROM customer c WHERE EXISTS "
     "(SELECT 1 FROM store_sales ss WHERE ss.ss_customer_sk = c.c_customer_sk "
     "AND ss.ss_quantity > c.c_customer_sk % 20)"},
    {"anti_residual",
     "SELECT c_customer_sk, c_name FROM customer c WHERE NOT EXISTS "
     "(SELECT 1 FROM store_sales ss WHERE ss.ss_customer_sk = c.c_customer_sk "
     "AND ss.ss_quantity > c.c_customer_sk % 20)"},
    // No equi key: every build row is a candidate of every probe row.
    {"keyless_theta",
     "SELECT i_item_sk, s_store_sk FROM item, store WHERE i_item_sk < s_store_sk"},
    // The division is NULL where sr_item_sk % 3 = 0, and so is the residual.
    {"left_null_residual",
     "SELECT ss_ticket_number, ss_quantity, sr_item_sk FROM store_sales "
     "LEFT JOIN store_returns ON ss_ticket_number = sr_ticket_number "
     "AND ss_quantity / (sr_item_sk % 3) > 4"},
};

TEST_F(JoinMatrixTest, MatrixByteIdenticalAcrossEngines) {
  for (const MatrixQuery& q : kMatrix) {
    ExpectIdenticalEverywhere(q.name, q.sql);
  }
}

TEST_F(JoinMatrixTest, PerfectHashEngagesOnDenseDimensionKey) {
  // The fact x dim query keys the build side on i_item_sk, a dense
  // duplicate-free integer domain: the perfect-hash table must engage (its
  // engagement counter moves) and still match the generic-table rows.
  const std::string sql = kMatrix[0].sql;
  Connection generic_conn = SessionFor(4, /*perfect_hash=*/false);
  auto generic = generic_conn.Execute(sql);
  ASSERT_TRUE(generic.ok()) << generic.status().ToString();

  int64_t before = server_->metrics()->counter("exec.join.perfect_hash")->value();
  Connection perfect_conn = SessionFor(4, /*perfect_hash=*/true);
  auto perfect = perfect_conn.Execute(sql);
  ASSERT_TRUE(perfect.ok()) << perfect.status().ToString();
  int64_t after = server_->metrics()->counter("exec.join.perfect_hash")->value();
  EXPECT_GT(after, before) << "perfect hash never engaged on a dense int key";
  EXPECT_EQ(Rows(*perfect), Rows(*generic));
}

TEST_F(JoinMatrixTest, GenericTableHandlesDuplicateKeys) {
  // Duplicate build keys must force the generic table even with perfect
  // hashing enabled (TryBuild detects the duplicate and falls back).
  const std::string sql =
      "SELECT sr_ticket_number, ss_sales_price FROM store_returns "
      "JOIN store_sales ON sr_item_sk = ss_item_sk WHERE sr_return_amt > 90";
  int64_t before = server_->metrics()->counter("exec.join.perfect_hash")->value();
  Connection conn = SessionFor(4, /*perfect_hash=*/true);
  auto result = conn.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t after = server_->metrics()->counter("exec.join.perfect_hash")->value();
  EXPECT_EQ(after, before)
      << "perfect hash engaged on a build side with duplicate keys";
}

TEST_F(JoinMatrixTest, MatrixSurvivesFaultSeeds) {
  // A seeded schedule of transient read errors and stragglers must never
  // change join results: retries and speculation absorb the faults.
  std::vector<std::vector<std::string>> expected;
  for (const MatrixQuery& q : kMatrix) {
    Connection conn = SessionFor(8);
    auto r = conn.Execute(q.sql);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
    expected.push_back(Rows(*r));
  }
  for (uint64_t seed : {7u, 23u, 101u}) {
    faults_->ClearRules();
    faults_->ResetSchedule();
    faults_->Reseed(seed);
    FaultRule rule;
    rule.path_prefix = "/warehouse";
    rule.read_error_rate = 0.1;
    rule.latency_rate = 0.1;
    rule.latency_us = 40000;
    faults_->AddRule(rule);
    if (server_->llap()) server_->llap()->cache()->Clear();
    size_t i = 0;
    for (const MatrixQuery& q : kMatrix) {
      Connection conn = SessionFor(8);
    auto r = conn.Execute(q.sql);
      ASSERT_TRUE(r.ok()) << q.name << " seed " << seed << ": "
                          << r.status().ToString();
      EXPECT_EQ(Rows(*r), expected[i])
          << q.name << " changed under fault seed " << seed;
      ++i;
    }
  }
}

}  // namespace
}  // namespace hive
