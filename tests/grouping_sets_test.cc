#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "fs/mem_filesystem.h"
#include "server/hive_server.h"

namespace hive {
namespace {

/// ROLLUP, CUBE and GROUPING SETS against their definition: each query must
/// return what it returns written as a UNION ALL of one GROUP BY per set,
/// with NULL for the keys a set leaves out. The engine aggregates the
/// finest set once and rolls the coarser sets up from that result, or, when
/// a call does not roll up, aggregates every set from one shared input, so
/// the corpus crosses set shapes with every aggregate kind over NULL keys,
/// NULL arguments and empty inputs, at one and at four executors.
class GroupingSetsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs_ = new MemFileSystem();
    Config config;
    config.container_startup_us = 0;
    server_ = new HiveServer2(fs_, config);
    Connection conn = server_->Connect();
    for (const char* table : {"g", "g_empty"})
      ASSERT_TRUE(conn.Execute(std::string("CREATE TABLE ") + table +
                               " (k1 STRING, k2 INT, k3 STRING, n BIGINT, "
                               "d DECIMAL(9,2), f DOUBLE)")
                      .ok());
    // 600 rows in six files, so that four executors split the scan. DOUBLE
    // values are multiples of 1/2: their sums are exact in any order.
    uint64_t x = 12345;
    const char* k1s[] = {"'a'", "'b'", "'c'", "'d'"};
    const char* k3s[] = {"'x'", "'y'", "'z'"};
    for (int file = 0; file < 6; ++file) {
      std::string sql = "INSERT INTO g VALUES ";
      for (int r = 0; r < 100; ++r) {
        int i = file * 100 + r;
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        uint32_t v = static_cast<uint32_t>(x >> 33);
        char d[32], f[32];
        std::snprintf(d, sizeof d, "%u.%02u", (v >> 12) % 1000, ((v >> 4) % 4) * 25);
        std::snprintf(f, sizeof f, "%.1f", static_cast<double>((v >> 16) % 200) * 0.5 - 40);
        if (r) sql += ", ";
        sql += "(";
        sql += i % 7 == 0 ? "NULL" : k1s[v % 4];
        sql += ", " + (i % 11 == 0 ? std::string("NULL") : std::to_string(v % 5));
        sql += ", " + std::string(k3s[(v >> 8) % 3]);
        sql += ", " + (i % 5 == 0 ? std::string("NULL")
                                   : std::to_string(static_cast<int>((v >> 4) % 1000) - 300));
        sql += ", " + (i % 6 == 0 ? std::string("NULL") : std::string(d));
        sql += ", " + (i % 9 == 0 ? std::string("NULL") : std::string(f));
        sql += ")";
      }
      ASSERT_TRUE(conn.Execute(sql).ok());
    }
  }
  static void TearDownTestSuite() {
    delete server_;
    delete fs_;
  }

  /// One grouping clause: the keys it selects and the sets it stands for.
  struct Grouping {
    std::string clause;
    std::vector<std::string> keys;
    std::vector<std::vector<std::string>> sets;
  };

  static std::vector<Grouping> Groupings() {
    return {
        {"GROUP BY ROLLUP (k1, k2)", {"k1", "k2"}, {{"k1", "k2"}, {"k1"}, {}}},
        {"GROUP BY CUBE (k1, k2)", {"k1", "k2"}, {{}, {"k1"}, {"k2"}, {"k1", "k2"}}},
        // The finest set, (k1, k2, k3), is not one of the sets.
        {"GROUP BY k1, k2, k3 GROUPING SETS ((k1, k3), (k2), ())",
         {"k1", "k2", "k3"},
         {{"k1", "k3"}, {"k2"}, {}}},
        // A repeated set returns its groups twice.
        {"GROUP BY GROUPING SETS ((k3, k1), (k3), (k3, k1))",
         {"k3", "k1"},
         {{"k3", "k1"}, {"k3"}, {"k3", "k1"}}},
    };
  }

  /// The sets written out: one GROUP BY per set over `from`, unioned.
  static std::string Expansion(const Grouping& grouping, const std::string& items,
                               const std::string& from, const std::string& having) {
    std::string sql;
    for (const std::vector<std::string>& set : grouping.sets) {
      if (!sql.empty()) sql += " UNION ALL ";
      sql += "SELECT ";
      for (const std::string& key : grouping.keys) {
        bool grouped = std::find(set.begin(), set.end(), key) != set.end();
        sql += (grouped ? key : "NULL") + " AS " + key + ", ";
      }
      sql += items + " FROM " + from;
      for (size_t i = 0; i < set.size(); ++i) sql += (i ? ", " : " GROUP BY ") + set[i];
      if (!having.empty()) sql += " HAVING " + having;
    }
    return sql;
  }

  static std::string Join(const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& p : parts) out += (out.empty() ? "" : ", ") + p;
    return out;
  }

  /// Rows of `sql` at `executors`, sorted: compared as a multiset.
  static std::vector<std::string> SortedRows(const std::string& sql, int executors) {
    Connection session = server_->Connect();
    session.config().result_cache_enabled = false;
    session.config().num_executors = executors;
    auto result = session.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    std::vector<std::string> rows;
    if (!result.ok()) return rows;
    for (const auto& row : result->rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static void ExpectSameRows(const std::string& sql, const std::string& oracle) {
    for (int executors : {1, 4}) {
      std::vector<std::string> want = SortedRows(oracle, executors);
      std::vector<std::string> got = SortedRows(sql, executors);
      std::vector<std::string> missing, extra;
      std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                          std::back_inserter(missing));
      std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                          std::back_inserter(extra));
      EXPECT_TRUE(missing.empty() && extra.empty())
          << sql << "\n  at " << executors << " executors: " << missing.size()
          << " rows missing (first " << (missing.empty() ? "-" : missing[0]) << "), "
          << extra.size() << " extra (first " << (extra.empty() ? "-" : extra[0])
          << ")\n  oracle: " << oracle;
    }
  }

  static MemFileSystem* fs_;
  static HiveServer2* server_;
};

MemFileSystem* GroupingSetsTest::fs_ = nullptr;
HiveServer2* GroupingSetsTest::server_ = nullptr;

const std::vector<std::string> kSources = {"g", "g_empty", "g WHERE n < -1000"};

TEST_F(GroupingSetsTest, EveryAggregateMatchesOneGroupByPerSet) {
  const std::vector<std::vector<std::string>> call_lists = {
      {"SUM(n)"},
      {"SUM(d)"},
      {"SUM(f)"},
      {"COUNT(*)"},
      {"COUNT(n)"},
      {"MIN(d)"},
      {"MAX(f)"},
      {"AVG(n)"},
      {"COUNT(DISTINCT k3)"},
      // Calls that all roll up, and lists with one that does not.
      {"COUNT(*)", "SUM(n)", "MIN(k3)", "MAX(d)", "COUNT(f)"},
      {"SUM(n)", "COUNT(DISTINCT n)", "COUNT(*)"},
      {"COUNT(d)", "AVG(d)", "MAX(n)"},
  };
  for (const Grouping& grouping : Groupings()) {
    for (const std::vector<std::string>& calls : call_lists) {
      std::vector<std::string> items;
      for (size_t i = 0; i < calls.size(); ++i)
        items.push_back(calls[i] + " AS a" + std::to_string(i));
      for (const std::string& from : kSources) {
        std::string sql = "SELECT " + Join(grouping.keys) + ", " + Join(items) +
                          " FROM " + from + " " + grouping.clause;
        ExpectSameRows(sql, Expansion(grouping, Join(items), from, ""));
      }
    }
  }
}

TEST_F(GroupingSetsTest, HavingFiltersEachSetsGroups) {
  for (const Grouping& grouping : Groupings()) {
    for (const std::string& from : kSources) {
      const std::string items = "SUM(n) AS a0, COUNT(*) AS a1";
      std::string sql = "SELECT " + Join(grouping.keys) + ", " + items + " FROM " + from +
                        " " + grouping.clause + " HAVING COUNT(*) > 15";
      ExpectSameRows(sql, Expansion(grouping, items, from, "COUNT(*) > 15"));
    }
  }
  // A HAVING conjunct on a key sees NULL where the set leaves it out.
  const Grouping rollup = Groupings()[0];
  ExpectSameRows(
      "SELECT k1, k2, MIN(d) AS a0 FROM g GROUP BY ROLLUP (k1, k2) HAVING k2 IS NULL",
      "SELECT * FROM (" + Expansion(rollup, "MIN(d) AS a0", "g", "") +
          ") u WHERE k2 IS NULL");
}

TEST_F(GroupingSetsTest, WindowsAndDistinctApplyToAllSetsTogether) {
  const Grouping rollup = Groupings()[0];
  for (const std::string& from : kSources) {
    ExpectSameRows(
        "SELECT k1, k2, SUM(n) AS s, RANK() OVER (ORDER BY SUM(n) DESC) AS r, "
        "COUNT(*) OVER (PARTITION BY k1) AS c FROM " + from + " GROUP BY ROLLUP (k1, k2)",
        "SELECT k1, k2, s, RANK() OVER (ORDER BY s DESC) AS r, "
        "COUNT(*) OVER (PARTITION BY k1) AS c FROM (" +
            Expansion(rollup, "SUM(n) AS s", from, "") + ") u");
  }
  const Grouping sets = {"GROUP BY k1, k2 GROUPING SETS ((k1, k2), (k1))",
                         {"k1", "k2"},
                         {{"k1", "k2"}, {"k1"}}};
  for (const std::string& from : kSources) {
    ExpectSameRows("SELECT DISTINCT k1 FROM " + from + " " + sets.clause,
                   "SELECT DISTINCT k1 FROM (" + Expansion(sets, "COUNT(*) AS c", from, "") +
                       ") u");
  }
}

TEST_F(GroupingSetsTest, RolledUpSetsKeepFirstSeenGroupOrder) {
  // A coarse group's first finest group holds its first input row, so
  // rolling up emits groups in the order aggregating the input would.
  for (const Grouping& grouping : Groupings()) {
    const std::string items = "COUNT(*) AS a0, SUM(d) AS a1, MAX(k3) AS a2";
    for (int executors : {1, 4}) {
      Connection session = server_->Connect();
      session.config().result_cache_enabled = false;
      session.config().num_executors = executors;
      auto got = session.Execute("SELECT " + Join(grouping.keys) + ", " + items +
                                 " FROM g " + grouping.clause);
      auto want = session.Execute(Expansion(grouping, items, "g", ""));
      ASSERT_TRUE(got.ok() && want.ok()) << grouping.clause;
      ASSERT_EQ(got->rows.size(), want->rows.size()) << grouping.clause;
      for (size_t i = 0; i < got->rows.size(); ++i)
        for (size_t c = 0; c < got->rows[i].size(); ++c)
          ASSERT_EQ(got->rows[i][c].ToString(), want->rows[i][c].ToString())
              << grouping.clause << " row " << i << " at " << executors << " executors";
    }
  }
}

TEST_F(GroupingSetsTest, EmptyInputGivesOneGrandTotalRow) {
  auto rows = SortedRows(
      "SELECT k1, COUNT(*), COUNT(n), SUM(n), MIN(d) FROM g_empty GROUP BY ROLLUP (k1)", 1);
  EXPECT_EQ(rows, (std::vector<std::string>{"NULL|0|0|NULL|NULL|"}));
}

}  // namespace
}  // namespace hive
