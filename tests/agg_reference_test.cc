#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "fs/mem_filesystem.h"
#include "server/hive_server.h"

namespace hive {
namespace {

/// GROUP BY against a fold over boxed values. Every aggregate, with and
/// without DISTINCT, runs over one column of each kind, grouped by each kind,
/// by two columns and by none; the oracle reads the table's rows in scan
/// order and folds them the way the aggregates are defined. Groups must come
/// out in first-seen input order, and every value must match exactly: the
/// kind, the DECIMAL scale and the DOUBLE bits (the sign of zero included).
/// The same queries run at one and four executors and under a budget that
/// spills.

constexpr int kFiles = 8;
constexpr int kRowsPerFile = 128;

/// One aggregate call: `func`(`distinct` `col`), or COUNT(*) when col is empty.
struct Call {
  std::string func;
  std::string col;
  bool distinct = false;

  std::string Sql() const {
    if (col.empty()) return func + "(*)";
    return func + "(" + (distinct ? "DISTINCT " : "") + col + ")";
  }
  /// True when the result's bits follow the order the rows are added in
  /// (a DOUBLE sum of inexact terms), so only a serial, unspilled run has one
  /// right answer.
  bool OrderSensitive() const {
    if (distinct || (func != "SUM" && func != "AVG")) return false;
    return col == "fx" || (func == "AVG" && (col == "i" || col == "ts"));
  }
};

/// Argument columns, one per kind: BOOLEAN, BIGINT (with INT64_MIN/MAX),
/// DOUBLE whose sums are exact in any order (with -0.0 and 0.0), DOUBLE
/// whose sums are not, DECIMAL at two scales, STRING (with ''), DATE and
/// TIMESTAMP.
const std::vector<std::string> kArgColumns = {"b", "i", "f", "fx", "c", "e", "s", "dt", "ts"};

std::vector<Call> AllCalls() {
  std::vector<Call> calls = {{"COUNT", "", false}};
  for (const std::string& col : kArgColumns)
    for (const char* func : {"COUNT", "SUM", "AVG", "MIN", "MAX"})
      for (bool distinct : {false, true}) calls.push_back({func, col, distinct});
  return calls;
}

/// The exact rendering of a value: kind, payload and scale. DOUBLE prints
/// its bits, so -0.0 and 0.0 differ.
std::string Exact(const Value& v) {
  if (v.is_null()) return "NULL";
  char buf[64];
  switch (v.kind()) {
    case TypeKind::kDouble:
      std::snprintf(buf, sizeof buf, "D:%a", v.f64());
      return buf;
    case TypeKind::kDecimal:
      std::snprintf(buf, sizeof buf, "N:%" PRId64 "e-%d", v.i64(), v.scale());
      return buf;
    case TypeKind::kString: return "S:'" + v.str() + "'";
    case TypeKind::kBoolean: return v.i64() ? "B:1" : "B:0";
    default:
      std::snprintf(buf, sizeof buf, "%d:%" PRId64, static_cast<int>(v.kind()), v.i64());
      return buf;
  }
}

/// The fold: what `call` returns over one group's rows (`col` indexes the
/// argument in a table row; -1 for COUNT(*)), `type` being the argument's type.
Value Fold(const Call& call, int col, const DataType& type,
           const std::vector<const std::vector<Value>*>& rows) {
  if (col < 0) return Value::Bigint(static_cast<int64_t>(rows.size()));
  std::vector<Value> args;
  for (const std::vector<Value>* row : rows) {
    const Value& v = (*row)[static_cast<size_t>(col)];
    if (v.is_null()) continue;
    // DISTINCT keeps the first of equal values.
    if (call.distinct &&
        std::any_of(args.begin(), args.end(), [&](const Value& a) { return a == v; }))
      continue;
    args.push_back(v);
  }
  if (call.func == "COUNT") return Value::Bigint(static_cast<int64_t>(args.size()));
  if (args.empty()) return Value::Null();
  if (call.func == "MIN" || call.func == "MAX") {
    Value best = args[0];
    for (const Value& v : args)
      if (call.func == "MIN" ? Value::Compare(v, best) < 0 : Value::Compare(v, best) > 0)
        best = v;
    return best;
  }
  const bool as_double = call.func == "AVG" || type.kind == TypeKind::kDouble;
  // A DISTINCT DOUBLE fold adds in ascending order, so that it does not
  // depend on the order the values arrived in.
  if (as_double && call.distinct)
    std::sort(args.begin(), args.end(),
              [](const Value& a, const Value& b) { return Value::Compare(a, b) < 0; });
  if (as_double) {
    double sum = 0;
    for (const Value& v : args) sum += v.AsDouble();
    if (call.func == "AVG") return Value::Double(sum / static_cast<double>(args.size()));
    return Value::Double(sum);
  }
  int64_t sum = 0;
  if (type.kind == TypeKind::kDecimal) {
    const DataType result = DataType::Decimal(18, type.scale);
    for (const Value& v : args) sum = WrapAdd(sum, v.CastTo(result)->i64());
    return Value::Decimal(sum, type.scale);
  }
  for (const Value& v : args) sum = WrapAdd(sum, v.AsInt64());
  return Value::Bigint(sum);
}

/// A WHERE clause and the same predicate over a table row.
struct Filter {
  const char* sql;
  bool (*keep)(const std::vector<Value>& row);
};

const Filter kNoRows = {"id < 0", [](const std::vector<Value>&) { return false; }};
const Filter kTail = {"id >= 1000", [](const std::vector<Value>& row) {
                        return row[0].i64() >= 1000;
                      }};

class AggReferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs_ = new MemFileSystem();
    Config config;
    config.container_startup_us = 0;
    server_ = new HiveServer2(fs_, config);
    Connection conn = server_->Connect();
    ASSERT_TRUE(conn.Execute("CREATE TABLE a (id BIGINT, m BIGINT, g BIGINT, b BOOLEAN, i BIGINT, "
                             "f DOUBLE, fx DOUBLE, c DECIMAL(9,2), e DECIMAL(18,5), "
                             "s STRING, dt DATE, ts TIMESTAMP)")
                    .ok());
    const char* ints[] = {"CAST('-9223372036854775808' AS BIGINT)",
                          "9223372036854775807", "-1", "0", "1", "42", "1000000007"};
    const char* strs[] = {"''", "'a'", "'b'", "'ab'", "'zz'", "'Z'"};
    const char* dates[] = {"DATE '2020-01-01'", "DATE '2020-02-29'", "DATE '1999-12-31'",
                           "DATE '1970-01-01'"};
    const char* stamps[] = {"TIMESTAMP '2020-01-01 00:00:00'",
                            "TIMESTAMP '2020-01-01 12:34:56'",
                            "TIMESTAMP '1969-12-31 23:59:59'"};
    uint64_t x = 20190701;
    for (int file = 0; file < kFiles; ++file) {
      std::string sql = "INSERT INTO a VALUES ";
      for (int r = 0; r < kRowsPerFile; ++r) {
        const int id = file * kRowsPerFile + r;
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint32_t v = static_cast<uint32_t>(x >> 33);
        auto nullable = [&](int every, const std::string& value) {
          return id % every == 3 ? std::string("NULL") : value;
        };
        // Exact doubles: quarters in [-20, 20). Zeros of both signs occur
        // only in the first file, one morsel, so that which of them a group
        // meets first does not depend on how morsels spread over workers.
        char f[48], fx[48], c[32], e[32];
        const int q = static_cast<int>(v % 160) - 80;
        std::snprintf(f, sizeof f, "CAST('%.2f' AS DOUBLE)", (q == 0 ? 1 : q) / 4.0);
        if (file == 0 && r % 16 == 5) std::snprintf(f, sizeof f, "CAST('-0.0' AS DOUBLE)");
        if (file == 0 && r % 16 == 9) std::snprintf(f, sizeof f, "CAST('0.0' AS DOUBLE)");
        // Inexact doubles, now and then large enough to swallow the others.
        if (v % 17 == 0) {
          std::snprintf(fx, sizeof fx, "CAST('%u.1e15' AS DOUBLE)", (v >> 7) % 9 + 1);
        } else {
          std::snprintf(fx, sizeof fx, "CAST('%u.%u' AS DOUBLE)", (v >> 7) % 1000, (v >> 3) % 10);
        }
        const int quarters = static_cast<int>((v >> 5) % 4000) - 2000;
        std::snprintf(c, sizeof c, "%s%d.%02d", quarters < 0 ? "-" : "", std::abs(quarters) / 4,
                      std::abs(quarters) % 4 * 25);
        const int eighths = static_cast<int>((v >> 9) % 800) - 400;
        std::snprintf(e, sizeof e, "%s%d.%05d", eighths < 0 ? "-" : "", std::abs(eighths) / 8,
                      std::abs(eighths) % 8 * 12500);
        sql += r ? ", (" : "(";
        sql += std::to_string(id) + ", " + std::to_string(id % 300) + ", " +
               std::to_string(id % 40) + ", ";
        sql += nullable(7, v % 2 ? "true" : "false") + ", ";
        sql += nullable(5, ints[(v >> 3) % 7]) + ", ";
        sql += nullable(9, f) + ", ";
        sql += nullable(13, fx) + ", ";
        sql += nullable(6, c) + ", ";
        sql += nullable(8, e) + ", ";
        sql += nullable(10, strs[(v >> 11) % 6]) + ", ";
        sql += nullable(11, dates[(v >> 13) % 4]) + ", ";
        sql += nullable(12, stamps[(v >> 15) % 3]) + ")";
      }
      ASSERT_TRUE(conn.Execute(sql).ok()) << sql;
    }
    auto all = conn.Execute("SELECT * FROM a");
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    table_ = new QueryResult(std::move(*all));
  }
  static void TearDownTestSuite() {
    delete table_;
    delete server_;
    delete fs_;
  }

  static int ColumnOf(const std::string& name) {
    for (size_t i = 0; i < table_->schema.num_fields(); ++i)
      if (table_->schema.field(i).name == name) return static_cast<int>(i);
    ADD_FAILURE() << "no column " << name;
    return 0;
  }

  /// The GROUP BY `keys` query over the rows `where` keeps, and its expected
  /// rows from the fold (first-seen order), each rendered with Exact.
  static std::pair<std::string, std::vector<std::string>> Expected(
      const std::vector<std::string>& keys, const std::vector<Call>& calls,
      const Filter* where) {
    std::string sql = "SELECT ";
    for (const std::string& k : keys) sql += k + ", ";
    for (size_t j = 0; j < calls.size(); ++j)
      sql += (j ? ", " : "") + calls[j].Sql() + " AS a" + std::to_string(j);
    sql += " FROM a";
    if (where) sql += std::string(" WHERE ") + where->sql;
    for (size_t k = 0; k < keys.size(); ++k) sql += (k ? ", " : " GROUP BY ") + keys[k];

    std::vector<int> key_cols;
    for (const std::string& k : keys) key_cols.push_back(ColumnOf(k));
    std::vector<std::vector<Value>> group_keys;
    std::vector<std::vector<const std::vector<Value>*>> group_rows;
    for (const std::vector<Value>& row : table_->rows) {
      if (where && !where->keep(row)) continue;
      std::vector<Value> key;
      for (int c : key_cols) key.push_back(row[static_cast<size_t>(c)]);
      size_t g = 0;
      while (g < group_keys.size() && group_keys[g] != key) ++g;
      if (g == group_keys.size()) {
        group_keys.push_back(key);
        group_rows.emplace_back();
      }
      group_rows[g].push_back(&row);
    }
    // A global aggregate returns one row even over no input.
    if (keys.empty() && group_keys.empty()) {
      group_keys.emplace_back();
      group_rows.emplace_back();
    }
    std::vector<std::string> expected;
    for (size_t g = 0; g < group_keys.size(); ++g) {
      std::string line;
      for (const Value& k : group_keys[g]) line += Exact(k) + "|";
      for (const Call& call : calls) {
        const int col = call.col.empty() ? -1 : ColumnOf(call.col);
        const DataType type = col < 0 ? DataType::Bigint()
                                      : table_->schema.field(static_cast<size_t>(col)).type;
        line += Exact(Fold(call, col, type, group_rows[g])) + "|";
      }
      expected.push_back(std::move(line));
    }
    return {sql, expected};
  }

  static std::vector<std::string> Run(Connection& session, const std::string& sql) {
    auto result = session.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    std::vector<std::string> rows;
    if (!result.ok()) return rows;
    for (const auto& row : result->rows) {
      std::string line;
      for (const Value& v : row) line += Exact(v) + "|";
      rows.push_back(std::move(line));
    }
    return rows;
  }

  static Connection Session(int executors, int64_t budget) {
    Connection session = server_->Connect();
    session.config().result_cache_enabled = false;
    session.config().num_executors = executors;
    session.config().query_memory_limit_bytes = budget;
    return session;
  }

  /// Runs `keys` × `calls` in `session` and compares row by row.
  static void Check(Connection& session, const std::vector<std::string>& keys,
                    const std::vector<Call>& calls, const Filter* where = nullptr) {
    auto [sql, expected] = Expected(keys, calls, where);
    std::vector<std::string> got = Run(session, sql);
    ASSERT_EQ(got.size(), expected.size()) << sql;
    for (size_t r = 0; r < got.size(); ++r) {
      if (got[r] == expected[r]) continue;
      // Name the first differing column.
      size_t col = 0, at = 0;
      while (at < got[r].size() && at < expected[r].size() && got[r][at] == expected[r][at])
        if (got[r][at++] == '|') ++col;
      ADD_FAILURE() << sql << "\n  row " << r << ", column " << col << "\n  got:  " << got[r]
                    << "\n  want: " << expected[r];
      return;
    }
  }

  static std::vector<Call> OrderFreeCalls() {
    std::vector<Call> calls;
    for (const Call& call : AllCalls())
      if (!call.OrderSensitive()) calls.push_back(call);
    return calls;
  }

  static std::vector<std::vector<std::string>> KeySets() {
    return {{"b"}, {"i"}, {"f"}, {"c"}, {"e"}, {"s"}, {"dt"}, {"ts"}, {"s", "b"},
            {"dt", "i"}, {}};
  }

  static int64_t Metric(const char* name) { return server_->metrics()->Value(name); }

  static MemFileSystem* fs_;
  static HiveServer2* server_;
  static QueryResult* table_;
};

MemFileSystem* AggReferenceTest::fs_ = nullptr;
HiveServer2* AggReferenceTest::server_ = nullptr;
QueryResult* AggReferenceTest::table_ = nullptr;

TEST_F(AggReferenceTest, TableHoldsTheEdgeValues) {
  ASSERT_EQ(table_->rows.size(), static_cast<size_t>(kFiles * kRowsPerFile));
  bool neg_zero = false, pos_zero = false, min64 = false, max64 = false, empty = false;
  for (const auto& row : table_->rows) {
    const Value& f = row[static_cast<size_t>(ColumnOf("f"))];
    if (!f.is_null() && f.f64() == 0) (std::signbit(f.f64()) ? neg_zero : pos_zero) = true;
    const Value& i = row[static_cast<size_t>(ColumnOf("i"))];
    min64 |= !i.is_null() && i.i64() == INT64_MIN;
    max64 |= !i.is_null() && i.i64() == INT64_MAX;
    const Value& s = row[static_cast<size_t>(ColumnOf("s"))];
    empty |= !s.is_null() && s.str().empty();
  }
  EXPECT_TRUE(neg_zero && pos_zero && min64 && max64 && empty);
}

TEST_F(AggReferenceTest, SerialMatchesTheFoldExactly) {
  Connection session = Session(1, 0);
  for (const auto& keys : KeySets()) {
    SCOPED_TRACE(keys.empty() ? std::string("no keys") : keys[0]);
    Check(session, keys, AllCalls());
  }
  // Empty input: one global row, no keyed rows.
  Check(session, {}, AllCalls(), &kNoRows);
  Check(session, {"s"}, AllCalls(), &kNoRows);
  Check(session, {"s", "i"}, AllCalls(), &kTail);
}

TEST_F(AggReferenceTest, FourExecutorsMatchTheFoldExactly) {
  Connection session = Session(4, 0);
  for (const auto& keys : KeySets()) {
    SCOPED_TRACE(keys.empty() ? std::string("no keys") : keys[0]);
    Check(session, keys, OrderFreeCalls());
  }
}

TEST_F(AggReferenceTest, SpilledStateMatchesTheFold) {
  // 300 groups of every aggregate hold far more than 16 KiB, and so do 40
  // groups whose DISTINCT sets hold several values when they spill. A
  // spilled partition merges partials in a fixed order that is not the
  // input order; no group here meets two equal values it could keep either
  // of.
  for (int executors : {1, 4}) {
    SCOPED_TRACE(std::to_string(executors) + " executors");
    const int64_t spilled = Metric("exec.spill.bytes");
    Connection session = Session(executors, 16 * 1024);
    for (const auto& keys : std::vector<std::vector<std::string>>{{"m"}, {"g"}, {"s", "m"}})
      Check(session, keys, OrderFreeCalls());
    EXPECT_GT(Metric("exec.spill.bytes"), spilled) << "the budget never spilled";
  }
}

/// A GroupedAggState over one STRING key column, counting rows.
struct StringKeyState {
  static std::vector<ExprPtr> Key() {
    ExprPtr key = MakeColumnRef("", "k");
    key->binding = 0;
    key->type = DataType::String();
    return {key};
  }
  static std::vector<AggCall> Count() {
    AggCall count;
    count.func = "COUNT";
    count.result_type = DataType::Bigint();
    count.name = "n";
    return {count};
  }

  std::vector<ExprPtr> keys = Key();
  std::vector<AggCall> aggs = Count();
  GroupedAggState state{&keys, &aggs};

  Status Add(const std::vector<std::string>& values, uint64_t seq) {
    Schema schema;
    schema.AddField("k", DataType::String());
    RowBatch batch(schema);
    for (const std::string& v : values) batch.column(0)->AppendStr(v);
    batch.set_num_rows(values.size());
    return state.Consume(batch, seq);
  }
};

std::vector<std::string> Keys(int from, int to, size_t pad) {
  std::vector<std::string> out;
  for (int i = from; i < to; ++i) out.push_back(std::string(pad, 'k') + std::to_string(i));
  return out;
}

TEST(GroupedAggStateFootprintTest, GrowsWithGroupsAndKeyBytes) {
  StringKeyState narrow, wide;
  ASSERT_TRUE(narrow.Add(Keys(0, 200, 0), 0).ok());
  ASSERT_TRUE(wide.Add(Keys(0, 200, 200), 0).ok());
  const uint64_t narrow_200 = narrow.state.approx_bytes();
  // Repeated keys add no group.
  ASSERT_TRUE(narrow.Add(Keys(0, 200, 0), 200).ok());
  EXPECT_LT(narrow.state.approx_bytes(), narrow_200 + 200 * 8);
  ASSERT_TRUE(narrow.Add(Keys(200, 2000, 0), 400).ok());
  EXPECT_GE(narrow.state.approx_bytes(), narrow_200 + 1800 * 16)
      << "1800 more groups must cost at least their key and count";
  EXPECT_GE(wide.state.approx_bytes(), narrow_200 + 200 * 180)
      << "200 keys of 200 more bytes each must show in the footprint";
}

}  // namespace
}  // namespace hive
