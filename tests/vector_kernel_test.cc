#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/column_vector.h"
#include "common/hash.h"
#include "exec/vector_eval.h"
#include "fs/mem_filesystem.h"
#include "server/hive_server.h"

namespace hive {
namespace {

/// Every kind a ColumnVector stores, on each of its three payload buffers.
std::vector<DataType> KernelTypes() {
  return {DataType::Boolean(), DataType::Bigint(),  DataType::Double(),
          DataType::Decimal(7, 2), DataType::String(), DataType::Date(),
          DataType::Timestamp()};
}

/// Values of `type` with a NULL in the middle and the cases the kernels
/// special-case: the empty string, long strings, integral and fractional
/// DOUBLE and DECIMAL values, zero and negatives.
std::vector<Value> Samples(const DataType& type) {
  switch (type.kind) {
    case TypeKind::kBoolean:
      return {Value::Boolean(true), Value::Null(), Value::Boolean(false),
              Value::Boolean(true)};
    case TypeKind::kBigint:
      return {Value::Bigint(7), Value::Null(), Value::Bigint(-3), Value::Bigint(0),
              Value::Bigint(INT64_MAX)};
    case TypeKind::kDouble:
      return {Value::Double(2.0),    Value::Null(),      Value::Double(2.5),
              Value::Double(-0.125), Value::Double(0.0), Value::Double(-4e15)};
    case TypeKind::kDecimal:
      return {Value::Decimal(250, 2), Value::Null(),         Value::Decimal(200, 2),
              Value::Decimal(-7, 2),  Value::Decimal(0, 2),  Value::Decimal(-300, 2)};
    case TypeKind::kString:
      return {Value::String("a"), Value::Null(), Value::String(""),
              Value::String("a string well past the small-string buffer"),
              Value::String("z")};
    case TypeKind::kDate:
      return {Value::Date(19000), Value::Null(), Value::Date(-1), Value::Date(0)};
    case TypeKind::kTimestamp:
      return {Value::Timestamp(1700000000000000), Value::Null(), Value::Timestamp(0),
              Value::Timestamp(-5)};
    case TypeKind::kNull:
      break;
  }
  return {};
}

ColumnVector Column(const DataType& type, const std::vector<Value>& values) {
  ColumnVector col(type);
  for (const Value& v : values) col.AppendValue(v);
  return col;
}

void ExpectSameBuffers(const ColumnVector& actual, const ColumnVector& expected) {
  EXPECT_EQ(actual.validity(), expected.validity());
  EXPECT_EQ(actual.i64_data(), expected.i64_data());
  EXPECT_EQ(actual.f64_data(), expected.f64_data());
  EXPECT_EQ(actual.str_data(), expected.str_data());
  EXPECT_EQ(actual.ByteSize(), expected.ByteSize());
}

TEST(AppendGatherTest, MatchesAppendFromLoop) {
  for (const DataType& type : KernelTypes()) {
    SCOPED_TRACE(type.ToString());
    const std::vector<Value> values = Samples(type);
    ColumnVector src = Column(type, values);
    const int32_t n = static_cast<int32_t>(src.size());
    // A NULL whose payload still holds a value, as SetNull and the
    // vectorized kernels leave it: the copy must write AppendNull's payload.
    src.SetNull(static_cast<size_t>(n - 1));
    // Repeated, out-of-order and -1 entries, then every row backwards.
    std::vector<int32_t> rows = {n - 1, 0, -1, 1, 1, n - 1, -1, 2, 0};
    for (int32_t r = n - 1; r >= 0; --r) rows.push_back(r);
    for (size_t prefix : {size_t{0}, size_t{3}}) {
      SCOPED_TRACE("prefix " + std::to_string(prefix));
      ColumnVector expected =
          Column(type, std::vector<Value>(values.begin(), values.begin() + prefix));
      ColumnVector actual = expected;
      for (int32_t r : rows) {
        if (r < 0) {
          expected.AppendNull();
        } else {
          expected.AppendFrom(src, static_cast<size_t>(r));
        }
      }
      actual.AppendGather(src, rows.data(), rows.size());
      ExpectSameBuffers(actual, expected);
      // An empty gather appends nothing.
      actual.AppendGather(src, rows.data(), 0);
      ExpectSameBuffers(actual, expected);
    }
  }
}

TEST(AppendGatherTest, RowBatchCopiesMatchCellLoops) {
  Schema schema;
  for (const DataType& type : KernelTypes()) schema.AddField(type.ToString(), type);
  RowBatch batch(schema);
  const size_t rows = 4;  // the shortest sample list
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const std::vector<Value> values = Samples(schema.field(c).type);
    batch.SetColumn(c, std::make_shared<ColumnVector>(Column(
                           schema.field(c).type,
                           std::vector<Value>(values.begin(), values.begin() + rows))));
  }
  batch.set_num_rows(rows);
  batch.SetSelection({3, 1, 2});

  RowBatch expected(schema);
  for (size_t i = 0; i < batch.SelectedSize(); ++i)
    for (size_t c = 0; c < schema.num_fields(); ++c)
      expected.column(c)->AppendFrom(*batch.column(c),
                                     static_cast<size_t>(batch.SelectedRow(i)));

  RowBatch appended(schema);
  appended.AppendSelected(batch);
  EXPECT_EQ(appended.num_rows(), 3u);
  RowBatch flat = batch;
  flat.Flatten();
  EXPECT_EQ(flat.num_rows(), 3u);
  EXPECT_FALSE(flat.has_selection());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    SCOPED_TRACE(schema.field(c).name);
    ExpectSameBuffers(*appended.column(c), *expected.column(c));
    ExpectSameBuffers(*flat.column(c), *expected.column(c));
  }
  // Without a selection every physical row is appended, in order.
  RowBatch dense(schema);
  dense.AppendSelected(flat);
  EXPECT_EQ(dense.num_rows(), 3u);
  for (size_t c = 0; c < schema.num_fields(); ++c)
    ExpectSameBuffers(*dense.column(c), *expected.column(c));
}

TEST(HashColumnTest, EqualsBoxedValueHash) {
  for (const DataType& type : KernelTypes()) {
    SCOPED_TRACE(type.ToString());
    ColumnVector col = Column(type, Samples(type));
    col.SetNull(0);  // payload kept, validity cleared
    std::vector<uint64_t> hashes;
    HashColumn(col, nullptr, col.size(), &hashes);
    ASSERT_EQ(hashes.size(), col.size());
    for (size_t i = 0; i < col.size(); ++i)
      EXPECT_EQ(hashes[i], col.GetValue(i).Hash()) << "row " << i;
    // Through a row list: the hash of rows[k] lands at k.
    const std::vector<int32_t> rows = {2, 0, 2, 1};
    HashColumn(col, rows.data(), rows.size(), &hashes);
    ASSERT_EQ(hashes.size(), rows.size());
    for (size_t k = 0; k < rows.size(); ++k)
      EXPECT_EQ(hashes[k], col.GetValue(static_cast<size_t>(rows[k])).Hash())
          << "entry " << k;
  }
}

TEST(HashColumnTest, IntegralValuesHashAcrossKinds) {
  // Integral DOUBLE and DECIMAL values hash like the BIGINT they equal;
  // a semijoin Bloom filter built on one kind is probed with another.
  const ColumnVector d = Column(DataType::Double(), {Value::Double(2.0), Value::Double(2.5)});
  const ColumnVector m =
      Column(DataType::Decimal(7, 2), {Value::Decimal(200, 2), Value::Decimal(250, 2)});
  std::vector<uint64_t> dh, mh;
  HashColumn(d, nullptr, 2, &dh);
  HashColumn(m, nullptr, 2, &mh);
  EXPECT_EQ(dh[0], Value::Bigint(2).Hash());
  EXPECT_EQ(mh[0], Value::Bigint(2).Hash());
  EXPECT_EQ(dh[1], mh[1]);
  EXPECT_NE(dh[1], Value::Bigint(2).Hash());
}

TEST(HashKeyColumnsTest, FoldsBoxedValueHashes) {
  std::vector<ColumnVectorPtr> keys = {
      std::make_shared<ColumnVector>(Column(
          DataType::Bigint(),
          {Value::Bigint(1), Value::Null(), Value::Bigint(3), Value::Bigint(4)})),
      std::make_shared<ColumnVector>(Column(
          DataType::String(),
          {Value::String(""), Value::String("b"), Value::Null(), Value::String("d")}))};
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> valid;
  HashKeyColumns(keys, 4, &hashes, &valid);
  for (size_t i = 0; i < 4; ++i) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const ColumnVectorPtr& k : keys) h = HashCombine(h, k->GetValue(i).Hash());
    EXPECT_EQ(hashes[i], h) << "row " << i;
  }
  EXPECT_EQ(valid, (std::vector<uint8_t>{1, 0, 0, 1}));
}

/// The hash join's output checked against a nested loop over the boxed
/// inputs. Every other join check compares engine configurations that run
/// the same probe; this one catches a wrong gather (a swapped side, a
/// misplaced null extension) that all of them would share.
class JoinReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Config config;
    config.container_startup_us = 0;
    server_ = std::make_unique<HiveServer2>(&fs_, config);
    session_ = server_->Connect();
    session_.config().result_cache_enabled = false;
    Run("CREATE TABLE l (k BIGINT, s STRING, d DOUBLE)");
    Run("INSERT INTO l VALUES (1, 'a', 1.5), (2, '', NULL), (2, 'b', 2.0), "
        "(NULL, 'n', 0.5), (3, NULL, 3.25), (5, 'e', -1.0), (2, 'c', 9.0)");
    Run("CREATE TABLE r (k BIGINT, t STRING, x DECIMAL(7,2))");
    Run("INSERT INTO r VALUES (2, 'b', 1.25), (3, 'c', NULL), (2, NULL, 3.00), "
        "(4, 'a', 4.50), (NULL, 'e', 0.00), (6, '', 2.00)");
    left_ = Run("SELECT k, s, d FROM l").rows;
    right_ = Run("SELECT k, t, x FROM r").rows;
  }

  QueryResult Run(const std::string& sql) {
    auto r = session_.Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sql;
    return r.ok() ? *r : QueryResult{};
  }

  static std::string Line(const std::vector<Value>& row) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    return line;
  }

  static std::vector<std::string> Sorted(std::vector<std::string> lines) {
    std::sort(lines.begin(), lines.end());
    return lines;
  }

  std::vector<std::string> Actual(const std::string& sql) {
    std::vector<std::string> out;
    for (const auto& row : Run(sql).rows) out.push_back(Line(row));
    return Sorted(out);
  }

  /// Nested-loop join on column `lk` = column `rk` (NULL never matches).
  std::vector<std::string> Reference(size_t lk, size_t rk, bool keep_left,
                                     bool keep_right) const {
    const std::vector<Value> nulls(3, Value::Null());
    std::vector<std::string> out;
    std::vector<bool> right_matched(right_.size(), false);
    for (const auto& l : left_) {
      bool matched = false;
      for (size_t j = 0; j < right_.size(); ++j) {
        const auto& r = right_[j];
        if (l[lk].is_null() || r[rk].is_null() || Value::Compare(l[lk], r[rk]) != 0)
          continue;
        matched = true;
        right_matched[j] = true;
        std::vector<Value> row = l;
        row.insert(row.end(), r.begin(), r.end());
        out.push_back(Line(row));
      }
      if (!matched && keep_left) {
        std::vector<Value> row = l;
        row.insert(row.end(), nulls.begin(), nulls.end());
        out.push_back(Line(row));
      }
    }
    for (size_t j = 0; j < right_.size(); ++j) {
      if (right_matched[j] || !keep_right) continue;
      std::vector<Value> row = nulls;
      row.insert(row.end(), right_[j].begin(), right_[j].end());
      out.push_back(Line(row));
    }
    return Sorted(out);
  }

  /// Rows of l with (semi) or without (anti) a match on k.
  std::vector<std::string> SemiReference(bool anti) const {
    std::vector<std::string> out;
    for (const auto& l : left_) {
      bool matched = false;
      for (const auto& r : right_)
        matched |= !l[0].is_null() && !r[0].is_null() && Value::Compare(l[0], r[0]) == 0;
      if (matched != anti) out.push_back(Line(l));
    }
    return Sorted(out);
  }

  MemFileSystem fs_;
  std::unique_ptr<HiveServer2> server_;
  Connection session_;
  std::vector<std::vector<Value>> left_, right_;
};

TEST_F(JoinReferenceTest, EveryJoinTypeMatchesNestedLoop) {
  const std::string cols = "SELECT l.k, l.s, l.d, r.k, r.t, r.x FROM l ";
  for (int executors : {1, 4}) {
    SCOPED_TRACE("executors " + std::to_string(executors));
    session_.config().num_executors = executors;
    EXPECT_EQ(Actual(cols + "JOIN r ON l.k = r.k"), Reference(0, 0, false, false));
    EXPECT_EQ(Actual(cols + "LEFT JOIN r ON l.k = r.k"), Reference(0, 0, true, false));
    EXPECT_EQ(Actual(cols + "RIGHT JOIN r ON l.k = r.k"), Reference(0, 0, false, true));
    EXPECT_EQ(Actual(cols + "FULL JOIN r ON l.k = r.k"), Reference(0, 0, true, true));
    EXPECT_EQ(Actual(cols + "FULL JOIN r ON l.s = r.t"), Reference(1, 1, true, true));
    EXPECT_EQ(Actual("SELECT k, s, d FROM l WHERE k IN (SELECT k FROM r)"),
              SemiReference(false));
    EXPECT_EQ(Actual("SELECT k, s, d FROM l WHERE NOT EXISTS "
                     "(SELECT 1 FROM r WHERE r.k = l.k)"),
              SemiReference(true));
  }
}

}  // namespace
}  // namespace hive
