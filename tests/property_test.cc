#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "fs/mem_filesystem.h"
#include "storage/acid.h"
#include "storage/cof.h"

namespace hive {
namespace {

Schema MixedSchema() {
  Schema s;
  s.AddField("k", DataType::Bigint());
  s.AddField("price", DataType::Decimal(9, 2));
  s.AddField("tag", DataType::String());
  s.AddField("score", DataType::Double());
  return s;
}

std::vector<std::vector<Value>> GenerateRows(size_t n, int null_percent,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto maybe_null = [&](Value v) {
      return rng.Uniform(100) < static_cast<uint64_t>(null_percent) ? Value::Null()
                                                                    : v;
    };
    rows.push_back({maybe_null(Value::Bigint(rng.Range(-1000, 1000))),
                    maybe_null(Value::Decimal(rng.Range(0, 100000), 2)),
                    maybe_null(Value::String("tag" + std::to_string(rng.Uniform(7)))),
                    maybe_null(Value::Double(rng.NextDouble() * 100))});
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Property sweep 1: COF round-trip over a grid of row-group sizes, null
// densities and row counts. Invariants: every value (incl. NULLs) survives;
// file stats match; sarg-based skipping is SOUND (skipped row groups never
// contain matching rows).
// ---------------------------------------------------------------------------

using CofParam = std::tuple<size_t /*row_group*/, int /*null%*/, size_t /*rows*/,
                            bool /*bloom*/>;

class CofRoundTrip : public ::testing::TestWithParam<CofParam> {};

TEST_P(CofRoundTrip, PreservesDataAndSkipsSoundly) {
  auto [row_group, null_percent, num_rows, bloom] = GetParam();
  MemFileSystem fs;
  Schema schema = MixedSchema();
  CofWriteOptions options;
  options.row_group_size = row_group;
  if (bloom) options.bloom_columns = {"k"};
  auto rows = GenerateRows(num_rows, null_percent, 42 + num_rows);

  CofWriter writer(schema, options);
  for (const auto& row : rows) writer.AppendRow(row);
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs.WriteFile("/f", *bytes).ok());
  auto reader = CofReader::Open(&fs, "/f");
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->NumRows(), num_rows);

  // Round-trip equality, row by row.
  size_t global = 0;
  for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
    auto batch = (*reader)->ReadRowGroup(rg, {0, 1, 2, 3});
    ASSERT_TRUE(batch.ok());
    for (size_t i = 0; i < batch->num_rows(); ++i, ++global) {
      for (size_t c = 0; c < 4; ++c) {
        Value got = batch->column(c)->GetValue(i);
        const Value& want = rows[global][c];
        ASSERT_EQ(got.is_null(), want.is_null()) << "row " << global << " col " << c;
        if (!want.is_null())
          ASSERT_EQ(Value::Compare(got, want), 0)
              << "row " << global << " col " << c << ": " << got.ToString()
              << " != " << want.ToString();
      }
    }
  }
  ASSERT_EQ(global, num_rows);

  // Sarg soundness: for several point/range probes, every matching row must
  // live in a row group that MightMatch did NOT skip.
  Rng probe_rng(7);
  for (int probe = 0; probe < 20; ++probe) {
    Value needle = Value::Bigint(probe_rng.Range(-1000, 1000));
    SearchArgument sarg;
    sarg.conjuncts.push_back({"k", SargOp::kEq, {needle}, nullptr});
    size_t base = 0;
    for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
      size_t rg_rows = (*reader)->row_group(rg).num_rows;
      if (!(*reader)->MightMatch(rg, sarg)) {
        for (size_t i = 0; i < rg_rows; ++i) {
          const Value& v = rows[base + i][0];
          ASSERT_TRUE(v.is_null() || Value::Compare(v, needle) != 0)
              << "skipped row group contains matching row";
        }
      }
      base += rg_rows;
    }
  }

  // File-level stats match the data.
  ColumnChunkStats stats = (*reader)->FileStats(0);
  Value min, max;
  uint64_t nulls = 0;
  for (const auto& row : rows) {
    if (row[0].is_null()) {
      ++nulls;
      continue;
    }
    if (min.is_null() || Value::Compare(row[0], min) < 0) min = row[0];
    if (max.is_null() || Value::Compare(row[0], max) > 0) max = row[0];
  }
  EXPECT_EQ(stats.null_count, nulls);
  if (!min.is_null()) {
    EXPECT_EQ(Value::Compare(stats.min, min), 0);
    EXPECT_EQ(Value::Compare(stats.max, max), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CofRoundTrip,
    ::testing::Combine(::testing::Values<size_t>(16, 128, 4096),
                       ::testing::Values(0, 15, 90),
                       ::testing::Values<size_t>(1, 100, 3000),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Property sweep 2: ACID snapshot correctness against a reference model.
// A random history of insert/delete transactions (some aborted) is applied;
// for EVERY prefix snapshot, the ACID scan must equal a trivial in-memory
// model replay.
// ---------------------------------------------------------------------------

class AcidModelCheck : public ::testing::TestWithParam<uint64_t /*seed*/> {};

TEST_P(AcidModelCheck, EverysnapshotMatchesModel) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  MemFileSystem fs;
  Schema schema;
  schema.AddField("v", DataType::Bigint());

  struct ModelRow {
    int64_t write_id;
    int64_t row_id;
    int64_t value;
  };
  // Model state per committed write id: rows inserted and record ids deleted.
  std::map<int64_t, std::vector<ModelRow>> inserted_by_wid;
  std::map<int64_t, std::vector<RecordId>> deleted_by_wid;
  std::set<int64_t> aborted;
  std::vector<ModelRow> live_pool;  // committed rows, candidates for deletion

  const int kTxns = 25;
  for (int64_t wid = 1; wid <= kTxns; ++wid) {
    AcidWriter writer(&fs, "/t", schema, wid);
    bool abort = rng.Uniform(5) == 0;
    std::vector<ModelRow> txn_rows;
    std::vector<RecordId> txn_deletes;
    int inserts = static_cast<int>(rng.Range(0, 4));
    for (int i = 0; i < inserts; ++i) {
      int64_t value = rng.Range(0, 1000);
      writer.Insert({Value::Bigint(value)});
      txn_rows.push_back({wid, static_cast<int64_t>(i), value});
    }
    if (!live_pool.empty() && rng.Uniform(2) == 0) {
      size_t victim = rng.Uniform(live_pool.size());
      RecordId id{live_pool[victim].write_id, 0, live_pool[victim].row_id};
      writer.Delete(id);
      txn_deletes.push_back(id);
    }
    ASSERT_TRUE(writer.Commit().ok());
    if (abort) {
      aborted.insert(wid);
    } else {
      inserted_by_wid[wid] = txn_rows;
      deleted_by_wid[wid] = txn_deletes;
      for (const auto& row : txn_rows) live_pool.push_back(row);
    }
  }

  // Check every prefix snapshot (hwm from 0..kTxns), excluding aborted ids.
  for (int64_t hwm = 0; hwm <= kTxns; ++hwm) {
    ValidWriteIdList snapshot;
    snapshot.high_watermark = hwm;
    for (int64_t a : aborted)
      if (a <= hwm) snapshot.exceptions.insert(a);

    // Model replay.
    std::multiset<int64_t> expected;
    std::set<std::tuple<int64_t, int64_t>> deleted;
    for (int64_t wid = 1; wid <= hwm; ++wid) {
      if (aborted.count(wid)) continue;
      for (const RecordId& id : deleted_by_wid[wid])
        deleted.insert({id.write_id, id.row_id});
    }
    for (int64_t wid = 1; wid <= hwm; ++wid) {
      if (aborted.count(wid)) continue;
      for (const ModelRow& row : inserted_by_wid[wid])
        if (!deleted.count({row.write_id, row.row_id})) expected.insert(row.value);
    }

    // Engine scan.
    AcidReader reader(&fs, "/t", schema);
    ASSERT_TRUE(reader.Open(snapshot, {}).ok());
    std::multiset<int64_t> got;
    bool done = false;
    for (;;) {
      auto batch = reader.NextBatch(&done);
      ASSERT_TRUE(batch.ok());
      if (done) break;
      for (size_t i = 0; i < batch->SelectedSize(); ++i)
        got.insert(batch->GetRow(i)[0].i64());
    }
    ASSERT_EQ(got, expected) << "seed " << seed << " hwm " << hwm;
  }

  // The same invariant must hold after minor+major compaction for the full
  // snapshot (compaction never changes visible data).
  ValidWriteIdList full;
  full.high_watermark = kTxns;
  for (int64_t a : aborted) full.exceptions.insert(a);
  Compactor compactor(&fs, "/t", schema);
  ASSERT_TRUE(compactor.RunMinor(full).ok());
  ASSERT_TRUE(compactor.RunMajor(full).ok());
  ASSERT_TRUE(compactor.Clean(full).ok());

  std::multiset<int64_t> expected;
  {
    std::set<std::tuple<int64_t, int64_t>> deleted;
    for (const auto& [wid, ids] : deleted_by_wid)
      for (const RecordId& id : ids) deleted.insert({id.write_id, id.row_id});
    for (const auto& [wid, rows] : inserted_by_wid)
      for (const ModelRow& row : rows)
        if (!deleted.count({row.write_id, row.row_id})) expected.insert(row.value);
  }
  AcidReader reader(&fs, "/t", schema);
  ASSERT_TRUE(reader.Open(full, {}).ok());
  std::multiset<int64_t> got;
  bool done = false;
  for (;;) {
    auto batch = reader.NextBatch(&done);
    ASSERT_TRUE(batch.ok());
    if (done) break;
    for (size_t i = 0; i < batch->SelectedSize(); ++i)
      got.insert(batch->GetRow(i)[0].i64());
  }
  EXPECT_EQ(got, expected) << "post-compaction divergence, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcidModelCheck,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Property sweep 3: Value total-order and hash consistency over random
// value pairs (join/group-by correctness depends on these).
// ---------------------------------------------------------------------------

class ValueOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueOrderProperty, OrderIsTotalAndHashConsistent) {
  Rng rng(GetParam());
  // Extremes more than INT64_MAX apart from each other and from the small
  // values: a comparison that subtracts payloads orders them wrongly.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t extremes[] = {kMin, kMin + 1, kMax - 1, kMax};
  auto extreme = [&] { return extremes[rng.Uniform(4)]; };
  auto random_value = [&]() -> Value {
    switch (rng.Uniform(9)) {
      case 0: return Value::Null();
      case 1: return Value::Bigint(rng.Range(-50, 50));
      case 2: return Value::Double(static_cast<double>(rng.Range(-50, 50)));
      case 3: return Value::Decimal(rng.Range(-5000, 5000), 2);
      case 4: return Value::String(std::string(1, 'a' + rng.Uniform(5)));
      case 5: return Value::Bigint(extreme());
      case 6: return Value::Decimal(rng.Uniform(2) ? extreme() : rng.Range(-5000, 5000), 2);
      case 7: return Value::Date(rng.Uniform(2) ? extreme() : rng.Range(-50, 50));
      default: return Value::Timestamp(rng.Uniform(2) ? extreme() : rng.Range(-50, 50));
    }
  };
  std::vector<Value> values;
  for (int i = 0; i < 60; ++i) values.push_back(random_value());
  for (const Value& a : values) {
    EXPECT_EQ(Value::Compare(a, a), 0) << "reflexive";
    for (const Value& b : values) {
      int ab = Value::Compare(a, b);
      int ba = Value::Compare(b, a);
      EXPECT_EQ(ab > 0, ba < 0) << "antisymmetric: " << a.ToString() << " vs "
                                << b.ToString();
      EXPECT_EQ(ab == 0, ba == 0);
      if (ab == 0 && !a.is_null())
        EXPECT_EQ(a.Hash(), b.Hash())
            << "equal values must hash equal: " << a.ToString() << " / "
            << b.ToString();
      for (const Value& c : values) {
        if (ab <= 0 && Value::Compare(b, c) <= 0)
          EXPECT_LE(Value::Compare(a, c), 0)
              << "transitive: " << a.ToString() << " <= " << b.ToString()
              << " <= " << c.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderProperty, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace hive
