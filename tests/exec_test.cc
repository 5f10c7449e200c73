#include <gtest/gtest.h>

#include "exec/compiler.h"
#include "fs/mem_filesystem.h"
#include "metastore/txn_manager.h"
#include "optimizer/binder.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "storage/chunk_provider.h"

namespace hive {
namespace {

/// End-to-end harness: parse -> bind -> optimize -> compile -> execute over
/// an in-memory warehouse, without the HS2 layer (covered separately).
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<Catalog>(&fs_);
    provider_ = std::make_unique<DirectChunkProvider>(&fs_);
    SetUpTables();
  }

  void SetUpTables() {
    // items: dimension table.
    TableDesc item;
    item.db = "default";
    item.name = "item";
    item.schema.AddField("i_item_sk", DataType::Bigint());
    item.schema.AddField("i_category", DataType::String());
    item.schema.AddField("i_price", DataType::Decimal(7, 2));
    ASSERT_TRUE(catalog_->CreateTable(item).ok());
    std::vector<std::vector<Value>> item_rows;
    for (int64_t i = 0; i < 20; ++i)
      item_rows.push_back({Value::Bigint(i),
                           Value::String(i % 4 == 0 ? "Sports" : (i % 4 == 1 ? "Books" : "Home")),
                           Value::Decimal(i * 150, 2)});
    WriteRows("item", item_rows);

    // store_sales: fact table partitioned by sold_date_sk.
    TableDesc sales;
    sales.db = "default";
    sales.name = "store_sales";
    sales.schema.AddField("ss_item_sk", DataType::Bigint());
    sales.schema.AddField("ss_customer_sk", DataType::Bigint());
    sales.schema.AddField("ss_sales_price", DataType::Decimal(7, 2));
    sales.partition_cols.push_back({"sold_date_sk", DataType::Bigint()});
    ASSERT_TRUE(catalog_->CreateTable(sales).ok());
    // 3 partitions (days 1..3), 60 rows each.
    for (int64_t day = 1; day <= 3; ++day) {
      ASSERT_TRUE(
          catalog_->AddPartition("default", "store_sales", {Value::Bigint(day)}).ok());
      std::vector<std::vector<Value>> rows;
      for (int64_t i = 0; i < 60; ++i)
        rows.push_back({Value::Bigint(i % 20), Value::Bigint(i % 7),
                        Value::Decimal((i + day) * 100, 2)});
      WritePartitionRows("store_sales", {Value::Bigint(day)}, rows);
    }
  }

  void WriteRows(const std::string& table, const std::vector<std::vector<Value>>& rows) {
    auto desc = catalog_->GetTable("default", table);
    ASSERT_TRUE(desc.ok());
    int64_t txn = txns_.OpenTxn();
    auto wid = txns_.AllocateWriteId(txn, desc->FullName());
    ASSERT_TRUE(wid.ok());
    AcidWriter writer(&fs_, desc->location, desc->schema, *wid);
    TableStatistics stats;
    stats.row_count = static_cast<int64_t>(rows.size());
    for (size_t c = 0; c < desc->schema.num_fields(); ++c) {
      ColumnStatistics col;
      for (const auto& row : rows) {
        col.num_values++;
        if (row[c].is_null()) {
          col.num_nulls++;
          continue;
        }
        if (col.min.is_null() || Value::Compare(row[c], col.min) < 0) col.min = row[c];
        if (col.max.is_null() || Value::Compare(row[c], col.max) > 0) col.max = row[c];
        col.ndv.Add(row[c]);
      }
      stats.columns[ToLower(desc->schema.field(c).name)] = col;
    }
    for (const auto& row : rows) writer.Insert(row);
    ASSERT_TRUE(writer.Commit().ok());
    ASSERT_TRUE(txns_.CommitTxn(txn).ok());
    ASSERT_TRUE(catalog_->MergeStats("default", table, stats).ok());
  }

  void WritePartitionRows(const std::string& table, const std::vector<Value>& part,
                          const std::vector<std::vector<Value>>& rows) {
    auto desc = catalog_->GetTable("default", table);
    ASSERT_TRUE(desc.ok());
    int64_t txn = txns_.OpenTxn();
    auto wid = txns_.AllocateWriteId(txn, desc->FullName());
    ASSERT_TRUE(wid.ok());
    std::string location =
        JoinPath(desc->location, Catalog::PartitionDirName(desc->partition_cols, part));
    AcidWriter writer(&fs_, location, desc->schema, *wid);
    for (const auto& row : rows) writer.Insert(row);
    ASSERT_TRUE(writer.Commit().ok());
    ASSERT_TRUE(txns_.CommitTxn(txn).ok());
    TableStatistics stats;
    stats.row_count = static_cast<int64_t>(rows.size());
    ASSERT_TRUE(catalog_->MergeStats("default", table, stats, part).ok());
  }

  Result<std::vector<std::vector<Value>>> Run(const std::string& sql) {
    HIVE_ASSIGN_OR_RETURN(StatementPtr stmt, Parser::Parse(sql));
    auto* select = dynamic_cast<SelectStatement*>(stmt.get());
    if (!select) return Status::InvalidArgument("not a select");
    Binder binder(catalog_.get(), &config_);
    HIVE_ASSIGN_OR_RETURN(RelNodePtr plan, binder.BindSelect(select->select));
    Optimizer optimizer(catalog_.get(), &config_);
    HIVE_ASSIGN_OR_RETURN(plan, optimizer.Optimize(plan));
    last_plan_ = plan;

    ExecContext ctx;
    ctx.fs = &fs_;
    ctx.catalog = catalog_.get();
    ctx.config = &config_;
    ctx.clock = &clock_;
    ctx.chunks = provider_.get();
    ctx.runtime_stats = runtime_stats_;
    ctx.profile = profile_;
    TxnSnapshot snap = txns_.GetSnapshot();
    ctx.snapshot_for = [this, snap](const std::string& table) {
      return txns_.GetValidWriteIds(table, snap);
    };
    HIVE_ASSIGN_OR_RETURN(OperatorPtr root, CompilePlan(&ctx, plan));
    return CollectRows(root.get());
  }

  MemFileSystem fs_;
  TransactionManager txns_;
  Config config_;
  SimClock clock_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<DirectChunkProvider> provider_;
  RelNodePtr last_plan_;
  /// Sinks Run hands to the execution context (null: none).
  RuntimeStats* runtime_stats_ = nullptr;
  obs::QueryProfile* profile_ = nullptr;
};

/// Every node of `plan` whose kind is `kind`, in pre-order.
void FindNodes(const RelNodePtr& plan, RelKind kind, std::vector<RelNodePtr>* out) {
  if (plan->kind == kind) out->push_back(plan);
  for (const RelNodePtr& input : plan->inputs) FindNodes(input, kind, out);
}

TEST_F(ExecTest, SelectStarFromDimension) {
  auto rows = Run("SELECT * FROM item");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 20u);
  EXPECT_EQ((*rows)[0].size(), 3u);
}

TEST_F(ExecTest, FilterAndProject) {
  auto rows = Run("SELECT i_item_sk, i_price FROM item WHERE i_category = 'Sports'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);  // items 0,4,8,12,16
  for (const auto& row : *rows) EXPECT_EQ(row[0].i64() % 4, 0);
}

TEST_F(ExecTest, ArithmeticAndAliases) {
  auto rows = Run("SELECT i_item_sk * 2 AS double_sk FROM item WHERE i_item_sk < 3");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  std::set<int64_t> got;
  for (const auto& row : *rows) got.insert(row[0].i64());
  EXPECT_EQ(got, (std::set<int64_t>{0, 2, 4}));
}

TEST_F(ExecTest, ScanPartitionedTable) {
  auto rows = Run("SELECT COUNT(*) FROM store_sales");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].i64(), 180);
}

TEST_F(ExecTest, StaticPartitionPruning) {
  auto rows = Run("SELECT COUNT(*) FROM store_sales WHERE sold_date_sk = 2");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 60);
  // The plan must show a single surviving partition.
  std::string plan_text = last_plan_->ToString();
  EXPECT_NE(plan_text.find("partitions: 1"), std::string::npos) << plan_text;
}

TEST_F(ExecTest, GroupByWithHaving) {
  auto rows = Run(
      "SELECT i_category, COUNT(*) AS c, SUM(i_price) AS total FROM item "
      "GROUP BY i_category HAVING COUNT(*) > 5 ORDER BY c DESC");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);  // only "Home" has 10
  EXPECT_EQ((*rows)[0][0].str(), "Home");
  EXPECT_EQ((*rows)[0][1].i64(), 10);
}

TEST_F(ExecTest, JoinFactToDimension) {
  auto rows = Run(
      "SELECT i_category, SUM(ss_sales_price) AS total FROM store_sales, item "
      "WHERE ss_item_sk = i_item_sk AND i_category = 'Sports' "
      "GROUP BY i_category");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].str(), "Sports");
  // 180 fact rows; item_sk = i%20; Sports items are 0,4,8,12,16 -> 45 rows.
}

TEST_F(ExecTest, ExplicitJoinSyntax) {
  auto rows = Run(
      "SELECT COUNT(*) FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 180);
}

TEST_F(ExecTest, LeftJoinPreservesUnmatched) {
  auto rows = Run(
      "SELECT i.i_item_sk, COUNT(ss.ss_item_sk) AS c FROM item i "
      "LEFT JOIN (SELECT * FROM store_sales WHERE ss_item_sk < 5) ss "
      "ON i.i_item_sk = ss.ss_item_sk GROUP BY i.i_item_sk ORDER BY i.i_item_sk");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 20u);
  EXPECT_GT((*rows)[0][1].i64(), 0);   // item 0 matched
  EXPECT_EQ((*rows)[10][1].i64(), 0);  // item 10 unmatched -> count 0
}

TEST_F(ExecTest, OrderByLimitDesc) {
  auto rows = Run("SELECT i_item_sk FROM item ORDER BY i_item_sk DESC LIMIT 3");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0][0].i64(), 19);
  EXPECT_EQ((*rows)[2][0].i64(), 17);
}

TEST_F(ExecTest, OrderByUnselectedColumn) {
  auto rows = Run("SELECT i_category FROM item ORDER BY i_item_sk LIMIT 2");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].str(), "Sports");  // item 0
  EXPECT_EQ((*rows)[1][0].str(), "Books");   // item 1
}

TEST_F(ExecTest, SetOperations) {
  auto u = Run(
      "SELECT i_item_sk FROM item WHERE i_item_sk < 3 UNION ALL "
      "SELECT i_item_sk FROM item WHERE i_item_sk < 2");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->size(), 5u);

  auto ud = Run(
      "SELECT i_item_sk FROM item WHERE i_item_sk < 3 UNION "
      "SELECT i_item_sk FROM item WHERE i_item_sk < 2");
  ASSERT_TRUE(ud.ok());
  EXPECT_EQ(ud->size(), 3u);

  auto in = Run(
      "SELECT i_item_sk FROM item WHERE i_item_sk < 5 INTERSECT "
      "SELECT i_item_sk FROM item WHERE i_item_sk > 2");
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->size(), 2u);  // 3, 4

  auto ex = Run(
      "SELECT i_item_sk FROM item WHERE i_item_sk < 5 EXCEPT "
      "SELECT i_item_sk FROM item WHERE i_item_sk > 2");
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex->size(), 3u);  // 0, 1, 2
}

TEST_F(ExecTest, LegacyModeRejectsSetOps) {
  config_.SetLegacyV12Mode();
  auto r = Run("SELECT i_item_sk FROM item INTERSECT SELECT i_item_sk FROM item");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotSupported());
}

TEST_F(ExecTest, UncorrelatedInSubquery) {
  auto rows = Run(
      "SELECT COUNT(*) FROM store_sales WHERE ss_item_sk IN "
      "(SELECT i_item_sk FROM item WHERE i_category = 'Sports')");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 45);
}

TEST_F(ExecTest, NotInSubquery) {
  auto rows = Run(
      "SELECT COUNT(*) FROM store_sales WHERE ss_item_sk NOT IN "
      "(SELECT i_item_sk FROM item WHERE i_category = 'Sports')");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 135);
}

TEST_F(ExecTest, CorrelatedExists) {
  auto rows = Run(
      "SELECT COUNT(*) FROM item i WHERE EXISTS "
      "(SELECT 1 FROM store_sales ss WHERE ss.ss_item_sk = i.i_item_sk "
      " AND ss.ss_sales_price > CAST(50 AS DECIMAL(7,2)))");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT((*rows)[0][0].i64(), 0);
  EXPECT_LE((*rows)[0][0].i64(), 20);
}

TEST_F(ExecTest, CorrelatedScalarAggSubquery) {
  auto rows = Run(
      "SELECT i_item_sk, (SELECT COUNT(*) FROM store_sales ss "
      "WHERE ss.ss_item_sk = i.i_item_sk) AS sales_count "
      "FROM item i ORDER BY i_item_sk LIMIT 5");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 5u);
  // Every item_sk 0..19 appears 9 times (3 per partition x 3 partitions).
  EXPECT_EQ((*rows)[0][1].i64(), 9);
}

TEST_F(ExecTest, ScalarSubqueryComparison) {
  auto rows = Run(
      "SELECT COUNT(*) FROM item WHERE i_price > (SELECT AVG(i_price) FROM item)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 10);  // prices 0..28.50, avg 14.25 -> 10 above
}

TEST_F(ExecTest, CaseExpression) {
  auto rows = Run(
      "SELECT SUM(CASE WHEN i_category = 'Sports' THEN 1 ELSE 0 END) FROM item");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 5);
}

TEST_F(ExecTest, DistinctAndCountDistinct) {
  auto rows = Run("SELECT COUNT(DISTINCT i_category) FROM item");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 3);

  auto d = Run("SELECT DISTINCT i_category FROM item");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 3u);
}

TEST_F(ExecTest, WindowFunctions) {
  auto rows = Run(
      "SELECT i_item_sk, i_category, "
      "ROW_NUMBER() OVER (PARTITION BY i_category ORDER BY i_price DESC) AS rn "
      "FROM item ORDER BY i_category, rn LIMIT 4");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0][2].i64(), 1);
  EXPECT_EQ((*rows)[1][2].i64(), 2);
}

TEST_F(ExecTest, WindowAggregateOverPartition) {
  auto rows = Run(
      "SELECT i_item_sk, SUM(i_price) OVER (PARTITION BY i_category) AS cat_total "
      "FROM item WHERE i_category = 'Books' ORDER BY i_item_sk");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 5u);
  // All rows share the same category total.
  for (size_t i = 1; i < rows->size(); ++i)
    EXPECT_EQ((*rows)[i][1].ToString(), (*rows)[0][1].ToString());
}

TEST_F(ExecTest, GroupingSetsExpandToUnion) {
  auto rows = Run(
      "SELECT i_category, COUNT(*) AS c FROM item "
      "GROUP BY i_category GROUPING SETS ((i_category), ())");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 4u);  // 3 categories + 1 grand total
  int64_t grand_total = 0;
  for (const auto& row : *rows)
    if (row[0].is_null()) grand_total = row[1].i64();
  EXPECT_EQ(grand_total, 20);
}

TEST_F(ExecTest, WindowOverRollupRanksAllSetsTogether) {
  // The grand total outranks every category: one ranking over all sets.
  auto rows = Run(
      "SELECT i_category, SUM(ss_sales_price) AS total, "
      "RANK() OVER (ORDER BY SUM(ss_sales_price) DESC) AS rnk "
      "FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY ROLLUP (i_category)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 4u);
  std::set<int64_t> ranks;
  for (const auto& row : *rows) {
    ranks.insert(row[2].i64());
    if (row[0].is_null()) {
      EXPECT_EQ(row[2].i64(), 1);
    }
  }
  EXPECT_EQ(ranks, (std::set<int64_t>{1, 2, 3, 4}));
}

TEST_F(ExecTest, SelectDistinctOverGroupingSetsSpansAllSets) {
  // Each category appears in both sets; DISTINCT keeps it once.
  auto rows = Run(
      "SELECT DISTINCT i_category FROM item GROUP BY i_category, i_price "
      "GROUPING SETS ((i_category, i_price), (i_category))");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(ExecTest, Ctes) {
  auto rows = Run(
      "WITH sporty AS (SELECT i_item_sk FROM item WHERE i_category = 'Sports') "
      "SELECT COUNT(*) FROM sporty");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 5);
}

TEST_F(ExecTest, JoinReorderingProducesSameResult) {
  const std::string sql =
      "SELECT COUNT(*) FROM store_sales ss, item i, "
      "(SELECT 1 AS one) d WHERE ss.ss_item_sk = i.i_item_sk";
  config_.cbo_enabled = true;
  auto with_cbo = Run(sql);
  ASSERT_TRUE(with_cbo.ok()) << with_cbo.status().ToString();
  config_.cbo_enabled = false;
  auto without_cbo = Run(sql);
  ASSERT_TRUE(without_cbo.ok()) << without_cbo.status().ToString();
  EXPECT_EQ((*with_cbo)[0][0].i64(), (*without_cbo)[0][0].i64());
}

TEST_F(ExecTest, SemiJoinReductionSkipsRowGroups) {
  // Dimension filter is selective; the reducer should push a Bloom/range
  // into the fact scan. Results must match with the feature off.
  const std::string sql =
      "SELECT SUM(ss_sales_price) FROM store_sales, item "
      "WHERE ss_item_sk = i_item_sk AND i_category = 'Books'";
  config_.semijoin_reduction_enabled = true;
  auto on = Run(sql);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  config_.semijoin_reduction_enabled = false;
  auto off = Run(sql);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ((*on)[0][0].ToString(), (*off)[0][0].ToString());
}

TEST_F(ExecTest, SharedWorkProducesSameResults) {
  const std::string sql =
      "SELECT (SELECT COUNT(*) FROM store_sales WHERE ss_customer_sk = 1) AS a, "
      "(SELECT COUNT(*) FROM store_sales WHERE ss_customer_sk = 1) AS b";
  config_.shared_work_enabled = true;
  auto on = Run(sql);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ((*on)[0][0].i64(), (*on)[0][1].i64());
}

TEST_F(ExecTest, SpooledSubtreeRecordsItsRuntimeStatsOnce) {
  // The two scalar subqueries aggregate the same filtered scan, so shared
  // work runs the scan once into a spool that both aggregates read.
  // RuntimeStats::Record accumulates, so the scan must be recorded once,
  // by the operator that read it, and not again by each spool reader.
  // Serial and parallel scans, with and without a profile, all agree.
  const std::string sql =
      "SELECT (SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_customer_sk = 1) AS a, "
      "(SELECT SUM(ss_sales_price) FROM store_sales WHERE ss_customer_sk = 1) AS b";
  config_.shared_work_enabled = true;
  for (bool parallel : {false, true}) {
    for (bool profiled : {false, true}) {
      SCOPED_TRACE(std::string(parallel ? "parallel" : "serial") +
                   (profiled ? ", profiled" : ""));
      config_.parallel_scan_enabled = parallel;
      RuntimeStats stats;
      obs::QueryProfile profile;
      runtime_stats_ = &stats;
      profile_ = profiled ? &profile : nullptr;
      auto rows = Run(sql);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ((*rows)[0][0].i64(), 27);  // 9 of each day's 60 rows, 3 days
      std::vector<RelNodePtr> aggs, scans;
      FindNodes(last_plan_, RelKind::kAggregate, &aggs);
      FindNodes(last_plan_, RelKind::kScan, &scans);
      ASSERT_EQ(aggs.size(), 2u);
      ASSERT_EQ(scans.size(), 2u);
      ASSERT_EQ(scans[0]->Digest(), scans[1]->Digest());
      MutexLock lock(&stats.mu);
      EXPECT_EQ(stats.row_counts[scans[0]->Digest()], 27);
      for (const RelNodePtr& agg : aggs) EXPECT_EQ(stats.row_counts[agg->Digest()], 1);
    }
  }
}

TEST_F(ExecTest, ParallelScanRecordsEachStageDigest) {
  // RAND() keeps the filter above the projection, so the parallel scan runs
  // it as a stage: the scan digest counts every row the workers read, the
  // filter's digest the rows that pass (ss_customer_sk 0 or 1: 18 a day).
  const std::string sql =
      "SELECT ss_item_sk FROM (SELECT ss_item_sk, ss_customer_sk + RAND() AS r "
      "FROM store_sales) x WHERE r < 2";
  config_.parallel_scan_enabled = true;
  RuntimeStats stats;
  runtime_stats_ = &stats;
  auto rows = Run(sql);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 54u);
  std::vector<RelNodePtr> filters, scans;
  FindNodes(last_plan_, RelKind::kFilter, &filters);
  FindNodes(last_plan_, RelKind::kScan, &scans);
  ASSERT_EQ(filters.size(), 1u);
  ASSERT_EQ(scans.size(), 1u);
  MutexLock lock(&stats.mu);
  EXPECT_EQ(stats.row_counts[scans[0]->Digest()], 180);
  EXPECT_EQ(stats.row_counts[filters[0]->Digest()], 54);
}

TEST_F(ExecTest, EmptyResultSets) {
  auto rows = Run("SELECT * FROM item WHERE i_item_sk > 1000");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(rows->empty());
  auto agg = Run("SELECT COUNT(*), SUM(i_price) FROM item WHERE i_item_sk > 1000");
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 1u);
  EXPECT_EQ((*agg)[0][0].i64(), 0);
  EXPECT_TRUE((*agg)[0][1].is_null());
}

TEST_F(ExecTest, SelectWithoutFrom) {
  auto rows = Run("SELECT 1 + 2, 'x' || 'y'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].i64(), 3);
  EXPECT_EQ((*rows)[0][1].str(), "xy");
}

TEST_F(ExecTest, DecimalAggregationIsExact) {
  auto rows = Run("SELECT SUM(i_price) FROM item");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // Sum of i*1.50 for i in 0..19 = 1.5 * 190 = 285.00
  EXPECT_EQ((*rows)[0][0].ToString(), "285.00");
}

TEST_F(ExecTest, BetweenAndInList) {
  auto rows = Run(
      "SELECT COUNT(*) FROM item WHERE i_item_sk BETWEEN 5 AND 10 "
      "AND i_category IN ('Sports', 'Books')");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // 5..10: categories: 5:Books? 5%4=1 Books, 8:Sports, 9:Books -> 3
  EXPECT_EQ((*rows)[0][0].i64(), 3);
}

TEST_F(ExecTest, OrderByAndBetweenOverFarApartBigints) {
  TableDesc big;
  big.db = "default";
  big.name = "big";
  big.schema.AddField("a", DataType::Bigint());
  ASSERT_TRUE(catalog_->CreateTable(big).ok());
  const int64_t kFar = 9000000000000000000LL;
  WriteRows("big", {{Value::Bigint(kFar)}, {Value::Bigint(-kFar)}, {Value::Bigint(1)}});
  auto sorted = Run("SELECT a FROM big ORDER BY a");
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_EQ(sorted->size(), 3u);
  EXPECT_EQ((*sorted)[0][0].i64(), -kFar);
  EXPECT_EQ((*sorted)[1][0].i64(), 1);
  EXPECT_EQ((*sorted)[2][0].i64(), kFar);
  auto count = Run(
      "SELECT COUNT(*) FROM big WHERE a BETWEEN -9000000000000000000 AND "
      "9000000000000000000");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ((*count)[0][0].i64(), 3);
}

TEST_F(ExecTest, DateAgainstBigintOrdersByKindLikeConstantFolding) {
  TableDesc dates;
  dates.db = "default";
  dates.name = "dates";
  dates.schema.AddField("d", DataType::Date());
  ASSERT_TRUE(catalog_->CreateTable(dates).ok());
  WriteRows("dates", {{Value::Date(18262)}, {Value::Date(0)}, {Value::Date(-5)}});
  // Value::Compare orders a DATE after any BIGINT, folded or not.
  auto folded = Run("SELECT DATE '2020-01-01' > 100000");
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_TRUE((*folded)[0][0].bool_value());
  auto count = Run("SELECT COUNT(*) FROM dates WHERE d > 100000");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ((*count)[0][0].i64(), 3);
}

TEST_F(ExecTest, MixedTypeUnionAllTakesTheWiderType) {
  // The branches are cast to a type both fit (here the right branch's
  // DOUBLE), so operators above the union read one type per column: the 2.5
  // is neither truncated to the left branch's BIGINT nor read as one.
  const std::string u =
      "(SELECT 1 AS x FROM item WHERE i_item_sk = 0 UNION ALL "
      "SELECT 2.5 AS x FROM item WHERE i_item_sk = 0) u";
  auto filtered = Run("SELECT x, CAST(x AS STRING) FROM " + u + " WHERE x > 2");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_EQ(filtered->size(), 1u);
  EXPECT_EQ((*filtered)[0][0].AsDouble(), 2.5);
  EXPECT_EQ((*filtered)[0][1].str(), "2.5");
  auto projected = Run("SELECT x, x > 2, x * 2 FROM " + u + " ORDER BY x DESC");
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  ASSERT_EQ(projected->size(), 2u);
  EXPECT_EQ((*projected)[0][0].AsDouble(), 2.5);
  EXPECT_TRUE((*projected)[0][1].bool_value());
  EXPECT_EQ((*projected)[0][2].AsDouble(), 5.0);
  EXPECT_EQ((*projected)[1][0].AsDouble(), 1.0);
  EXPECT_FALSE((*projected)[1][1].bool_value());
  for (const auto& row : *projected) EXPECT_EQ(row[0].kind(), TypeKind::kDouble);
  // A join key and a GROUP BY key over the union see the same values.
  auto grouped = Run("SELECT x, COUNT(*) FROM " + u + " GROUP BY x ORDER BY x");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->size(), 2u);
  EXPECT_EQ((*grouped)[1][0].AsDouble(), 2.5);
  auto joined = Run("SELECT COUNT(*) FROM " + u + " JOIN item ON x = i_item_sk");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ((*joined)[0][0].i64(), 1);  // only 1 matches an item key
}

TEST_F(ExecTest, LikePredicate) {
  auto rows = Run("SELECT COUNT(*) FROM item WHERE i_category LIKE 'S%'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].i64(), 5);
}

}  // namespace
}  // namespace hive
