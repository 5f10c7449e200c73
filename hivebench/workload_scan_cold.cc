// scan_cold: ad-hoc scans bound by storage and cache (§5.1). A wide
// denormalised sales table (CTAS over store_sales ⋈ item ⋈ customer ⋈
// store, with string columns) whose decoded working set is at least four
// times llap.cache.capacity.bytes, so every scan misses, decodes and
// evicts. Seeded templates: LIKE/CASE/UPPER/SUBSTR filters (the
// row-at-a-time fallback), a numeric filter for contrast, a LIMIT without
// ORDER BY, and one high-cardinality GROUP BY that spills under
// query.memory.limit.bytes. The optimizer does little here.

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/rng.h"
#include "harness.h"
#include "obs/metric_names.h"
#include "server/workload_loader.h"
#include "storage/cof.h"
#include "trace.h"

namespace hivebench {

namespace {

constexpr const char* kTable = "sales_wide";

const std::vector<std::string> kCategories = {"SPORTS", "BOOKS",   "HOME",  "ELECTRONICS",
                                              "MUSIC",  "JEWELRY", "SHOES", "MEN",
                                              "WOMEN",  "CHILDREN"};
const std::vector<std::string> kStates = {"CA", "NY", "TX", "WA", "OR", "IL"};

/// Columns the templates read; the decoded working set is their chunks.
const std::vector<std::string> kTemplateColumns = {
    "ss_ticket_number", "ss_item_sk", "ss_quantity", "ss_list_price", "ss_sales_price",
    "i_category",       "i_brand",    "c_name",      "s_state"};

enum Template { kNumeric, kLike, kCase, kUpper, kSubstr, kLimit, kGroupBy, kNumTemplates };

std::string Render(Template t, hive::Rng& rng) {
  auto num = [&rng](int64_t lo, int64_t hi) { return std::to_string(rng.Range(lo, hi)); };
  switch (t) {
    case kNumeric: {
      int64_t lo = rng.Range(1, 12);
      return "SELECT COUNT(*), SUM(ss_sales_price), MAX(ss_list_price) FROM sales_wide "
             "WHERE ss_quantity BETWEEN " + std::to_string(lo) + " AND " +
             std::to_string(lo + 6) + " AND ss_list_price > " + num(20, 150);
    }
    case kLike:
      return "SELECT COUNT(*), SUM(ss_sales_price) FROM sales_wide WHERE c_name LIKE '%" +
             num(1, 9) + num(0, 9) + "%'";
    case kCase:
      return "SELECT COUNT(*), SUM(ss_quantity) FROM sales_wide WHERE CASE WHEN s_state = '" +
             kStates[rng.Uniform(kStates.size())] +
             "' THEN ss_quantity WHEN i_category = 'Books' THEN ss_quantity + 5 "
             "ELSE 0 END > " + num(5, 18);
    case kUpper:
      return "SELECT COUNT(*), SUM(ss_sales_price) FROM sales_wide WHERE UPPER(i_category) = '" +
             kCategories[rng.Uniform(kCategories.size())] + "'";
    case kSubstr:
      return "SELECT COUNT(*), MIN(ss_ticket_number) FROM sales_wide "
             "WHERE SUBSTR(i_brand, 7, 1) = '" + num(0, 9) + "'";
    case kLimit:
      return "SELECT ss_ticket_number, c_name, i_brand, ss_sales_price FROM sales_wide "
             "WHERE ss_quantity > " + num(2, 15) + " LIMIT " + num(10, 100);
    case kGroupBy:
      return "SELECT c_name, ss_item_sk, COUNT(*) AS cnt, SUM(ss_sales_price) AS amt "
             "FROM sales_wide WHERE ss_quantity > " + num(1, 4) +
             " GROUP BY c_name, ss_item_sk HAVING COUNT(*) > 1 "
             "ORDER BY amt DESC, c_name, ss_item_sk LIMIT 20";
    case kNumTemplates:
      break;
  }
  return "";
}

class ScanCold : public Workload {
 public:
  ScanCold(uint64_t seed, bool smoke) : smoke_(smoke) {
    hive::Rng rng(seed ^ 0x5c);
    // Each template gets a few seeded literal bindings; the stream draws
    // among them at fixed shares.
    std::vector<std::vector<std::string>> texts(kNumTemplates);
    for (int t = 0; t < kNumTemplates; ++t) {
      std::set<std::string> bound;
      for (int b = 0; b < kBindings; ++b) bound.insert(Render(static_cast<Template>(t), rng));
      texts[t].assign(bound.begin(), bound.end());
    }
    // Per 20-statement deck: each filter kind and the LIMIT three times, the
    // spilling GROUP BY (the slowest) twice, so the 95th percentile falls
    // in the middle of its band.
    const std::vector<int> copies = {3, 3, 3, 3, 3, 3, 2};
    const size_t n = smoke ? 1000 : kStreamLength;
    for (int t : DeckOrder(copies, n, rng)) {
      Stmt s;
      s.sql = texts[t][rng.Uniform(texts[t].size())];
      s.tmpl = t;
      stream_.push_back(std::move(s));
    }
    for (const auto& bindings : texts) first_bindings_.push_back(bindings.front());
  }

  std::string name() const override { return "scan_cold"; }
  std::vector<std::string> TemplateNames() const override {
    return {"numeric", "like", "case", "upper", "substr", "limit", "groupby"};
  }

  hive::Config ServerConfig() const override {
    hive::Config config;
    config.llap_cache_capacity_bytes = smoke_ ? kCacheBytes / 4 : kCacheBytes;
    return config;
  }

  void Load(Env& env) override {
    hive::TpcdsOptions options;
    options.scale = smoke_ ? 1 : kScale;
    options.customers = 2000;
    Must(hive::LoadTpcds(env.conn, options), "loading TPC-DS");
    // One CTAS for the first day, then one INSERT ... SELECT per day, so the
    // table spans several files and no statement materializes all of it.
    const std::string select =
        "SELECT ss_ticket_number, ss_item_sk, ss_customer_sk, ss_store_sk, ss_quantity, "
        "ss_list_price, ss_sales_price, ss_sold_date_sk AS sold_date_sk, i_category, "
        "i_brand, i_current_price, c_name, c_birth_country, s_state, s_city "
        "FROM store_sales, item, customer, store WHERE ss_item_sk = i_item_sk "
        "AND ss_customer_sk = c_customer_sk AND ss_store_sk = s_store_sk "
        "AND ss_sold_date_sk = ";
    for (int day = 0; day < options.days; ++day) {
      std::string sql = (day == 0 ? std::string("CREATE TABLE sales_wide AS ")
                                  : std::string("INSERT INTO sales_wide ")) +
                        select + std::to_string(day);
      Must(env.conn.Execute(sql).status(), "building sales_wide");
    }
    env.conn.config().result_cache_enabled = false;
    env.conn.config().query_memory_limit_bytes = kQueryMemoryBytes;
  }

  std::vector<std::string> WarmUp() const override { return first_bindings_; }

  int64_t Verify(Env& env, const std::vector<StmtRecord>& records) override {
    return VerifyAgainstReference(env, stream_, records);
  }

  bool CheckMechanism(Env& env, const std::vector<StmtRecord>& records,
                      const MetricDelta& delta, std::string* sizes) override {
    namespace m = hive::obs::metric;
    auto get = [&delta](const char* name) { return Delta(delta, name); };
    int64_t limit_runs = 0;
    for (const StmtRecord& r : records)
      if (r.ok && stream_[r.index].tmpl == kLimit) ++limit_runs;
    const int64_t working_set = DecodedWorkingSet(env);
    const int64_t capacity = env.server->default_config().llap_cache_capacity_bytes;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "decoded working set %.1f MB = %.1fx the %.1f MB LLAP cache (must be >= 4x); "
                  "timed loop spilled %.1f MB (must be > 0), ran %lld LIMIT statements "
                  "(must be > 0), evicted %lld chunks",
                  static_cast<double>(working_set) / 1048576.0,
                  static_cast<double>(working_set) / static_cast<double>(capacity),
                  static_cast<double>(capacity) / 1048576.0,
                  static_cast<double>(get(m::kSpillBytes)) / 1048576.0,
                  static_cast<long long>(limit_runs),
                  static_cast<long long>(get(m::kLlapCacheEvictions)));
    *sizes = buf;
    return working_set >= 4 * capacity && get(m::kSpillBytes) > 0 && limit_runs > 0;
  }

  std::string ProbeTable() const override { return kTable; }

  std::vector<std::pair<std::string, std::string>> FilterProbes() const override {
    return {{"numeric", "ss_quantity BETWEEN 5 AND 12 AND ss_list_price > 50"},
            {"case",
             "CASE WHEN s_state = 'CA' THEN ss_quantity WHEN i_category = 'Books' "
             "THEN ss_quantity + 5 ELSE 0 END > 10"},
            {"like", "c_name LIKE '%17%'"},
            {"upper", "UPPER(i_category) = 'BOOKS'"},
            {"substr", "SUBSTR(i_brand, 7, 1) = '1'"}};
  }

 private:
  static constexpr int kScale = 3;
  static constexpr int kBindings = 4;
  static constexpr size_t kStreamLength = 20000;
  static constexpr int64_t kCacheBytes = 2LL << 20;
  static constexpr int64_t kQueryMemoryBytes = 2LL << 20;

  /// Decoded bytes of every chunk of the template columns, over all files.
  int64_t DecodedWorkingSet(Env& env) const {
    auto desc = env.server->catalog()->GetTable("default", kTable);
    Must(desc.status(), "sales_wide");
    int64_t bytes = 0;
    for (const std::string& path : ListFilesRecursive(env.mem.get(), desc->location)) {
      auto reader = hive::CofReader::Open(env.mem.get(), path);
      if (!reader.ok()) continue;
      const hive::Schema& schema = (*reader)->schema();
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        bool used = false;
        for (const std::string& col : kTemplateColumns)
          used = used || schema.field(c).name == col;
        if (!used) continue;
        for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
          auto chunk = (*reader)->ReadColumnChunk(rg, c);
          Must(chunk.status(), "decoding " + path);
          bytes += static_cast<int64_t>((*chunk)->ByteSize());
        }
      }
    }
    return bytes;
  }

  bool smoke_;
  std::vector<std::string> first_bindings_;
};

}  // namespace

std::unique_ptr<Workload> MakeScanCold(uint64_t seed, bool smoke) {
  return std::make_unique<ScanCold>(seed, smoke);
}

}  // namespace hivebench
