// bi_warm: the paper's interactive path (Figure 7, Table 1) — the twenty
// Figure 7 TPC-DS queries on warm LLAP, with filter literals drawn from the
// seed. The result cache is off on the session so every statement plans and
// executes; the warm-up pass leaves the whole working set in the default
// 256 MB LLAP cache, so joins, aggregation, sort/window, shared work and
// semijoin reduction do the work and storage decode does none.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "common/rng.h"
#include "harness.h"
#include "obs/metric_names.h"
#include "server/workload_loader.h"

namespace hivebench {

namespace {

/// A literal in a query's text and the values the seed may replace it with.
struct Slot {
  std::string needle;
  std::vector<std::string> choices;
};

std::vector<std::string> Format(const char* fmt, const std::vector<std::string>& values) {
  std::vector<std::string> out;
  char buf[128];
  for (const std::string& v : values) {
    std::snprintf(buf, sizeof(buf), fmt, v.c_str());
    out.push_back(buf);
  }
  return out;
}

std::vector<std::string> Ints(int lo, int hi, int step = 1) {
  std::vector<std::string> out;
  for (int v = lo; v <= hi; v += step) out.push_back(std::to_string(v));
  return out;
}

const std::vector<std::string> kCategories = {"Sports",  "Books", "Home",  "Electronics",
                                              "Music",   "Jewelry", "Shoes", "Men",
                                              "Women",   "Children"};

/// Filter literals of the Figure 7 queries that the seed varies. Every
/// choice selects rows on the generated data; queries without a filter
/// literal run as written.
std::map<std::string, std::vector<Slot>> LiteralSlots() {
  auto category = [](const char* needle, const char* fmt) {
    return Slot{needle, Format(fmt, kCategories)};
  };
  std::vector<std::string> category_pairs;
  for (size_t i = 0; i < kCategories.size(); ++i)
    category_pairs.push_back("i_category IN ('" + kCategories[i] + "', '" +
                             kCategories[(i + 3) % kCategories.size()] + "')");
  return {
      {"q03",
       {category("i_category = 'Sports'", "i_category = '%s'"),
        {"d_moy = 11", Format("d_moy = %s", Ints(1, 12))}}},
      {"q15",
       {{"SUM(ss_sales_price) > 100",
         Format("SUM(ss_sales_price) > %s", {"50", "100", "500", "1000", "5000"})}}},
      {"q19", {category("i_category = 'Books'", "i_category = '%s'")}},
      {"q25_semijoin", {category("i_category = 'Sports'", "i_category = '%s'")}},
      {"q43_in_subquery", {{"i_category IN ('Sports', 'Music')", category_pairs}}},
      {"q52", {{"d_qoy = 1", Format("d_qoy = %s", Ints(1, 4))}}},
      {"q68_exists", {{"ss.ss_quantity > 15", Format("ss.ss_quantity > %s", Ints(5, 19))}}},
      {"q14_intersect", {category("i_category = 'Sports'", "i_category = '%s'")}},
      {"q12_interval", {{"INTERVAL 90 DAY", Format("INTERVAL %s DAY", Ints(30, 330, 30))}}},
      {"q58_correlated_scalar",
       {{"i_item_sk < 10", Format("i_item_sk < %s", Ints(5, 40, 5))}}},
      {"q79_multiway", {{"d_moy = 1", Format("d_moy = %s", Ints(1, 12))}}},
  };
}

class BiWarm : public Workload {
 public:
  BiWarm(uint64_t seed, bool smoke) : smoke_(smoke) {
    hive::Rng rng(seed ^ 0xb1);
    std::map<std::string, std::vector<Slot>> slots = LiteralSlots();
    // Each query gets a few seeded bindings of its literals; the stream
    // draws among them, so every distinct text repeats and the serial
    // reference re-runs stay few.
    std::vector<std::vector<std::string>> texts;
    for (const hive::BenchQuery& q : hive::TpcdsQueries()) {
      names_.push_back(q.name);
      std::set<std::string> bound;
      auto it = slots.find(q.name);
      for (int b = 0; b < kBindings; ++b) {
        std::string sql = q.sql;
        if (it != slots.end()) {
          for (const Slot& slot : it->second) {
            size_t pos = sql.find(slot.needle);
            if (pos == std::string::npos) {
              std::fprintf(stderr, "bi_warm: literal '%s' not in %s\n",
                           slot.needle.c_str(), q.name.c_str());
              std::exit(2);
            }
            sql.replace(pos, slot.needle.size(),
                        slot.choices[rng.Uniform(slot.choices.size())]);
          }
        }
        bound.insert(sql);
      }
      texts.emplace_back(bound.begin(), bound.end());
    }
    // Every query twice per deck, except q18_rollup (the slowest) once:
    // with equal shares the 95th percentile sits exactly in the gap between
    // the two slowest queries, where one sample more or less moves it by
    // half; with q18 at 1/39 it falls inside q88's band.
    const size_t n = smoke ? 1000 : kStreamLength;
    std::vector<int> copies(texts.size(), 2);
    for (size_t t = 0; t < names_.size(); ++t)
      if (names_[t] == "q18_rollup") copies[t] = 1;
    for (int t : DeckOrder(copies, n, rng)) {
      Stmt s;
      s.sql = texts[t][rng.Uniform(texts[t].size())];
      s.tmpl = t;
      stream_.push_back(std::move(s));
    }
    for (const auto& bindings : texts) first_bindings_.push_back(bindings.front());
  }

  std::string name() const override { return "bi_warm"; }
  std::vector<std::string> TemplateNames() const override { return names_; }

  void Load(Env& env) override {
    hive::TpcdsOptions options;
    options.scale = smoke_ ? 1 : kScale;
    Must(hive::LoadTpcds(env.conn, options), "loading TPC-DS");
    env.conn.config().result_cache_enabled = false;
  }

  std::vector<std::string> WarmUp() const override {
    // One scan touching every column of every table fills the LLAP cache
    // with the whole working set; one run of each query warms the rest.
    std::vector<std::string> out = {
        "SELECT COUNT(d_date_sk), COUNT(d_date), COUNT(d_year), COUNT(d_qoy), "
        "COUNT(d_moy), COUNT(d_dom) FROM date_dim",
        "SELECT COUNT(i_item_sk), COUNT(i_category), COUNT(i_brand), "
        "COUNT(i_current_price) FROM item",
        "SELECT COUNT(c_customer_sk), COUNT(c_name), COUNT(c_birth_country) FROM customer",
        "SELECT COUNT(s_store_sk), COUNT(s_state), COUNT(s_city) FROM store",
        "SELECT COUNT(ss_item_sk), COUNT(ss_customer_sk), COUNT(ss_store_sk), "
        "COUNT(ss_ticket_number), COUNT(ss_quantity), COUNT(ss_list_price), "
        "COUNT(ss_sales_price) FROM store_sales",
        "SELECT COUNT(sr_item_sk), COUNT(sr_ticket_number), COUNT(sr_customer_sk), "
        "COUNT(sr_return_amt), COUNT(sr_returned_date_sk) FROM store_returns",
    };
    out.insert(out.end(), first_bindings_.begin(), first_bindings_.end());
    return out;
  }

  int64_t Verify(Env& env, const std::vector<StmtRecord>& records) override {
    return VerifyAgainstReference(env, stream_, records);
  }

  bool CheckMechanism(Env& env, const std::vector<StmtRecord>& records,
                      const MetricDelta& delta, std::string* sizes) override {
    (void)records;
    namespace m = hive::obs::metric;
    auto get = [&delta](const char* name) { return Delta(delta, name); };
    const int64_t decodes = get(m::kLlapCacheDecodes);
    const int64_t used = env.server->metrics()->Value(m::kLlapCacheUsedBytes);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "timed-loop LLAP decodes %lld (must be 0), hits %lld, misses %lld; "
                  "cache holds %.1f MB of %.0f MB",
                  static_cast<long long>(decodes),
                  static_cast<long long>(get(m::kLlapCacheHits)),
                  static_cast<long long>(get(m::kLlapCacheMisses)),
                  static_cast<double>(used) / 1048576.0,
                  static_cast<double>(env.server->default_config().llap_cache_capacity_bytes) /
                      1048576.0);
    *sizes = buf;
    return decodes == 0 && get(m::kLlapCacheHits) > 0;
  }

  std::string ProbeTable() const override { return "store_sales"; }

  std::vector<std::pair<std::string, std::string>> FilterProbes() const override {
    // store_sales has no string column; the string kinds run on its keys
    // rendered as strings, through the same row-at-a-time fallback.
    return {{"numeric", "ss_quantity BETWEEN 5 AND 12"},
            {"case", "CASE WHEN ss_quantity > 10 THEN ss_item_sk ELSE 0 END > 50"},
            {"like", "CAST(ss_ticket_number AS STRING) LIKE '%77%'"},
            {"upper", "UPPER(CAST(ss_store_sk AS STRING)) = '7'"},
            {"substr", "SUBSTR(CAST(ss_ticket_number AS STRING), 1, 1) = '9'"}};
  }

 private:
  static constexpr int kScale = 2;
  static constexpr int kBindings = 3;
  static constexpr size_t kStreamLength = 20000;

  bool smoke_;
  std::vector<std::string> names_;
  std::vector<std::string> first_bindings_;
};

}  // namespace

std::unique_ptr<Workload> MakeBiWarm(uint64_t seed, bool smoke) {
  return std::make_unique<BiWarm>(seed, smoke);
}

}  // namespace hivebench
