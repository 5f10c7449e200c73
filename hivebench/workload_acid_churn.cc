// acid_churn: writes beside reads on one ACID table (§3.2, §8). The seeded
// stream mixes analytic reads, repeated dashboard reads and PREPARE/EXECUTE
// point lookups with INSERT/UPDATE/DELETE/MERGE at fixed shares. Compaction
// thresholds stay at their defaults, so compaction cycles many times per
// run. The work falls on per-statement parse and plan cost, the plan and
// result caches, transactions, merge-on-read and synchronous compaction —
// a gain for reads that costs writes, or the reverse, shows here. Reads and
// the final table are checked against the benchmark's own model of the DML
// stream.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/rng.h"
#include "harness.h"
#include "obs/metric_names.h"
#include "storage/acid.h"

namespace hivebench {

namespace {

struct Row {
  int64_t grp = 0;
  int64_t bal = 0;
  std::string note;
};

using Table = std::map<int64_t, Row>;

enum Template { kPoint, kGroupAgg, kTop, kDash, kReport, kInsert, kUpdate, kDelete, kMerge,
                kNumTemplates };

/// The parameters of one statement, which the model replays.
struct Op {
  Template tmpl = kPoint;
  int64_t a = 0;  // id, group or range start
  int64_t b = 0;  // range end, delta or dashboard number
  std::vector<std::pair<int64_t, Row>> rows;  // INSERT rows or MERGE source
};

constexpr int kDashboards = 3;
const char* kDashboardSql[kDashboards] = {
    "SELECT COUNT(*), SUM(bal), MIN(id), MAX(id) FROM acct",
    "SELECT grp, COUNT(*), SUM(bal) FROM acct WHERE bal > 95000 GROUP BY grp ORDER BY grp",
    "SELECT note, COUNT(*) FROM acct WHERE grp < 5 GROUP BY note ORDER BY note"};

Row MakeRow(hive::Rng& rng, int64_t id) {
  return Row{rng.Range(0, 99), rng.Range(0, 100000), "note" + std::to_string(id % 50)};
}

int64_t RowBytes(const Row& r) { return 8 + 8 + 8 + static_cast<int64_t>(r.note.size()); }

std::string Literal(int64_t id, const Row& r) {
  return "(" + std::to_string(id) + ", " + std::to_string(r.grp) + ", " +
         std::to_string(r.bal) + ", '" + r.note + "')";
}

using Rows = std::vector<std::vector<hive::Value>>;

/// The expected result of a read under the model.
Rows Expected(const Op& op, const Table& t) {
  using hive::Value;
  Rows out;
  switch (op.tmpl) {
    case kPoint: {
      auto it = t.find(op.a);
      if (it != t.end())
        out.push_back({Value::Bigint(op.a), Value::Bigint(it->second.grp),
                       Value::Bigint(it->second.bal), Value::String(it->second.note)});
      break;
    }
    case kGroupAgg: {
      std::map<int64_t, std::pair<int64_t, int64_t>> groups;
      for (const auto& [id, r] : t)
        if (r.grp >= op.a && r.grp <= op.b) {
          auto& g = groups[r.grp];
          ++g.first;
          g.second += r.bal;
        }
      for (const auto& [grp, g] : groups)
        out.push_back({Value::Bigint(grp), Value::Bigint(g.first), Value::Bigint(g.second)});
      break;
    }
    case kTop: {
      std::vector<std::pair<int64_t, int64_t>> hits;  // (bal, id)
      for (const auto& [id, r] : t)
        if (r.grp == op.a) hits.push_back({r.bal, id});
      std::sort(hits.begin(), hits.end(), [](const auto& x, const auto& y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
      });
      for (size_t i = 0; i < hits.size() && i < 10; ++i)
        out.push_back({Value::Bigint(hits[i].second), Value::Bigint(hits[i].first)});
      break;
    }
    case kDash: {
      if (op.b == 0) {
        if (t.empty()) {
          out.push_back({Value::Bigint(0), Value::Null(), Value::Null(), Value::Null()});
          break;
        }
        int64_t sum = 0;
        for (const auto& [id, r] : t) sum += r.bal;
        out.push_back({Value::Bigint(static_cast<int64_t>(t.size())), Value::Bigint(sum),
                       Value::Bigint(t.begin()->first), Value::Bigint(t.rbegin()->first)});
      } else if (op.b == 1) {
        std::map<int64_t, std::pair<int64_t, int64_t>> groups;
        for (const auto& [id, r] : t)
          if (r.bal > 95000) {
            auto& g = groups[r.grp];
            ++g.first;
            g.second += r.bal;
          }
        for (const auto& [grp, g] : groups)
          out.push_back({Value::Bigint(grp), Value::Bigint(g.first), Value::Bigint(g.second)});
      } else {
        std::map<std::string, int64_t> notes;
        for (const auto& [id, r] : t)
          if (r.grp < 5) ++notes[r.note];
        for (const auto& [note, n] : notes)
          out.push_back({Value::String(note), Value::Bigint(n)});
      }
      break;
    }
    case kReport: {
      std::map<int64_t, std::pair<int64_t, int64_t>> groups;
      for (const auto& [id, r] : t) {
        if (r.grp >= op.a) continue;
        auto next = t.find(id + 1);
        if (next == t.end()) continue;
        auto& g = groups[r.grp];
        ++g.first;
        g.second += next->second.bal;
      }
      for (const auto& [grp, g] : groups)
        out.push_back({Value::Bigint(grp), Value::Bigint(g.first), Value::Bigint(g.second)});
      break;
    }
    default:
      break;
  }
  return out;
}

/// Applies a write to the model; returns the rows it affected.
int64_t Apply(const Op& op, Table* t) {
  int64_t affected = 0;
  switch (op.tmpl) {
    case kInsert:
      for (const auto& [id, r] : op.rows) (*t)[id] = r;
      affected = static_cast<int64_t>(op.rows.size());
      break;
    case kUpdate:
      for (auto it = t->lower_bound(op.a); it != t->end() && it->first <= op.a + 9; ++it) {
        it->second.bal += op.b;
        ++affected;
      }
      break;
    case kDelete: {
      auto first = t->lower_bound(op.a);
      auto last = t->upper_bound(op.b);
      affected = static_cast<int64_t>(std::distance(first, last));
      t->erase(first, last);
      break;
    }
    case kMerge:
      for (const auto& [id, r] : op.rows) {
        auto it = t->find(id);
        if (it != t->end())
          it->second.bal = r.bal;
        else
          (*t)[id] = r;
        ++affected;
      }
      break;
    default:
      break;
  }
  return affected;
}

Rows TableRows(const Table& t) {
  Rows out;
  for (const auto& [id, r] : t)
    out.push_back({hive::Value::Bigint(id), hive::Value::Bigint(r.grp),
                   hive::Value::Bigint(r.bal), hive::Value::String(r.note)});
  return out;
}

class AcidChurn : public Workload {
 public:
  AcidChurn(uint64_t seed, bool smoke) {
    hive::Rng rng(seed ^ 0xac1d);
    const int64_t initial = smoke ? 5000 : kInitialRows;
    for (int64_t id = 0; id < initial; ++id) initial_[id] = MakeRow(rng, id);
    int64_t next_id = initial;
    // Per 42-statement deck (template order as in the enum): 30 reads and
    // 12 writes. The range GROUP BY holds 60% of the reads, so the read
    // median falls well inside its band; the self-join report, the slowest
    // read, holds 13%, so the 95th percentile falls inside its band.
    const std::vector<int> copies = {3, 18, 2, 3, 4, 5, 3, 3, 1};
    const size_t n = smoke ? 1000 : kStreamLength;
    for (int t : DeckOrder(copies, n, rng)) {
      Op op;
      op.tmpl = static_cast<Template>(t);
      Stmt s;
      s.tmpl = t;
      s.is_read = t <= kReport;
      switch (op.tmpl) {
        case kPoint:
          op.a = rng.Range(0, next_id - 1);
          s.sql = "EXECUTE pk (" + std::to_string(op.a) + ")";
          s.adhoc_sql = "SELECT id, grp, bal, note FROM acct WHERE id = " + std::to_string(op.a);
          break;
        case kGroupAgg:
          op.a = rng.Range(0, 90);
          op.b = op.a + 9;
          s.sql = "SELECT grp, COUNT(*) AS cnt, SUM(bal) AS total FROM acct WHERE grp BETWEEN " +
                  std::to_string(op.a) + " AND " + std::to_string(op.b) +
                  " GROUP BY grp ORDER BY grp";
          break;
        case kTop:
          op.a = rng.Range(0, 99);
          s.sql = "SELECT id, bal FROM acct WHERE grp = " + std::to_string(op.a) +
                  " ORDER BY bal DESC, id LIMIT 10";
          break;
        case kDash:
          op.b = static_cast<int64_t>(rng.Uniform(kDashboards));
          s.sql = kDashboardSql[op.b];
          break;
        case kReport:
          op.a = rng.Range(5, 15);
          s.sql = "SELECT a.grp, COUNT(*) AS pairs, SUM(b.bal) AS next_bal FROM acct a "
                  "JOIN acct b ON b.id = a.id + 1 WHERE a.grp < " + std::to_string(op.a) +
                  " GROUP BY a.grp ORDER BY a.grp";
          break;
        case kInsert: {
          s.sql = "INSERT INTO acct VALUES ";
          for (int r = 0; r < 10; ++r) {
            Row row = MakeRow(rng, next_id);
            s.sql += (r ? ", " : "") + Literal(next_id, row);
            op.rows.push_back({next_id++, row});
          }
          s.user_bytes = RowBytes(op.rows.front().second);
          break;
        }
        case kUpdate:
          op.a = rng.Range(0, next_id - 10);
          op.b = rng.Range(1, 500);
          s.sql = "UPDATE acct SET bal = bal + " + std::to_string(op.b) + " WHERE id BETWEEN " +
                  std::to_string(op.a) + " AND " + std::to_string(op.a + 9);
          s.user_bytes = 8 + 8;  // key + new balance
          break;
        case kDelete:
          op.a = rng.Range(0, next_id - 12);
          op.b = op.a + 11;
          s.sql = "DELETE FROM acct WHERE id BETWEEN " + std::to_string(op.a) + " AND " +
                  std::to_string(op.b);
          s.user_bytes = 8;  // key
          break;
        case kMerge: {
          // Half the source rows name existing ids (updates), half new ids.
          const int64_t batch = static_cast<int64_t>(merge_batches_.size());
          std::set<int64_t> ids;
          while (ids.size() < 5) ids.insert(rng.Range(0, next_id - 1));
          for (int r = 0; r < 5; ++r) ids.insert(next_id++);
          for (int64_t id : ids) op.rows.push_back({id, MakeRow(rng, id)});
          merge_batches_.push_back(op.rows);
          s.sql = "MERGE INTO acct t USING (SELECT id, grp, bal, note FROM acct_src "
                  "WHERE batch = " + std::to_string(batch) +
                  ") s ON t.id = s.id WHEN MATCHED THEN UPDATE SET bal = s.bal "
                  "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.grp, s.bal, s.note)";
          s.user_bytes = RowBytes(op.rows.front().second);
          break;
        }
        case kNumTemplates:
          break;
      }
      ops_.push_back(std::move(op));
      stream_.push_back(std::move(s));
    }
  }

  std::string name() const override { return "acid_churn"; }
  std::vector<std::string> TemplateNames() const override {
    return {"point", "group_agg", "top", "dashboard", "report",
            "insert", "update", "delete", "merge"};
  }

  void Load(Env& env) override {
    Must(env.conn
             .ExecuteScript(
                 "CREATE TABLE acct (id INT, grp INT, bal BIGINT, note STRING);"
                 "CREATE TABLE acct_src (batch INT, id INT, grp INT, bal BIGINT, note STRING)")
             .status(),
         "creating acct");
    std::vector<std::vector<hive::Value>> rows;
    for (const auto& [id, r] : initial_)
      rows.push_back({hive::Value::Bigint(id), hive::Value::Bigint(r.grp),
                      hive::Value::Bigint(r.bal), hive::Value::String(r.note)});
    WriteRows(env, "acct", rows);
    rows.clear();
    for (size_t b = 0; b < merge_batches_.size(); ++b)
      for (const auto& [id, r] : merge_batches_[b])
        rows.push_back({hive::Value::Bigint(static_cast<int64_t>(b)), hive::Value::Bigint(id),
                        hive::Value::Bigint(r.grp), hive::Value::Bigint(r.bal),
                        hive::Value::String(r.note)});
    WriteRows(env, "acct_src", rows);
    Must(env.conn.Execute("PREPARE pk AS SELECT id, grp, bal, note FROM acct WHERE id = ?")
             .status(),
         "PREPARE pk");
  }

  std::vector<std::string> WarmUp() const override {
    // The reads of the first deck; reads only, so the model's starting state
    // is the loaded table.
    std::vector<std::string> out;
    for (size_t i = 0; i < stream_.size() && i < deck_size_; ++i)
      if (stream_[i].is_read) out.push_back(stream_[i].sql);
    return out;
  }

  int64_t Verify(Env& env, const std::vector<StmtRecord>& records) override {
    Table model = initial_;
    int64_t mismatches = 0;
    for (const StmtRecord& rec : records) {
      if (!rec.ok) continue;  // already counted as failed
      const Op& op = ops_[rec.index];
      bool match;
      if (stream_[rec.index].is_read) {
        match = DigestRows(Expected(op, model)) == rec.digest;
      } else {
        match = Apply(op, &model) == rec.rows_affected;
      }
      if (!match) {
        ++mismatches;
        std::fprintf(stderr, "acid_churn: statement %zu disagrees with the model: %s\n",
                     rec.index, stream_[rec.index].sql.substr(0, 160).c_str());
      }
    }
    auto final_rows = env.conn.Execute("SELECT id, grp, bal, note FROM acct ORDER BY id");
    if (!final_rows.ok() || DigestRows(final_rows->rows) != DigestRows(TableRows(model))) {
      ++mismatches;
      std::fprintf(stderr, "acid_churn: final table disagrees with the model (%zu rows)\n",
                   model.size());
    }
    return mismatches;
  }

  bool CheckMechanism(Env& env, const std::vector<StmtRecord>& records,
                      const MetricDelta& delta, std::string* sizes) override {
    (void)env;
    namespace m = hive::obs::metric;
    auto get = [&delta](const char* name) { return Delta(delta, name); };
    int64_t writes = 0;
    for (const StmtRecord& r : records)
      if (!stream_[r.index].is_read) ++writes;
    const int64_t runs = get(m::kCompactionRuns);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%lld compactions over %lld writes (must be >= %d); result cache hits %lld, "
                  "plan cache hits %lld",
                  static_cast<long long>(runs), static_cast<long long>(writes),
                  kMinCompactions, static_cast<long long>(get(m::kResultCacheHits)),
                  static_cast<long long>(get(m::kPlanCacheHits)));
    *sizes = buf;
    return runs >= kMinCompactions;
  }

  std::string ProbeTable() const override { return "acct"; }

  std::vector<std::pair<std::string, std::string>> FilterProbes() const override {
    return {{"numeric", "bal BETWEEN 20000 AND 60000"},
            {"case", "CASE WHEN grp < 50 THEN bal ELSE 0 END > 50000"},
            {"like", "note LIKE '%7%'"},
            {"upper", "UPPER(note) = 'NOTE7'"},
            {"substr", "SUBSTR(note, 5, 1) = '7'"}};
  }

 private:
  static constexpr int64_t kInitialRows = 120000;
  static constexpr size_t kStreamLength = 20000;
  static constexpr int kMinCompactions = 3;

  /// Loads rows as one committed transaction through the ACID writer (the
  /// same path the TPC-DS loader takes).
  static void WriteRows(Env& env, const std::string& table,
                        const std::vector<std::vector<hive::Value>>& rows) {
    hive::HiveServer2* server = env.server.get();
    auto desc = server->catalog()->GetTable("default", table);
    Must(desc.status(), "table " + table);
    const int64_t txn = server->txns()->OpenTxn();
    auto write_id = server->txns()->AllocateWriteId(txn, desc->FullName());
    Must(write_id.status(), "write id for " + table);
    hive::AcidWriter writer(server->filesystem(), desc->location, desc->schema, *write_id);
    for (const auto& row : rows) writer.Insert(row);
    Must(writer.Commit(), "writing " + table);
    Must(server->txns()->CommitTxn(txn), "committing " + table);
    hive::TableStatistics stats;
    stats.row_count = static_cast<int64_t>(rows.size());
    Must(server->catalog()->MergeStats("default", table, stats), "stats for " + table);
  }

  Table initial_;
  std::vector<Op> ops_;
  std::vector<std::vector<std::pair<int64_t, Row>>> merge_batches_;
};

}  // namespace

std::unique_ptr<Workload> MakeAcidChurn(uint64_t seed, bool smoke) {
  return std::make_unique<AcidChurn>(seed, smoke);
}

}  // namespace hivebench
