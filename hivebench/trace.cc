#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "exec/vector_eval.h"
#include "llap/llap_cache.h"
#include "obs/metric_names.h"
#include "optimizer/binder.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "storage/cof.h"

#include "host.h"

namespace hivebench {

namespace m = hive::obs::metric;

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Parses `SELECT * FROM <table> WHERE <predicate>` and returns the WHERE
/// expression, unbound.
hive::Result<hive::ExprPtr> ParsePredicate(const std::string& table,
                                           const std::string& predicate) {
  auto parsed = hive::Parser::Parse("SELECT * FROM " + table + " WHERE " + predicate);
  if (!parsed.ok()) return parsed.status();
  auto* select = dynamic_cast<hive::SelectStatement*>(parsed->get());
  if (!select || !select->select.body || !select->select.body->core.where)
    return hive::Status::InvalidArgument("not a filter: " + predicate);
  return select->select.body->core.where;
}

}  // namespace

// Out of line: harness.h sees CountingFileSystem only as a declaration.
Env::Env() = default;
Env::~Env() = default;

// --- CountingFileSystem -----------------------------------------------------

class CountingFileSystem::Timer {
 public:
  Timer(CountingFileSystem* fs, Op op) : fs_(fs), start_ns_(NowNs()) {
    fs_->calls_[op].fetch_add(1, std::memory_order_relaxed);
  }
  ~Timer() { fs_->busy_ns_.fetch_add(NowNs() - start_ns_, std::memory_order_relaxed); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  CountingFileSystem* fs_;
  int64_t start_ns_;
};

const char* CountingFileSystem::OpName(int op) {
  static const char* kNames[kNumOps] = {"read", "read_range", "write", "list", "stat",
                                        "rename", "delete", "exists", "mkdirs"};
  return kNames[op];
}

hive::Status CountingFileSystem::WriteFile(const std::string& path,
                                           const std::string& data) {
  Timer t(this, kWrite);
  write_bytes_.fetch_add(static_cast<int64_t>(data.size()), std::memory_order_relaxed);
  return base_->WriteFile(path, data);
}

hive::Result<std::string> CountingFileSystem::ReadFile(const std::string& path) {
  Timer t(this, kRead);
  auto data = base_->ReadFile(path);
  if (data.ok()) CountRead(data->size());
  return data;
}

hive::Result<std::string> CountingFileSystem::ReadRange(const std::string& path,
                                                        uint64_t offset, uint64_t len) {
  Timer t(this, kReadRange);
  auto data = base_->ReadRange(path, offset, len);
  if (data.ok()) CountRead(data->size());
  return data;
}

hive::Result<hive::FileInfo> CountingFileSystem::Stat(const std::string& path) {
  Timer t(this, kStat);
  return base_->Stat(path);
}

hive::Result<std::vector<hive::FileInfo>> CountingFileSystem::ListDir(
    const std::string& path) {
  Timer t(this, kList);
  return base_->ListDir(path);
}

hive::Status CountingFileSystem::MakeDirs(const std::string& path) {
  Timer t(this, kMkdirs);
  return base_->MakeDirs(path);
}

hive::Status CountingFileSystem::DeleteFile(const std::string& path) {
  Timer t(this, kDelete);
  return base_->DeleteFile(path);
}

hive::Status CountingFileSystem::DeleteRecursive(const std::string& path) {
  Timer t(this, kDelete);
  return base_->DeleteRecursive(path);
}

hive::Status CountingFileSystem::Rename(const std::string& from, const std::string& to) {
  Timer t(this, kRename);
  return base_->Rename(from, to);
}

bool CountingFileSystem::Exists(const std::string& path) {
  Timer t(this, kExists);
  return base_->Exists(path);
}

CountingFileSystem::Counters CountingFileSystem::Snapshot() const {
  Counters c;
  for (int op = 0; op < kNumOps; ++op)
    c.calls[op] = calls_[op].load(std::memory_order_relaxed);
  c.read_bytes = static_cast<int64_t>(bytes_read());
  c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  c.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  return c;
}

// --- helpers ------------------------------------------------------------------

std::vector<std::string> ListFilesRecursive(hive::FileSystem* fs, const std::string& dir) {
  std::vector<std::string> out;
  auto entries = fs->ListDir(dir);
  if (!entries.ok()) return out;
  for (const hive::FileInfo& e : *entries) {
    if (e.is_dir) {
      std::vector<std::string> sub = ListFilesRecursive(fs, e.path);
      out.insert(out.end(), sub.begin(), sub.end());
    } else {
      out.push_back(e.path);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

// --- Tracer ---------------------------------------------------------------------

Tracer::Tracer(Env* env, const Workload* workload)
    : env_(env), workload_(workload), t0_ns_(NowNs()) {
  auto desc = env_->server->catalog()->GetTable("default", workload_->ProbeTable());
  if (desc.ok()) table_location_ = desc->location;
  std::vector<std::string> names = workload_->TemplateNames();
  for (size_t i = 0; i < names.size(); ++i)
    if (names[i] == "limit") limit_tmpl_ = static_cast<int>(i);
  spans_.reserve(1 << 16);
}

int64_t Tracer::Begin(const std::string& name, int64_t stmt, int64_t parent) {
  Span s;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.stmt = stmt;
  s.name = name;
  s.start_ns = NowNs() - t0_ns_;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::End(int64_t id) { spans_[id].end_ns = NowNs() - t0_ns_; }

int64_t Tracer::CountAcidDirs() const {
  // Delta and delete-delta directories a read of the table must merge;
  // listed on the undecorated file system so the listing is not counted.
  int64_t dirs = 0;
  std::vector<std::string> pending = {table_location_};
  while (!pending.empty() && !table_location_.empty()) {
    std::string dir = pending.back();
    pending.pop_back();
    auto entries = env_->mem->ListDir(dir);
    if (!entries.ok()) continue;
    for (const hive::FileInfo& e : *entries) {
      if (!e.is_dir) continue;
      std::string base = hive::BaseName(e.path);
      if (base.rfind("delta_", 0) == 0 || base.rfind("delete_delta_", 0) == 0)
        ++dirs;
      else if (base.rfind("base_", 0) != 0)
        pending.push_back(e.path);  // partition directory
    }
  }
  return dirs;
}

void Tracer::AddProfileSpans(const hive::obs::OperatorProfileNode& node, int64_t stmt,
                             int64_t parent, int64_t start_ns) {
  Span s;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.stmt = stmt;
  s.name = "exec.op." + node.name;
  s.start_ns = start_ns;
  s.end_ns = start_ns + node.wall_us * 1000;
  s.packed = true;
  spans_.push_back(s);
  self_us_[node.name] += static_cast<double>(node.SelfWallUs());
  int64_t cursor = start_ns;
  for (const auto& child : node.children) {
    if (!child) continue;
    AddProfileSpans(*child, stmt, s.id, cursor);
    cursor += child->wall_us * 1000;
  }
}

void Tracer::RunStatement(size_t index, const Stmt& stmt, StmtRecord* record) {
  const int64_t sid = static_cast<int64_t>(index);
  hive::HiveServer2* server = env_->server.get();
  if (stmt.is_read) acid_dirs_ += CountAcidDirs();

  const int64_t root = Begin("stmt", sid, -1);
  const int64_t parse = Begin("sql.parse", sid, root);
  auto parsed = hive::Parser::Parse(stmt.sql);
  End(parse);
  int64_t bind_ns = 0, optimize_ns = 0;
  if (stmt.is_read) {
    // The same text (or, for EXECUTE, the equivalent ad-hoc SELECT) bound
    // and optimized the way the server plans it.
    auto ast = stmt.adhoc_sql.empty() ? std::move(parsed) : hive::Parser::Parse(stmt.adhoc_sql);
    auto* select = ast.ok() ? dynamic_cast<hive::SelectStatement*>(ast->get()) : nullptr;
    if (select) {
      hive::Config config = env_->conn.config();
      hive::Binder binder(server->catalog(), &config, env_->conn.database());
      const int64_t bind = Begin("optimizer.bind", sid, root);
      auto plan = binder.BindSelect(select->select);
      End(bind);
      bind_ns = spans_[bind].end_ns - spans_[bind].start_ns;
      if (plan.ok()) {
        hive::Optimizer optimizer(server->catalog(), &config);
        const int64_t opt = Begin("optimizer.optimize", sid, root);
        auto optimized = optimizer.Optimize(*plan);
        End(opt);
        optimize_ns = spans_[opt].end_ns - spans_[opt].start_ns;
      }
    }
  }

  hive::obs::MetricsSnapshot before = server->metrics()->Snapshot();
  CountingFileSystem::Counters fs_before = env_->counting->Snapshot();
  const int64_t exec = Begin("server.execute", sid, root);
  auto result = env_->conn.Execute(stmt.sql);
  End(exec);
  CountingFileSystem::Counters fs_after = env_->counting->Snapshot();
  hive::obs::MetricsSnapshot after = server->metrics()->Snapshot();

  const int64_t exec_ns = spans_[exec].end_ns - spans_[exec].start_ns;
  record->latency_ns = exec_ns;
  record->ok = result.ok();
  int64_t engine_exec_us = 0;
  if (result.ok()) {
    record->digest = DigestRows(result->rows);
    record->rows_affected = result->rows_affected;
    const hive::obs::QueryProfile& profile = result->profile();
    engine_exec_us = profile.counter(m::kWallUs);
    if (engine_exec_us > 0) {
      Span s;
      s.id = static_cast<int64_t>(spans_.size());
      s.parent = exec;
      s.stmt = sid;
      s.name = "exec.execute";
      s.start_ns = spans_[exec].start_ns;
      s.end_ns = s.start_ns + engine_exec_us * 1000;
      s.packed = true;
      spans_.push_back(s);
      if (stmt.is_read && profile.root())
        AddProfileSpans(*profile.root(), sid, s.id, s.start_ns);
    }
  } else {
    std::fprintf(stderr, "statement %zu failed: %s\n  %s\n", index,
                 result.status().ToString().c_str(), stmt.sql.substr(0, 160).c_str());
  }
  End(root);

  auto delta = [&](const char* name) { return after.Get(name) - before.Get(name); };
  for (const auto& [name, value] : after.values) registry_[name] += value - before.Get(name);
  auto wait_it = after.histograms.find(m::kWlmWaitUs);
  if (wait_it != after.histograms.end()) {
    auto prev = before.histograms.find(m::kWlmWaitUs);
    registry_["wlm.queue.wait_us.sum"] +=
        wait_it->second.sum - (prev == before.histograms.end() ? 0 : prev->second.sum);
  }
  for (int op = 0; op < CountingFileSystem::kNumOps; ++op)
    fs_.calls[op] += fs_after.calls[op] - fs_before.calls[op];
  fs_.read_bytes += fs_after.read_bytes - fs_before.read_bytes;
  fs_.write_bytes += fs_after.write_bytes - fs_before.write_bytes;
  fs_.busy_ns += fs_after.busy_ns - fs_before.busy_ns;

  ++stmts_;
  const double parse_us = static_cast<double>(spans_[parse].end_ns - spans_[parse].start_ns) / 1e3;
  const double exec_us = static_cast<double>(exec_ns) / 1e3;
  stmt_us_ += exec_us;
  parse_us_ += parse_us;
  if (stmt.is_read) {
    ++reads_;
    read_us_.push_back(exec_us);
    bind_us_ += static_cast<double>(bind_ns) / 1e3;
    optimize_us_ += static_cast<double>(optimize_ns) / 1e3;
    // The server binds and optimizes only when neither the result cache nor
    // the plan cache answered; the decomposition subtracts what it ran.
    const bool planned = delta(m::kResultCacheHits) == 0 && delta(m::kPlanCacheHits) == 0;
    read_stmt_us_ += exec_us;
    read_parse_us_ += parse_us;
    if (planned) {
      read_bind_us_ += static_cast<double>(bind_ns) / 1e3;
      read_optimize_us_ += static_cast<double>(optimize_ns) / 1e3;
    }
    read_exec_us_ += static_cast<double>(engine_exec_us);
    if (stmt.tmpl == limit_tmpl_) {
      ++limit_stmts_;
      limit_morsels_ += delta(m::kMorselsClaimed);
    }
  } else {
    ++writes_;
    write_us_.push_back(exec_us);
    (delta(m::kCompactionRuns) > 0 ? compacting_write_us_ : plain_write_us_)
        .push_back(exec_us);
    user_bytes_ += stmt.user_bytes * record->rows_affected;
  }
}

std::map<std::string, double> Tracer::Metrics(
    std::map<std::string, std::string>* units) const {
  std::map<std::string, double> out;
  auto put = [&](const std::string& name, double value, const char* unit) {
    out[name] = value;
    (*units)[name] = unit;
  };
  auto reg = [&](const char* name) -> double {
    auto it = registry_.find(name);
    return it == registry_.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double n = static_cast<double>(stmts_);
  const double reads = static_cast<double>(reads_);
  const double writes = static_cast<double>(writes_);

  put("server.stmt_us", Ratio(stmt_us_, n), "us");
  put("server.overhead_us",
      Ratio(read_stmt_us_ - read_parse_us_ - read_bind_us_ - read_optimize_us_ -
                read_exec_us_,
            reads),
      "us");
  put("server.result_cache.hit_ratio",
      Ratio(reg(m::kResultCacheHits), reg(m::kResultCacheHits) + reg(m::kResultCacheMisses)),
      "ratio");
  put("server.plan_cache.hit_ratio",
      Ratio(reg(m::kPlanCacheHits), reg(m::kPlanCacheHits) + reg(m::kPlanCacheMisses)),
      "ratio");
  put("server.wlm.queued_per_stmt", Ratio(reg(m::kWlmQueued), n), "count");
  put("server.wlm.wait_us", Ratio(reg("wlm.queue.wait_us.sum"), n), "us");
  put("server.read_p50_us", Percentile(read_us_, 50), "us");
  put("server.read_p95_us", Percentile(read_us_, 95), "us");
  put("server.write_p50_us", Percentile(write_us_, 50), "us");
  put("server.write_p95_us", Percentile(write_us_, 95), "us");

  put("sql.parse_us", Ratio(parse_us_, n), "us");
  put("optimizer.bind_us", Ratio(bind_us_, reads), "us");
  put("optimizer.optimize_us", Ratio(optimize_us_, reads), "us");

  put("exec.execute_us", Ratio(read_exec_us_, reads), "us");
  for (const auto& [op, us] : self_us_) put("exec.self_us." + op, Ratio(us, reads), "us");
  put("exec.join.probe_hit_ratio",
      Ratio(reg(m::kJoinProbeHits), reg(m::kJoinProbeHits) + reg(m::kJoinProbeMisses)),
      "ratio");
  put("exec.morsels_per_stmt", Ratio(reg(m::kMorselsClaimed), reads), "count");
  put("exec.morsels_skipped_ratio",
      Ratio(reg(m::kMorselsSkipped), reg(m::kMorselsClaimed)), "ratio");
  put("exec.limit_morsels",
      Ratio(static_cast<double>(limit_morsels_), static_cast<double>(limit_stmts_)),
      "count");
  put("exec.spill_bytes_per_stmt", Ratio(reg(m::kSpillBytes), reads), "bytes");

  const double hits = reg(m::kLlapCacheHits), misses = reg(m::kLlapCacheMisses);
  put("llap.hit_ratio", Ratio(hits, hits + misses), "ratio");
  put("llap.decodes_per_stmt", Ratio(reg(m::kLlapCacheDecodes), reads), "count");
  put("llap.evictions_per_stmt", Ratio(reg(m::kLlapCacheEvictions), reads), "count");
  put("llap.singleflight_waits_per_stmt",
      Ratio(reg(m::kLlapCacheSingleflightWaits), reads), "count");
  put("llap.prefetches_per_stmt", Ratio(reg(m::kLlapIoPrefetches), reads), "count");

  put("storage.acid.dirs_per_read", Ratio(static_cast<double>(acid_dirs_), reads), "count");
  put("storage.write_amp",
      Ratio(static_cast<double>(fs_.write_bytes), static_cast<double>(user_bytes_)),
      "ratio");

  put("metastore.compactions_per_1k_writes", Ratio(reg(m::kCompactionRuns) * 1000, writes),
      "count");
  put("metastore.compacting_write_share",
      Ratio(static_cast<double>(compacting_write_us_.size()), writes), "ratio");
  const double compacting_p50 = Percentile(compacting_write_us_, 50);
  const double plain_p50 = Percentile(plain_write_us_, 50);
  put("metastore.compacting_write_p50_us", compacting_p50, "us");
  put("metastore.plain_write_p50_us", plain_p50, "us");
  put("metastore.compacting_to_plain_write_ratio", Ratio(compacting_p50, plain_p50), "ratio");
  put("metastore.txn_aborted", reg(m::kTxnAborted), "count");

  for (int op = 0; op < CountingFileSystem::kNumOps; ++op)
    put(std::string("fs.") + CountingFileSystem::OpName(op) + "_calls_per_stmt",
        Ratio(static_cast<double>(fs_.calls[op]), n), "count");
  put("fs.read_bytes_per_stmt", Ratio(static_cast<double>(fs_.read_bytes), n), "bytes");
  put("fs.write_bytes_per_stmt", Ratio(static_cast<double>(fs_.write_bytes), n), "bytes");
  put("fs.busy_us_per_stmt", Ratio(static_cast<double>(fs_.busy_ns) / 1e3, n), "us");
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::ofstream out(path);
  if (!out) return false;
  char line[384];
  for (const Span& s : spans_) {
    const int64_t dur = s.end_ns - s.start_ns;
    std::snprintf(line, sizeof(line),
                  "{\"stmt\": %lld, \"id\": %lld, \"parent\": %lld, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"self_us\": %.3f, "
                  "\"packed\": %s}\n",
                  static_cast<long long>(s.stmt), static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.name.c_str(),
                  static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.end_ns) / 1e3,
                  static_cast<double>(std::max<int64_t>(0, dur - child_ns[s.id])) / 1e3,
                  s.packed ? "true" : "false");
    out << line;
  }
  return static_cast<bool>(out);
}

// --- standalone probes ------------------------------------------------------------

std::map<std::string, double> RunProbes(Env& env, const Workload& workload,
                                        std::map<std::string, std::string>* units) {
  std::map<std::string, double> out;
  hive::FileSystem* fs = env.mem.get();
  auto desc = env.server->catalog()->GetTable("default", workload.ProbeTable());
  Must(desc.status(), "probe table " + workload.ProbeTable());
  // Row data only: delete deltas hold record ids, not the table's columns.
  std::vector<std::shared_ptr<hive::CofReader>> readers;
  for (const std::string& path : ListFilesRecursive(fs, desc->location)) {
    if (path.find("/delete_delta_") != std::string::npos) continue;
    auto reader = hive::CofReader::Open(fs, path);
    if (reader.ok()) readers.push_back(*reader);
  }
  // Each probe repeats whole passes over the files until it has measured
  // at least this long, so small tables still give a steady figure.
  constexpr int64_t kMinProbeNs = 100'000'000;

  // storage: CofReader::ReadColumnChunk over every chunk.
  {
    int64_t ns = 0, rows = 0;
    for (int pass = 0; pass == 0 || ns < kMinProbeNs; ++pass) {
      for (const auto& reader : readers) {
        for (size_t rg = 0; rg < reader->num_row_groups(); ++rg) {
          for (size_t c = 0; c < reader->schema().num_fields(); ++c) {
            int64_t t = NowNs();
            auto chunk = reader->ReadColumnChunk(rg, c);
            ns += NowNs() - t;
            Must(chunk.status(), "probe decode " + reader->path());
          }
          rows += reader->row_group(rg).num_rows;
        }
      }
      if (rows == 0) break;
    }
    out["storage.decode_ns_per_row"] = Ratio(static_cast<double>(ns), static_cast<double>(rows));
    (*units)["storage.decode_ns_per_row"] = "ns";
  }

  // llap: LlapCacheProvider::ReadChunk, a miss then a hit on every chunk.
  {
    hive::Config config = env.server->default_config();
    config.llap_cache_capacity_bytes = int64_t{1} << 40;  // the probe never evicts
    int64_t miss_ns = 0, hit_ns = 0, rows = 0;
    for (int pass = 0; pass == 0 || miss_ns + hit_ns < kMinProbeNs; ++pass) {
      for (const auto& file : readers) {
        hive::LlapCacheProvider cache(fs, config);
        auto reader = cache.OpenReader(file->path());
        Must(reader.status(), "probe open " + file->path());
        for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
          for (size_t c = 0; c < (*reader)->schema().num_fields(); ++c) {
            int64_t t = NowNs();
            auto miss = cache.ReadChunk(*reader, rg, c);
            int64_t t2 = NowNs();
            auto hit = cache.ReadChunk(*reader, rg, c);
            hit_ns += NowNs() - t2;
            miss_ns += t2 - t;
            Must(miss.status(), "probe cache miss");
            Must(hit.status(), "probe cache hit");
          }
          rows += (*reader)->row_group(rg).num_rows;
        }
      }
      if (rows == 0) break;
    }
    out["llap.miss_ns_per_row"] = Ratio(static_cast<double>(miss_ns), static_cast<double>(rows));
    out["llap.hit_ns_per_row"] = Ratio(static_cast<double>(hit_ns), static_cast<double>(rows));
    (*units)["llap.miss_ns_per_row"] = "ns";
    (*units)["llap.hit_ns_per_row"] = "ns";
  }

  // exec: FilterSelection over decoded row groups, predicates bound by
  // Binder::BindScalar against the file schema.
  hive::Config config = env.server->default_config();
  for (const auto& [kind, predicate] : workload.FilterProbes()) {
    auto where = ParsePredicate(workload.ProbeTable(), predicate);
    Must(where.status(), "probe predicate " + predicate);
    int64_t ns = 0, rows = 0;
    for (int pass = 0; pass == 0 || ns < kMinProbeNs / 4; ++pass) {
      for (const auto& reader : readers) {
        hive::Binder binder(env.server->catalog(), &config, "default");
        auto bound = binder.BindScalar(*where, reader->schema(), workload.ProbeTable());
        Must(bound.status(), "probe bind " + predicate);
        std::vector<size_t> columns(reader->schema().num_fields());
        for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
        for (size_t rg = 0; rg < reader->num_row_groups(); ++rg) {
          auto batch = reader->ReadRowGroup(rg, columns);
          Must(batch.status(), "probe row group");
          int64_t t = NowNs();
          auto selected = hive::FilterSelection(**bound, *batch);
          ns += NowNs() - t;
          Must(selected.status(), "probe filter " + predicate);
          rows += static_cast<int64_t>(batch->num_rows());
        }
      }
      if (rows == 0) break;
    }
    const std::string name = "exec.filter_ns_per_row." + kind;
    out[name] = Ratio(static_cast<double>(ns), static_cast<double>(rows));
    (*units)[name] = "ns";
  }
  return out;
}

}  // namespace hivebench
