// Graceful degradation under memory pressure: a fact x fact join, a wide
// GROUP BY, a full ORDER BY, and the combined join+agg+sort shape run down
// a budget ladder — unlimited, then ~1/4x and ~1/16x of the estimated
// working set — and every rung must return byte-identical rows. The
// interesting output is the slowdown each spill regime costs over the
// in-memory run alongside the spill bytes it wrote. The unlimited rung must
// not spill and the tightest rung must (exec.spill.bytes moves), so the
// bench can't silently measure the in-memory path three times. Each sample
// reports measured wall time and modeled virtual time apart, plus their sum.
//
// Emits BENCH_spill.json. `--smoke` runs a tiny scale for ctest.

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "bench_util.h"

using namespace hive;
using namespace hive::bench;

namespace {

// Fact x fact on the shared ticket number, no build-side filter: the build
// hash table holds every return row, so it is the first state to outgrow a
// tight budget and fall back to grace partitioning.
constexpr const char* kJoin =
    "SELECT COUNT(*) AS pairs, SUM(sr_return_amt) AS amt "
    "FROM store_sales JOIN store_returns "
    "ON ss_ticket_number = sr_ticket_number";

// Ticket number is unique per sale, so the hash-agg state holds one group
// per fact row — the worst case for the aggregation hash table.
constexpr const char* kAgg =
    "SELECT ss_ticket_number, COUNT(*) AS cnt, SUM(ss_quantity) AS qty "
    "FROM store_sales GROUP BY ss_ticket_number";

// Full materializing sort over the fact table, no LIMIT, so the top-K heap
// cannot engage and the external merge path carries tight budgets.
constexpr const char* kSort =
    "SELECT ss_item_sk, ss_ticket_number, ss_quantity "
    "FROM store_sales ORDER BY ss_quantity, ss_item_sk, ss_ticket_number";

// The acceptance shape: join feeding a group-by feeding a sort, so all
// three spill paths can be active in one plan under the tightest rung.
constexpr const char* kJoinAggSort =
    "SELECT sr_customer_sk, COUNT(*) AS cnt, SUM(sr_return_amt) AS amt "
    "FROM store_sales JOIN store_returns "
    "ON ss_ticket_number = sr_ticket_number "
    "GROUP BY sr_customer_sk ORDER BY amt DESC, sr_customer_sk";

std::string RowsKey(const QueryResult& result) {
  std::string key;
  for (const auto& row : result.rows) {
    for (const Value& v : row) {
      key += v.ToString();
      key += '|';
    }
    key += '\n';
  }
  return key;
}

struct Rung {
  std::string name;
  int64_t budget_bytes;  // query.memory.limit.bytes; 0 = unlimited
};

struct Sample {
  std::string query;
  std::string rung;
  int64_t budget_bytes;
  Timing cold;
  Timing warm;  // the best of three warm runs
  int64_t spill_bytes;
  size_t rows;
};

Sample Measure(HiveServer2* server, const std::string& name, const Rung& rung,
               const std::string& sql, std::string* expected_key) {
  Connection session = server->Connect();
  session.config().result_cache_enabled = false;
  session.config().query_memory_limit_bytes = rung.budget_bytes;

  int64_t spill0 = server->metrics()->Value("exec.spill.bytes");
  server->llap()->cache()->Clear();
  Timing cold = RunTimed(session, sql);
  if (!cold.ok) std::exit(1);

  Timing warm;
  QueryResult warm_result;
  for (int rep = 0; rep < 3; ++rep) {
    Timing t = RunTimed(session, sql);
    if (!t.ok) std::exit(1);
    warm_result = std::move(t.result);
    if (rep == 0 || t.millis < warm.millis) warm = std::move(t);
  }
  int64_t spilled = server->metrics()->Value("exec.spill.bytes") - spill0;

  std::string key = RowsKey(warm_result);
  if (RowsKey(cold.result) != key) {
    std::fprintf(stderr, "%s/%s: cold/warm results differ\n", name.c_str(),
                 rung.name.c_str());
    std::exit(1);
  }
  if (expected_key->empty()) {
    *expected_key = key;
  } else if (key != *expected_key) {
    std::fprintf(stderr, "%s/%s: results differ from the unlimited rung\n",
                 name.c_str(), rung.name.c_str());
    std::exit(1);
  }
  if (rung.budget_bytes == 0 && spilled != 0) {
    std::fprintf(stderr, "%s/%s: unlimited rung spilled %lld bytes\n",
                 name.c_str(), rung.name.c_str(),
                 static_cast<long long>(spilled));
    std::exit(1);
  }
  const size_t rows = warm_result.rows.size();
  return {name, rung.name, rung.budget_bytes, std::move(cold), std::move(warm), spilled, rows};
}

/// The CPU model the host reports (Linux's /proc/cpuinfo), so that the
/// timings name the machine they were taken on.
std::string HostCpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) continue;
    const size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  MemFileSystem fs;
  Config config;
  config.container_startup_us = 0;
  config.num_executors = 8;
  HiveServer2 server(&fs, config);
  Connection loader = server.Connect();
  TpcdsOptions options;
  options.scale = smoke ? 1 : 8;  // ~30k fact rows per unit of scale
  Must(LoadTpcds(loader, options));

  auto count = loader.Execute("SELECT COUNT(*) FROM store_sales");
  Must(count.status());
  const int64_t fact_rows = count->rows[0][0].AsInt64();
  // Rough per-row resident footprint (boxed values plus hash/sort
  // overhead); the ladder only needs the right order of magnitude to pick
  // budgets the working set genuinely exceeds.
  const int64_t working_set = fact_rows * 64;
  const std::vector<Rung> ladder = {
      {"unlimited", 0},
      {"quarter", working_set / 4},
      {"sixteenth", working_set / 16},
  };

  const unsigned cores = std::thread::hardware_concurrency();
  PrintHeader("Spill degradation (budget ladder vs in-memory)");
  std::printf("fact rows: %lld, estimated working set: %lld KiB\n",
              static_cast<long long>(fact_rows),
              static_cast<long long>(working_set / 1024));
  std::printf("host hardware_concurrency: %u; times in ms; modeled = virtual "
              "clock (CPU model)\n",
              cores);
  std::printf("%-14s %-10s %10s %10s %9s %14s %9s %12s\n", "query", "budget", "cold wall",
              "warm wall", "slowdown", "wall+modeled", "slowdown", "spill (KiB)");

  const std::vector<std::pair<std::string, std::string>> queries = {
      {"join", kJoin},
      {"agg", kAgg},
      {"sort", kSort},
      {"join_agg_sort", kJoinAggSort},
  };
  std::vector<Sample> samples;
  int64_t governed_spill = 0;
  for (const auto& [name, sql] : queries) {
    std::string expected_key;
    double unlimited_wall = 0, unlimited_total = 0;
    for (const Rung& rung : ladder) {
      Sample s = Measure(&server, name, rung, sql, &expected_key);
      if (rung.budget_bytes == 0) {
        unlimited_wall = s.warm.wall_ms;
        unlimited_total = s.warm.millis;
      }
      if (rung.budget_bytes != 0) governed_spill += s.spill_bytes;
      std::printf("%-14s %-10s %10.2f %10.2f %8.2fx %14.2f %8.2fx %12lld\n", name.c_str(),
                  rung.name.c_str(), s.cold.wall_ms, s.warm.wall_ms,
                  s.warm.wall_ms / std::max(unlimited_wall, 0.001), s.warm.millis,
                  s.warm.millis / std::max(unlimited_total, 0.001),
                  static_cast<long long>(s.spill_bytes / 1024));
      samples.push_back(std::move(s));
    }
    // The tightest rung leaves the working set at ~16x the budget; if even
    // that ran fully in memory the ladder is mis-sized and the bench is
    // measuring nothing.
    if (samples.back().spill_bytes == 0) {
      std::fprintf(stderr, "%s: sixteenth rung never spilled\n", name.c_str());
      return 1;
    }
  }
  if (governed_spill == 0) {
    std::fprintf(stderr, "no governed rung spilled anywhere\n");
    return 1;
  }
  std::printf("\nresults identical across the whole ladder: yes\n");

  std::ofstream json("BENCH_spill.json");
  json << "{\n  \"benchmark\": \"spill\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"fact_rows\": " << fact_rows
       << ",\n  \"working_set_bytes\": " << working_set
       << ",\n  \"hardware_concurrency\": " << cores
       << ",\n  \"host_cpu\": \"" << HostCpu() << "\""
       << ",\n  \"warm_runs\": 3,\n  \"samples\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    // Slowdowns are relative to the same query's unlimited rung. *_ms is
    // the modeled total (wall + virtual).
    const Sample* base = &s;
    for (const Sample& b : samples) {
      if (b.query == s.query && b.budget_bytes == 0) {
        base = &b;
        break;
      }
    }
    json << "    {\"query\": \"" << s.query << "\", \"budget\": \"" << s.rung
         << "\", \"budget_bytes\": " << s.budget_bytes
         << ", \"cold_wall_ms\": " << s.cold.wall_ms
         << ", \"cold_modeled_ms\": " << s.cold.modeled_ms
         << ", \"warm_wall_ms\": " << s.warm.wall_ms
         << ", \"warm_modeled_ms\": " << s.warm.modeled_ms
         << ", \"cold_ms\": " << s.cold.millis << ", \"warm_ms\": " << s.warm.millis
         << ", \"wall_slowdown_vs_unlimited\": "
         << s.warm.wall_ms / std::max(base->warm.wall_ms, 0.001)
         << ", \"slowdown_vs_unlimited\": "
         << s.warm.millis / std::max(base->warm.millis, 0.001)
         << ", \"spill_bytes\": " << s.spill_bytes << ", \"rows\": " << s.rows
         << "}" << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_spill.json\n");
  return 0;
}
