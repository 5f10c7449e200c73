// Morsel-driven scan scaling: one scan-heavy aggregate over the partitioned
// TPC-DS fact table, executed at 1/2/4/8 executors with cold and warm LLAP
// cache. The morsel queue splits the scan into (location, file, row_group)
// units claimed by executor threads. Each sample reports measured wall time
// and modeled virtual time apart (scan CPU is charged per executor critical
// path, see Config::scan_cpu_ns_per_row), plus their sum: the wall speedup
// is what this host delivers, the summed one what a host with
// num_executors cores would. Results must stay identical at every executor
// count.
//
// Emits BENCH_parallel_scan.json with the timing trajectory.

#include <fstream>
#include <thread>
#include <vector>

#include "bench_util.h"

using namespace hive;
using namespace hive::bench;

namespace {

constexpr const char* kQuery =
    "SELECT ss_store_sk, COUNT(*) AS cnt, SUM(ss_quantity) AS qty, "
    "SUM(ss_sales_price) AS amt "
    "FROM store_sales GROUP BY ss_store_sk";

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

Timing Run(Connection& session) {
  Timing t = RunTimed(session, kQuery);
  if (!t.ok) std::exit(1);
  return t;
}

}  // namespace

int main() {
  MemFileSystem fs;
  Config config;
  config.container_startup_us = 0;
  config.num_executors = 8;  // pool size; per-run sessions scale below it
  HiveServer2 server(&fs, config);
  Connection loader = server.Connect();
  TpcdsOptions options;
  options.scale = 12;  // enough morsels that fan-out dominates overheads
  if (Status load = LoadTpcds(loader, options); !load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }

  struct Sample {
    int executors;
    Timing cold;
    Timing warm;  // the best of three warm runs
    size_t rows;
  };
  std::vector<Sample> samples;
  std::string baseline_key;

  const unsigned cores = std::thread::hardware_concurrency();
  PrintHeader("Morsel-driven parallel scan scaling (warm = LLAP cache hot)");
  std::printf("host hardware_concurrency: %u; times in ms; modeled = virtual "
              "clock (scan CPU model)\n",
              cores);
  std::printf("%-10s %10s %10s %9s %14s %9s\n", "executors", "cold wall", "warm wall",
              "speedup", "wall+modeled", "speedup");

  for (int executors : {1, 2, 4, 8}) {
    Connection session = server.Connect();
    session.config().result_cache_enabled = false;
    session.config().num_executors = executors;

    server.llap()->cache()->Clear();
    Timing cold = Run(session);

    // Warm: best of three with the cache populated.
    Timing warm;
    for (int rep = 0; rep < 3; ++rep) {
      Timing t = Run(session);
      if (rep == 0 || t.millis < warm.millis) warm = std::move(t);
    }

    std::string key = RowsKey(warm.result);
    if (RowsKey(cold.result) != key) {
      std::fprintf(stderr, "cold/warm results differ at %d executors\n", executors);
      return 1;
    }
    if (baseline_key.empty()) {
      baseline_key = key;
    } else if (key != baseline_key) {
      std::fprintf(stderr, "results differ at %d executors\n", executors);
      return 1;
    }

    const size_t rows = warm.result.rows.size();
    samples.push_back({executors, std::move(cold), std::move(warm), rows});
    const Sample& s = samples.back();
    const Sample& base = samples.front();
    std::printf("%-10d %10.2f %10.2f %8.2fx %14.2f %8.2fx\n", executors, s.cold.wall_ms,
                s.warm.wall_ms, base.warm.wall_ms / std::max(s.warm.wall_ms, 0.001),
                s.warm.millis, base.warm.millis / std::max(s.warm.millis, 0.001));
  }

  std::printf("\nresults identical across executor counts: yes\n");
  std::printf("I/O elevator prefetches issued: %lld; cache decodes: %llu, "
              "single-flight waits: %llu\n",
              static_cast<long long>(server.llap()->prefetches_issued()),
              static_cast<unsigned long long>(server.llap()->cache()->data_decodes()),
              static_cast<unsigned long long>(
                  server.llap()->cache()->singleflight_waits()));

  std::ofstream json("BENCH_parallel_scan.json");
  json << "{\n  \"benchmark\": \"parallel_scan\",\n  \"query\": \"tpcds store_sales "
          "group-by aggregate\",\n  \"hardware_concurrency\": "
       << cores << ",\n  \"warm_runs\": 3,\n  \"samples\": [\n";
  // *_ms is the modeled total (wall + virtual); speedups are relative to
  // one executor.
  const Sample& base = samples.front();
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    json << "    {\"executors\": " << s.executors
         << ", \"cold_wall_ms\": " << s.cold.wall_ms
         << ", \"cold_modeled_ms\": " << s.cold.modeled_ms
         << ", \"warm_wall_ms\": " << s.warm.wall_ms
         << ", \"warm_modeled_ms\": " << s.warm.modeled_ms
         << ", \"cold_ms\": " << s.cold.millis << ", \"warm_ms\": " << s.warm.millis
         << ", \"warm_wall_speedup_vs_1\": "
         << base.warm.wall_ms / std::max(s.warm.wall_ms, 0.001)
         << ", \"warm_speedup_vs_1\": " << base.warm.millis / std::max(s.warm.millis, 0.001)
         << ", \"rows\": " << s.rows << "}" << (i + 1 < samples.size() ? "," : "")
         << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_parallel_scan.json\n");
  return 0;
}
