// Morsel-parallel hash join scaling: a fact x dim star join (perfect-hash
// territory: the build keys are a dense duplicate-free integer domain) and a
// fact x fact join (duplicate keys on both sides, generic flat table), each
// executed at 1/2/4/8 executors with cold and warm LLAP cache. Each timing
// is reported twice: the measured wall time on this host, and the repo's
// modeled total (wall plus virtual time, where probe CPU —
// Config::join_cpu_ns_per_row, halved when the perfect-hash table engages —
// and the partitioned build are charged per executor critical path, so the
// modeled speedup reflects a host with num_executors cores). Results must
// stay byte-identical at every executor count and table variant.
//
// Emits BENCH_join.json. `--smoke` runs a tiny scale for ctest.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

using namespace hive;
using namespace hive::bench;

namespace {

// Star join over the dense item dimension. The dimension filter keeps the
// build side small and the emit sparse, so timing tracks the probe (the
// part that parallelizes), not result materialization — and the filtered
// i_item_sk domain stays dense enough for the perfect-hash table.
constexpr const char* kFactDim =
    "SELECT i_category, COUNT(*) AS cnt, SUM(ss_quantity) AS qty "
    "FROM store_sales, item WHERE ss_item_sk = i_item_sk "
    "AND i_category = 'Sports' GROUP BY i_category";

// Fact x fact on the shared ticket number: the ~360k-row fact table probes
// a build side drawn from another fact table. Tickets span the whole fact
// domain (range >> 2*rows), so the perfect-hash table must decline and the
// generic flat table carries the probe; the build-side amount filter keeps
// the emit sparse so the probe dominates timing.
constexpr const char* kFactFact =
    "SELECT COUNT(*) AS pairs, SUM(sr_return_amt) AS amt "
    "FROM store_sales JOIN store_returns "
    "ON ss_ticket_number = sr_ticket_number WHERE sr_return_amt > 90";

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

Connection SessionFor(HiveServer2* server, int executors, bool perfect_hash) {
  Connection session = server->Connect();
  session.config().result_cache_enabled = false;
  // Semijoin reduction would prune the probe scan to near-nothing on these
  // selective build sides — great for TPC-DS, but this bench measures the
  // probe pipeline itself, so every fact row must reach the join.
  session.config().semijoin_reduction_enabled = false;
  session.config().num_executors = executors;
  session.config().perfect_hash_join_enabled = perfect_hash;
  return session;
}

struct Sample {
  std::string query;
  std::string variant;
  int executors;
  Timing cold;
  Timing warm;  // the best of five warm runs
  size_t rows;
};

/// Cold run (cache cleared) + warm best-of-five; aborts on any result
/// mismatch against `expected_key` (set from the first variant measured).
Sample Measure(HiveServer2* server, const std::string& name,
               const std::string& variant, const std::string& sql,
               int executors, bool perfect_hash, std::string* expected_key) {
  Connection session = SessionFor(server, executors, perfect_hash);
  server->llap()->cache()->Clear();
  Timing cold = RunTimed(session, sql);
  if (!cold.ok) std::exit(1);

  Timing warm;
  QueryResult warm_result;
  for (int rep = 0; rep < 5; ++rep) {
    Timing t = RunTimed(session, sql);
    if (!t.ok) std::exit(1);
    warm_result = std::move(t.result);
    if (rep == 0 || t.millis < warm.millis) warm = std::move(t);
  }

  std::string key = RowsKey(warm_result);
  if (RowsKey(cold.result) != key) {
    std::fprintf(stderr, "%s/%s: cold/warm results differ at %d executors\n",
                 name.c_str(), variant.c_str(), executors);
    std::exit(1);
  }
  if (expected_key->empty()) {
    *expected_key = key;
  } else if (key != *expected_key) {
    std::fprintf(stderr, "%s/%s: results differ at %d executors\n",
                 name.c_str(), variant.c_str(), executors);
    std::exit(1);
  }
  const size_t rows = warm_result.rows.size();
  return {name, variant, executors, std::move(cold), std::move(warm), rows};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  MemFileSystem fs;
  Config config;
  config.container_startup_us = 0;
  config.num_executors = 8;  // pool size; per-run sessions scale below it
  HiveServer2 server(&fs, config);
  Connection loader = server.Connect();
  TpcdsOptions options;
  options.scale = smoke ? 1 : 12;  // ~30k fact rows per unit of scale
  Must(LoadTpcds(loader, options));

  const std::vector<int> sweep = smoke ? std::vector<int>{1, 8}
                                       : std::vector<int>{1, 2, 4, 8};
  std::vector<Sample> samples;

  const unsigned cores = std::thread::hardware_concurrency();
  PrintHeader("Morsel-parallel hash join scaling (warm = LLAP cache hot)");
  std::printf("host hardware_concurrency: %u; times in ms; modeled = virtual "
              "clock (CPU model, start-up, shuffle)\n",
              cores);
  std::printf("%-10s %-8s %9s %10s %10s %9s %14s %9s\n", "query", "variant",
              "executors", "cold wall", "warm wall", "speedup", "wall+modeled",
              "speedup");

  auto run_sweep = [&](const std::string& name, const std::string& sql,
                       bool perfect_hash, const std::string& variant) {
    std::string expected_key;
    double wall_at_1 = 0, modeled_at_1 = 0;
    for (int executors : sweep) {
      Sample s = Measure(&server, name, variant, sql, executors, perfect_hash,
                         &expected_key);
      if (executors == sweep.front()) {
        wall_at_1 = s.warm.wall_ms;
        modeled_at_1 = s.warm.millis;
      }
      std::printf("%-10s %-8s %9d %10.2f %10.2f %8.2fx %14.2f %8.2fx\n",
                  name.c_str(), variant.c_str(), executors, s.cold.wall_ms,
                  s.warm.wall_ms, wall_at_1 / std::max(s.warm.wall_ms, 0.001),
                  s.warm.millis, modeled_at_1 / std::max(s.warm.millis, 0.001));
      samples.push_back(std::move(s));
    }
  };

  // Perfect-hash on vs off on the same dense-key star join: the array
  // table must engage (exec.join.perfect_hash moves) and win.
  int64_t ph_before = server.metrics()->counter("exec.join.perfect_hash")->value();
  run_sweep("fact_dim", kFactDim, /*perfect_hash=*/true, "perfect");
  int64_t ph_after = server.metrics()->counter("exec.join.perfect_hash")->value();
  if (ph_after <= ph_before) {
    std::fprintf(stderr, "perfect hash never engaged on the dense item key\n");
    return 1;
  }
  run_sweep("fact_dim", kFactDim, /*perfect_hash=*/false, "generic");
  run_sweep("fact_fact", kFactFact, /*perfect_hash=*/true, "generic");

  std::printf("\nresults identical across executor counts and variants: yes\n");
  std::printf("perfect-hash engagements this run: %lld\n",
              static_cast<long long>(ph_after - ph_before));

  std::ofstream json("BENCH_join.json");
  json << "{\n  \"benchmark\": \"join\",\n  \"smoke\": "
       << (smoke ? "true" : "false")
       << ",\n  \"hardware_concurrency\": " << cores
       << ",\n  \"warm_runs\": 5,\n  \"samples\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    // Speedups are relative to the same query+variant at the lowest executor
    // count in the sweep. *_ms is the modeled total (wall + virtual).
    const Sample* base = &s;
    for (const Sample& b : samples) {
      if (b.query == s.query && b.variant == s.variant &&
          b.executors == sweep.front()) {
        base = &b;
        break;
      }
    }
    json << "    {\"query\": \"" << s.query << "\", \"variant\": \""
         << s.variant << "\", \"executors\": " << s.executors
         << ", \"cold_wall_ms\": " << s.cold.wall_ms
         << ", \"cold_modeled_ms\": " << s.cold.modeled_ms
         << ", \"warm_wall_ms\": " << s.warm.wall_ms
         << ", \"warm_modeled_ms\": " << s.warm.modeled_ms
         << ", \"cold_ms\": " << s.cold.millis << ", \"warm_ms\": " << s.warm.millis
         << ", \"warm_wall_speedup_vs_1\": "
         << base->warm.wall_ms / std::max(s.warm.wall_ms, 0.001)
         << ", \"warm_speedup_vs_1\": "
         << base->warm.millis / std::max(s.warm.millis, 0.001)
         << ", \"rows\": " << s.rows << "}"
         << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_join.json\n");
  return 0;
}
