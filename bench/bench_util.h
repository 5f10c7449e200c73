#ifndef HIVE_BENCH_BENCH_UTIL_H_
#define HIVE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "fs/mem_filesystem.h"
#include "server/hive_server.h"
#include "server/workload_loader.h"

namespace hive::bench {

/// Bench/example setup cannot legitimately fail; abort loudly if it does
/// rather than silently measuring a half-built table.
inline void Must(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n", s.ToString().c_str());
    std::abort();
  }
}

/// Measured execution of one statement: wall-clock work on this host
/// (`wall_ms`) and the modeled cluster latency charged to the virtual clock
/// (`modeled_ms`: container start-up, MR shuffle materialization, per-row
/// CPU model). `millis` is their sum, as a real deployment's user would
/// perceive them.
struct Timing {
  bool ok = false;
  bool unsupported = false;
  double wall_ms = 0;
  double modeled_ms = 0;
  double millis = 0;
  QueryResult result;
};

inline Timing RunTimed(Connection& conn, const std::string& sql) {
  Timing t;
  HiveServer2* server = conn.server();
  int64_t wall0 = SimClock::WallMicros();
  int64_t virt0 = server->clock()->virtual_us();
  auto r = conn.Execute(sql);
  int64_t wall = SimClock::WallMicros() - wall0;
  int64_t virt = server->clock()->virtual_us() - virt0;
  if (!r.ok()) {
    t.unsupported = r.status().IsNotSupported();
    if (!t.unsupported)
      std::fprintf(stderr, "query failed: %s\n  %s\n", r.status().ToString().c_str(),
                   sql.substr(0, 120).c_str());
    return t;
  }
  t.ok = true;
  t.wall_ms = static_cast<double>(wall) / 1000.0;
  t.modeled_ms = static_cast<double>(virt) / 1000.0;
  t.millis = static_cast<double>(wall + virt) / 1000.0;
  t.result = std::move(*r);
  return t;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace hive::bench

#endif  // HIVE_BENCH_BENCH_UTIL_H_
