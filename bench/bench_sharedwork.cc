// Section 7.1's shared-work claim: q88 (many identical fact-table
// subexpressions) runs 2.7x faster with the shared work optimizer enabled.
// This harness runs the q88-style query with the optimizer on/off.

#include <tuple>
#include <utility>

#include "bench_util.h"

using namespace hive;
using namespace hive::bench;

namespace {

/// Rows equal cell for cell: same NULLs, kinds, values and rendering.
bool SameRows(const std::vector<std::vector<Value>>& a,
              const std::vector<std::vector<Value>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      if (x.is_null() != y.is_null() || x.kind() != y.kind() ||
          Value::Compare(x, y) != 0 || x.ToString() != y.ToString())
        return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  MemFileSystem fs;
  HiveServer2 server(&fs, Config{});
  Connection session = server.Connect();
  if (Status load = LoadTpcds(session, TpcdsOptions{}); !load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }

  // Run on the container path (no LLAP chunk cache) so the shared scan's
  // I/O and decode savings are visible, as they were in the paper's q88.
  Connection with = server.Connect();
  with.config().result_cache_enabled = false;
  with.config().llap_enabled = false;
  with.config().container_startup_us = 0;
  Connection without = server.Connect();
  without.config().result_cache_enabled = false;
  without.config().llap_enabled = false;
  without.config().container_startup_us = 0;
  without.config().shared_work_enabled = false;

  std::string sql = TpcdsQ88Style();
  // Warm the data cache so the comparison isolates plan-level reuse.
  RunTimed(with, sql);
  RunTimed(without, sql);

  const int kRuns = 5;
  Timing on, off;  // summed over the runs
  for (int r = 0; r < kRuns; ++r) {
    Timing t_on = RunTimed(with, sql);
    Timing t_off = RunTimed(without, sql);
    if (!t_on.ok || !t_off.ok) {
      std::fprintf(stderr, "q88 failed\n");
      return 1;
    }
    for (auto [sum, t] : {std::pair{&on, &t_on}, std::pair{&off, &t_off}}) {
      sum->wall_ms += t->wall_ms;
      sum->modeled_ms += t->modeled_ms;
      sum->millis += t->millis;
    }
    // Results must agree cell for cell.
    if (!SameRows(t_on.result.rows, t_off.result.rows)) {
      std::fprintf(stderr, "shared-work results diverge!\n");
      return 1;
    }
  }
  // Bytes read per execution (the mechanism behind the speedup).
  MemFileSystem* mem = static_cast<MemFileSystem*>(server.filesystem());
  mem->ResetIoStats();
  RunTimed(with, sql);
  uint64_t bytes_on = mem->bytes_read();
  mem->ResetIoStats();
  RunTimed(without, sql);
  uint64_t bytes_off = mem->bytes_read();

  // The in-memory FS serves reads for free; charge them at a modeled disk
  // throughput so the shared scan's I/O saving shows up in response time
  // the way it did on the paper's HDFS-backed cluster.
  constexpr double kModeledMBps = 200.0;
  auto with_io = [&](double ms, uint64_t bytes) {
    return ms + static_cast<double>(bytes) / (kModeledMBps * 1048.576);
  };
  double off_total = with_io(off.millis / kRuns, bytes_off);
  double on_total = with_io(on.millis / kRuns, bytes_on);

  // Per-run means; the total adds modeled I/O time to wall + modeled.
  PrintHeader("q88-style query: shared work optimizer (Section 4.5)");
  std::printf("%-18s %10s %12s %12s %14s %18s\n", "configuration", "wall_ms",
              "modeled_ms", "wall+modeled", "bytes scanned", "total @200MB/s (ms)");
  for (auto [name, t, bytes, total] :
       {std::tuple{"shared work OFF", &off, bytes_off, off_total},
        std::tuple{"shared work ON", &on, bytes_on, on_total}}) {
    std::printf("%-18s %10.2f %12.2f %12.2f %14llu %18.2f\n", name, t->wall_ms / kRuns,
                t->modeled_ms / kRuns, t->millis / kRuns,
                static_cast<unsigned long long>(bytes), total);
  }
  std::printf("\nSpeedup: %.1fx, scan reduction %.1fx (paper: 2.7x on q88)\n",
              off_total / std::max(on_total, 0.01),
              static_cast<double>(bytes_off) / std::max<double>(bytes_on, 1));
  return 0;
}
