#ifndef HIVEBENCH_TRACE_H_
#define HIVEBENCH_TRACE_H_

// The traced run: a counting and timing FileSystem decorator, spans
// recorded around the benchmark's own calls into each layer's public
// functions, per-layer metrics aggregated from them, and standalone probes
// of the storage reader, the LLAP cache and the vectorized filter over a
// workload's own files.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "harness.h"

namespace hivebench {

/// Forwards every call to `base`, counting calls per operation, bytes
/// written and the time spent inside the base file system; bytes read are
/// the FileSystem base class's own bytes_read() on this decorator.
class CountingFileSystem : public hive::FileSystem {
 public:
  enum Op { kRead, kReadRange, kWrite, kList, kStat, kRename, kDelete, kExists,
            kMkdirs, kNumOps };
  static const char* OpName(int op);

  struct Counters {
    int64_t calls[kNumOps] = {};
    int64_t read_bytes = 0;
    int64_t write_bytes = 0;
    int64_t busy_ns = 0;
  };

  explicit CountingFileSystem(hive::FileSystem* base) : base_(base) {}
  CountingFileSystem(const CountingFileSystem&) = delete;
  CountingFileSystem& operator=(const CountingFileSystem&) = delete;

  hive::Status WriteFile(const std::string& path, const std::string& data) override;
  hive::Result<std::string> ReadFile(const std::string& path) override;
  hive::Result<std::string> ReadRange(const std::string& path, uint64_t offset,
                                      uint64_t len) override;
  hive::Result<hive::FileInfo> Stat(const std::string& path) override;
  hive::Result<std::vector<hive::FileInfo>> ListDir(const std::string& path) override;
  hive::Status MakeDirs(const std::string& path) override;
  hive::Status DeleteFile(const std::string& path) override;
  hive::Status DeleteRecursive(const std::string& path) override;
  hive::Status Rename(const std::string& from, const std::string& to) override;
  bool Exists(const std::string& path) override;

  Counters Snapshot() const;

 private:
  class Timer;

  hive::FileSystem* base_;
  std::atomic<int64_t> calls_[kNumOps] = {};
  std::atomic<int64_t> write_bytes_{0};
  std::atomic<int64_t> busy_ns_{0};
};

/// One span: a timed call into a layer. Spans of one statement share
/// `stmt`; `parent` is -1 for a statement's root. Operator spans come from
/// the engine's QueryProfile, which records durations but not start times:
/// they are `packed` — laid end to end from their parent's start — so only
/// their durations are measurements.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t stmt = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool packed = false;
};

/// Per-layer accumulation over a traced loop.
class Tracer {
 public:
  Tracer(Env* env, const Workload* workload);

  /// Executes one statement with its layer calls traced; fills `record`.
  void RunStatement(size_t index, const Stmt& stmt, StmtRecord* record);

  /// Per-layer metrics (name -> value), with `units` filled alongside.
  std::map<std::string, double> Metrics(std::map<std::string, std::string>* units) const;

  /// Writes spans as JSON lines; each line carries the span's self time
  /// (duration minus the part its children cover).
  bool WriteSpans(const std::string& path) const;

 private:
  int64_t Begin(const std::string& name, int64_t stmt, int64_t parent);
  void End(int64_t id);
  void AddProfileSpans(const hive::obs::OperatorProfileNode& node, int64_t stmt,
                       int64_t parent, int64_t start_ns);
  int64_t CountAcidDirs() const;

  Env* env_;
  const Workload* workload_;
  std::string table_location_;
  int64_t t0_ns_;
  std::vector<Span> spans_;

  size_t stmts_ = 0, reads_ = 0, writes_ = 0;
  double stmt_us_ = 0, parse_us_ = 0, bind_us_ = 0, optimize_us_ = 0;
  double read_stmt_us_ = 0, read_parse_us_ = 0, read_bind_us_ = 0,
         read_optimize_us_ = 0, read_exec_us_ = 0;
  std::map<std::string, double> self_us_;
  MetricDelta registry_;
  CountingFileSystem::Counters fs_;
  std::vector<double> read_us_, write_us_, compacting_write_us_, plain_write_us_;
  int64_t acid_dirs_ = 0;
  int64_t user_bytes_ = 0;
  int64_t limit_stmts_ = 0, limit_morsels_ = 0;
  int limit_tmpl_ = -1;
};

/// Standalone probes over the probe table's files: CofReader decode,
/// LlapCacheProvider::ReadChunk miss then hit, and FilterSelection over
/// decoded row groups for each of the workload's filter predicates.
std::map<std::string, double> RunProbes(Env& env, const Workload& workload,
                                        std::map<std::string, std::string>* units);

/// Files (not directories) below `dir`, recursively, in sorted order.
std::vector<std::string> ListFilesRecursive(hive::FileSystem* fs, const std::string& dir);

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

}  // namespace hivebench

#endif  // HIVEBENCH_TRACE_H_
