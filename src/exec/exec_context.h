#ifndef HIVE_EXEC_EXEC_CONTEXT_H_
#define HIVE_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "common/cancel.h"
#include "common/column_vector.h"
#include "common/config.h"
#include "common/memory_governor.h"
#include "common/sim_clock.h"
#include "common/sync.h"
#include "fs/filesystem.h"
#include "metastore/catalog.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "storage/acid.h"
#include "storage/chunk_provider.h"

namespace hive {

class Operator;
using OperatorPtr = std::unique_ptr<Operator>;

/// Execution-runtime mode, standing in for the task compilers the paper
/// describes (Section 2): MapReduce materializes every stage boundary and
/// pays container start-up per stage; Tez runs the whole DAG with one
/// container allocation; LLAP adds persistent executors (no start-up cost)
/// and the data cache.
enum class RuntimeMode { kMapReduce, kTez, kLlap };

/// Runtime statistics captured per plan node (keyed by node digest); feeds
/// query re-optimization (Section 4.2).
struct RuntimeStats {
  Mutex mu{"runtime_stats.mu"};
  std::map<std::string, int64_t> row_counts HIVE_GUARDED_BY(mu);

  // --- fault-tolerance counters (task attempts, Section 5.2 robustness) ---
  /// Task attempts started (morsel reads and vertex runs; >= tasks run).
  std::atomic<int64_t> task_attempts{0};
  /// Attempts that were retries of a transient failure.
  std::atomic<int64_t> task_retries{0};
  /// Speculative duplicate attempts launched against stragglers.
  std::atomic<int64_t> speculative_tasks{0};
  /// Speculative attempts that finished ahead of the original.
  std::atomic<int64_t> speculative_wins{0};

  /// Accumulates: a node executed as several parallel fragments records one
  /// partial count per fragment, and re-optimization needs their sum.
  void Record(const std::string& digest, int64_t rows) {
    MutexLock lock(&mu);
    row_counts[digest] += rows;
  }
};

/// Per-query execution context threaded through all operators.
struct ExecContext {
  FileSystem* fs = nullptr;
  Catalog* catalog = nullptr;
  const Config* config = nullptr;
  /// Charged with modeled cluster latencies (container start-up, shuffle).
  SimClock* clock = nullptr;
  /// Chunk provider (LLAP cache when enabled, direct otherwise).
  ChunkProvider* chunks = nullptr;
  /// Resolves the snapshot for a table ("db.table") at query start.
  std::function<ValidWriteIdList(const std::string&)> snapshot_for;
  /// Compiles a subplan into an operator (semijoin reducer build sides).
  std::function<Result<OperatorPtr>(const std::shared_ptr<struct RelNode>&)>
      compile_subplan;
  /// Creates scan operators for storage-handler tables (federation).
  std::function<Result<OperatorPtr>(const struct RelNode&)> external_scan_factory;
  /// Runtime stats sink (may be null).
  RuntimeStats* runtime_stats = nullptr;
  /// Per-query profile: when set, the compiler wraps every operator in a
  /// span recorder and attaches the plan's span tree here (EXPLAIN ANALYZE
  /// and QueryResult::profile()). May be null (DML subplans, MV refresh).
  obs::QueryProfile* profile = nullptr;
  /// Engine-wide metrics registry (morsel counters/histograms land here);
  /// may be null in unit tests that build contexts by hand.
  obs::MetricsRegistry* metrics = nullptr;
  RuntimeMode mode = RuntimeMode::kTez;

  /// Fans an intra-query worker fragment out to the persistent executor pool
  /// (morsel-driven parallel pipelines). Null = no executor pool; workers
  /// then run inline on the coordinating thread.
  std::function<std::future<Status>(std::function<Status()>)> submit_worker;
  /// I/O elevator hook: asynchronously reads + decodes a column chunk into
  /// the shared cache so it is warm by the time a worker claims the morsel.
  std::function<void(std::shared_ptr<CofReader>, size_t, size_t)> prefetch_chunk;
  /// Upper bound on worker threads a single parallel pipeline may use.
  int max_parallel_workers = 1;
  /// Abort flag for workload-manager KILL triggers.
  std::shared_ptr<std::atomic<bool>> cancelled;
  /// Why `cancelled` was raised (trigger name / deadline); shared with the
  /// workload manager's QueryHandle. May be null (no reason tracking).
  std::shared_ptr<KillReason> kill_reason;
  /// Query-start timestamps arming the query.timeout.ms deadline; the
  /// elapsed budget counts wall time plus charged virtual time so modeled
  /// cluster latency (container start-up, injected faults) consumes it too.
  int64_t deadline_wall_start_us = 0;
  int64_t deadline_virt_start_us = 0;
  bool deadline_armed = false;

  /// Maximum rows a hash-join build side may hold before the operator
  /// fails with an ExecError — the trigger for re-optimization.
  int64_t join_build_row_limit = INT64_MAX;

  /// Per-query memory accounting (process governor + query share) blocking
  /// operators draw reservations from. Null (hand-built contexts, DML
  /// subplans) means unlimited — no reservation is ever denied.
  QueryMemory* query_memory = nullptr;
  /// This query's spill directory (unique per query, cleaned up by the
  /// server after the last attempt). Empty disables spilling.
  std::string spill_dir;

  /// True when a denied reservation may be answered by spilling: the knob
  /// is on and the context has a file system and a spill directory.
  bool CanSpill() const {
    return config && config->spill_enabled && fs && !spill_dir.empty();
  }

  int64_t stage_counter = 0;
  uint64_t shuffle_bytes = 0;

  /// Called by blocking operators when a pipeline stage completes having
  /// materialized `bytes`. In MR mode this charges a container start-up and
  /// round-trips the shuffle data through the file system; in Tez mode the
  /// data stays pipelined in memory.
  Status OnStageBoundary(uint64_t bytes);

  /// Called once when query execution starts (container allocation).
  void OnQueryStart();

  /// Arms the query.timeout.ms deadline relative to now.
  void ArmDeadline();

  /// Interruption point, evaluated at morsel/batch boundaries: trips the
  /// query.timeout.ms deadline if its budget is exhausted, then reports any
  /// raised cancellation flag as a ResourceExhausted status naming the
  /// trigger (workload-manager rule or deadline) that killed the query.
  Status CheckInterrupted() const;

  bool IsCancelled() const { return cancelled && cancelled->load(); }
};

}  // namespace hive

#endif  // HIVE_EXEC_EXEC_CONTEXT_H_
