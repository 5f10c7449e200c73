#ifndef HIVE_SERVER_HIVE_SERVER_H_
#define HIVE_SERVER_HIVE_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/memory_governor.h"
#include "common/sim_clock.h"
#include "common/sync.h"
#include "exec/compiler.h"
#include "federation/csv_handler.h"
#include "federation/droid_handler.h"
#include "federation/storage_handler.h"
#include "fs/mem_filesystem.h"
#include "llap/daemon.h"
#include "metastore/catalog.h"
#include "metastore/compaction_manager.h"
#include "metastore/txn_manager.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "optimizer/binder.h"
#include "optimizer/mv_rewrite.h"
#include "optimizer/normalize.h"
#include "optimizer/optimizer.h"
#include "server/connection_manager.h"
#include "server/prepared_statement.h"
#include "server/query_result.h"
#include "server/result_cache.h"
#include "server/workload_manager.h"
#include "sql/parser.h"

namespace hive {

/// HiveServer2 (Section 2): parses, plans, optimizes and executes SQL
/// statements, coordinating the metastore, transaction manager, LLAP
/// daemon, workload manager, result cache and storage handlers. Figure 2's
/// preparation pipeline maps to ExecuteSelect; DML/DDL follow their own
/// drivers.
///
/// Clients talk to the server through RAII Connection handles:
///
///   HiveServer2 server(&fs);
///   Connection conn = server.Connect("etl");
///   auto result = conn.Execute("SELECT ...");
///
/// Each connection owns a server-side session (current database, config
/// overrides, temp tables, prepared statements) that is torn down
/// deterministically when the handle closes.
class HiveServer2 {
 public:
  /// `fs` outlives the server. Default config applies to new sessions.
  HiveServer2(FileSystem* fs, Config config = {});

  /// Opens a connection for `application` (the name workload-manager
  /// mappings route on). The returned handle is the public entry point for
  /// executing statements; it must not outlive the server.
  Connection Connect(const std::string& application = "");

  // --- component access (benchmarks / tests) ---
  Catalog* catalog() { return &catalog_; }
  TransactionManager* txns() { return &txns_; }
  LlapDaemon* llap() { return llap_.get(); }
  DroidStore* droid() { return &droid_; }
  QueryResultCache* result_cache() { return &result_cache_; }
  WorkloadManager* workload_manager() { return &wm_; }
  /// Prepared-statement plan cache (server-wide; see prepared_statement.h).
  PlanCache* plan_cache() { return &plan_cache_; }
  ConnectionManager* connections() { return &connections_; }
  /// Engine-wide metrics registry (SHOW METRICS); components publish into
  /// it via push counters or snapshot-time callback gauges.
  obs::MetricsRegistry* metrics() { return &metrics_; }
  /// Process-wide memory budget every query's reservations draw from.
  MemoryGovernor* memory_governor() { return &governor_; }
  SimClock* clock() { return &clock_; }
  FileSystem* filesystem() { return fs_; }
  CompactionManager* compaction() { return &compaction_; }
  const Config& default_config() const { return default_config_; }

  /// Replaces the server default config. Sessions see the change through
  /// Config layering (LayerConfig): every field a session has not
  /// explicitly overridden tracks the new default. Apply between
  /// statements — concurrent readers of the default are not synchronized.
  void SetDefaultConfig(const Config& config) { default_config_ = config; }

  /// The config one of this session's statements would run under right
  /// now: session overrides on top of the live server default. THE one
  /// place the layering rule is applied (satellite: config layering).
  Config EffectiveConfig(const Session* session) const {
    return LayerConfig(default_config_, session->open_defaults,
                       session->config);
  }

  /// Registers an additional storage handler (Section 6.1) alongside the
  /// built-in droid/CSV ones; referenced by CREATE TABLE ... STORED BY
  /// '<name>'. Call before queries touch tables of that handler.
  void RegisterStorageHandler(std::unique_ptr<StorageHandler> handler) {
    handlers_.Register(std::move(handler));
  }

 private:
  friend class DmlDriver;
  friend class Connection;

  /// Registers snapshot-time callback gauges for every component that
  /// already keeps internal counters (LLAP cache/daemon, result cache,
  /// transaction + compaction managers); called once from the constructor.
  void RegisterEngineMetrics();

  /// Statement entry points behind Connection::Execute/ExecuteScript:
  /// bracket the dispatch with the session's in-flight accounting so Close
  /// can drain deterministically.
  Result<QueryResult> ExecuteOn(Session* session, const std::string& sql);
  Result<std::vector<QueryResult>> ExecuteScriptOn(Session* session,
                                                   const std::string& sql);

  Result<QueryResult> Dispatch(Session* session, const StatementPtr& stmt);
  /// `bypass_cache` skips the result-cache probe AND fill (EXPLAIN ANALYZE
  /// must measure a real execution); `use_plan_cache` lets attempt 0 reuse
  /// an optimized plan from the prepared-statement plan cache.
  Result<QueryResult> ExecuteSelect(Session* session, const SelectStmt& stmt,
                                    const std::string& cache_key,
                                    bool bypass_cache = false,
                                    bool use_plan_cache = false);
  /// One planning+execution attempt; `attempt` > 0 applies the configured
  /// re-execution strategy (overlay / reoptimize with runtime stats).
  Result<QueryResult> TryExecuteSelect(Session* session, const SelectStmt& stmt,
                                       int attempt, RuntimeStats* stats,
                                       Config* attempt_config,
                                       bool use_plan_cache);
  Result<QueryResult> ExecuteExplain(Session* session, const ExplainStatement& stmt);
  Result<QueryResult> ExecuteDdl(Session* session, const StatementPtr& stmt);
  /// PREPARE / EXECUTE / DEALLOCATE (prepared statements).
  Result<QueryResult> ExecutePrepare(Session* session,
                                     const PrepareStatement& stmt);
  Result<QueryResult> ExecutePrepared(Session* session,
                                      const ExecuteStatement& stmt,
                                      bool bypass_cache = false);
  /// Looks up the prepared statement and substitutes the EXECUTE arguments
  /// (literals only) into a fresh tree ready for planning.
  Result<std::shared_ptr<SelectStmt>> ResolvePrepared(
      Session* session, const ExecuteStatement& stmt);
  /// Evaluates a materialized view's definition over only the write ids
  /// added since the view's recorded snapshot (incremental maintenance).
  Result<QueryResult> ExecuteIncrementalMvQuery(Session* session,
                                                const SelectStmt& stmt,
                                                const TableDesc& view);
  Result<QueryResult> ExecuteAnalyze(Session* session, const AnalyzeTableStatement& stmt);
  Result<QueryResult> ExecuteShowMetrics();

  /// Temp-table resolver for this session (feeds normalization + binding).
  TableResolver TempResolver(Session* session) const;
  /// Canonical result-cache key: database-qualified, temp-resolved text,
  /// identical for an ad-hoc query and the equivalent EXECUTE.
  std::string ResultCacheKey(Session* session, const SelectStmt& stmt) const;

  /// Plans a SELECT into an optimized RelNode tree (parse products in).
  Result<RelNodePtr> PlanSelect(Session* session, const SelectStmt& stmt,
                                const Config& config,
                                std::vector<std::string>* referenced_tables,
                                bool* nondeterministic,
                                const std::map<std::string, int64_t>* runtime_stats,
                                int* mv_rewrites);

  /// Builds the ExecContext for one execution.
  ExecContext MakeContext(const Config& config, const TxnSnapshot& snapshot,
                          RuntimeStats* stats,
                          std::shared_ptr<std::atomic<bool>> cancelled,
                          std::shared_ptr<KillReason> kill_reason = nullptr);

  /// True when the MV is usable for rewriting under its staleness window.
  bool MvIsFresh(const TableDesc& view) const;

  FileSystem* fs_;
  Config default_config_;
  SimClock clock_;
  Catalog catalog_;
  TransactionManager txns_;
  CompactionManager compaction_;
  std::unique_ptr<LlapDaemon> llap_;
  DroidStore droid_;
  StorageHandlerRegistry handlers_;
  QueryResultCache result_cache_;
  WorkloadManager wm_;
  obs::MetricsRegistry metrics_;
  MemoryGovernor governor_;
  PlanCache plan_cache_;
  /// Declared last: its destructor closes every remaining session (which
  /// touches the catalog, caches and filesystem above), so it must be
  /// destroyed first.
  ConnectionManager connections_;
};

}  // namespace hive

#endif  // HIVE_SERVER_HIVE_SERVER_H_
