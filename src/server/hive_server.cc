#include "server/hive_server.h"

#include <algorithm>

#include "exec/task_retry.h"
#include "federation/materialized_operator.h"
#include "server/dml.h"
#include "obs/metric_names.h"

namespace hive {

HiveServer2::HiveServer2(FileSystem* fs, Config config)
    : fs_(fs),
      default_config_(config),
      catalog_(fs),
      compaction_(&catalog_, &txns_, &default_config_),
      governor_(config.exec_memory_limit_bytes),
      plan_cache_(static_cast<size_t>(std::max(config.plan_cache_capacity, 0))),
      connections_(this, &catalog_, &result_cache_, fs_, &wm_, &metrics_) {
  llap_ = std::make_unique<LlapDaemon>(fs_, default_config_);
  // Compaction cleanup deletes superseded files; their cached chunks go too.
  LlapCacheProvider* cache = llap_->cache();
  compaction_.set_clean_listener(
      [cache](const std::vector<std::string>& dirs) { cache->InvalidateDirs(dirs); });
  handlers_.Register(std::make_unique<DroidStorageHandler>(&droid_));
  handlers_.Register(std::make_unique<CsvStorageHandler>(fs_));
  // Hidden home of session temp tables; created eagerly so the first
  // CREATE TEMPORARY TABLE doesn't race another session's.
  // lint: allow-discard(already-exists is fine when two servers share a catalog fs)
  (void)catalog_.CreateDatabase(kTempDatabase);
  RegisterEngineMetrics();
  wm_.RegisterMetrics(&metrics_);
  // Workload-manager triggers may name any registry metric in addition to
  // the built-in elapsed-runtime one ("WHEN llap.cache.misses > N THEN ...").
  wm_.SetMetricReader([this](const std::string& name) { return metrics_.Value(name); });
}

void HiveServer2::RegisterEngineMetrics() {
  // Pull-style gauges: each component keeps its own atomics; the registry
  // polls them only when a snapshot is taken, so these add zero hot-path
  // cost. Names follow the <subsystem>.<object>.<event> scheme.
  LlapCacheProvider* cache = llap_->cache();
  metrics_.RegisterCallback(obs::metric::kLlapCacheHits,
                            [cache] { return static_cast<int64_t>(cache->data_hits()); });
  metrics_.RegisterCallback(obs::metric::kLlapCacheMisses,
                            [cache] { return static_cast<int64_t>(cache->data_misses()); });
  metrics_.RegisterCallback(obs::metric::kLlapCacheEvictions,
                            [cache] { return static_cast<int64_t>(cache->data_evictions()); });
  metrics_.RegisterCallback(obs::metric::kLlapCacheUsedBytes,
                            [cache] { return static_cast<int64_t>(cache->used_bytes()); });
  metrics_.RegisterCallback(obs::metric::kLlapCacheChunks,
                            [cache] { return static_cast<int64_t>(cache->cached_chunks()); });
  metrics_.RegisterCallback(obs::metric::kLlapCacheDecodes,
                            [cache] { return static_cast<int64_t>(cache->data_decodes()); });
  metrics_.RegisterCallback(obs::metric::kLlapCacheSingleflightWaits, [cache] {
    return static_cast<int64_t>(cache->singleflight_waits());
  });
  metrics_.RegisterCallback(obs::metric::kLlapCacheMetadataHits, [cache] {
    return static_cast<int64_t>(cache->metadata_hits());
  });
  metrics_.RegisterCallback(obs::metric::kLlapCachePoisonDetected, [cache] {
    return static_cast<int64_t>(cache->poison_detected());
  });
  metrics_.RegisterCallback(obs::metric::kLlapCacheDegradedReads, [cache] {
    return static_cast<int64_t>(cache->degraded_reads());
  });
  metrics_.RegisterCallback(obs::metric::kLlapCacheDegradedFiles, [cache] {
    return static_cast<int64_t>(cache->degraded_files());
  });
  LlapDaemon* llap = llap_.get();
  metrics_.RegisterCallback(obs::metric::kLlapFragmentsSubmitted,
                            [llap] { return llap->fragments_submitted(); });
  metrics_.RegisterCallback(obs::metric::kLlapFragmentsCompleted,
                            [llap] { return llap->fragments_completed(); });
  metrics_.RegisterCallback(obs::metric::kLlapIoPrefetches,
                            [llap] { return llap->prefetches_issued(); });
  QueryResultCache* results = &result_cache_;
  metrics_.RegisterCallback(obs::metric::kResultCacheHits, [results] { return results->hits(); });
  metrics_.RegisterCallback(obs::metric::kResultCacheMisses,
                            [results] { return results->misses(); });
  metrics_.RegisterCallback(obs::metric::kResultCacheEntries, [results] {
    return static_cast<int64_t>(results->size());
  });
  TransactionManager* txns = &txns_;
  metrics_.RegisterCallback(obs::metric::kTxnAborted, [txns] {
    return static_cast<int64_t>(txns->NumAborted());
  });
  CompactionManager* compaction = &compaction_;
  metrics_.RegisterCallback(obs::metric::kCompactionRuns,
                            [compaction] { return compaction->compactions_run(); });
  metrics_.RegisterCallback(obs::metric::kCompactionPendingCleans, [compaction] {
    return static_cast<int64_t>(compaction->pending_cleans());
  });
  SimClock* clock = &clock_;
  metrics_.RegisterCallback(obs::metric::kVirtualUs, [clock] { return clock->virtual_us(); });
  PlanCache* plans = &plan_cache_;
  metrics_.RegisterCallback(obs::metric::kPlanCacheHits,
                            [plans] { return plans->hits(); });
  metrics_.RegisterCallback(obs::metric::kPlanCacheMisses,
                            [plans] { return plans->misses(); });
  metrics_.RegisterCallback(obs::metric::kPlanCacheInvalidations,
                            [plans] { return plans->invalidations(); });
  metrics_.RegisterCallback(obs::metric::kPlanCacheEntries, [plans] {
    return static_cast<int64_t>(plans->size());
  });
}

Connection HiveServer2::Connect(const std::string& application) {
  return connections_.Connect(application, default_config_);
}

Result<QueryResult> HiveServer2::ExecuteOn(Session* session, const std::string& sql) {
  HIVE_RETURN_IF_ERROR(session->BeginStatement());
  Result<QueryResult> result = Status::OK();
  auto parsed = Parser::Parse(sql);
  if (parsed.ok()) {
    result = Dispatch(session, *parsed);
  } else {
    result = parsed.status();
  }
  session->EndStatement();
  return result;
}

Result<std::vector<QueryResult>> HiveServer2::ExecuteScriptOn(
    Session* session, const std::string& sql) {
  HIVE_RETURN_IF_ERROR(session->BeginStatement());
  Result<std::vector<QueryResult>> out = std::vector<QueryResult>{};
  auto parsed = Parser::ParseScript(sql);
  if (!parsed.ok()) {
    out = parsed.status();
  } else {
    out->reserve(parsed->size());
    for (const StatementPtr& stmt : *parsed) {
      Result<QueryResult> result = Dispatch(session, stmt);
      if (!result.ok()) {
        out = result.status();
        break;
      }
      out->push_back(std::move(*result));
    }
  }
  session->EndStatement();
  return out;
}

TableResolver HiveServer2::TempResolver(Session* session) const {
  return [session](std::string* db, std::string* table) {
    // lint: allow-discard(resolver contract: untouched names mean no match)
    (void)session->ResolveTempTable(db, table);
  };
}

std::string HiveServer2::ResultCacheKey(Session* session,
                                        const SelectStmt& stmt) const {
  return NormalizedQueryText(stmt, session->database, TempResolver(session));
}

Result<QueryResult> HiveServer2::Dispatch(Session* session, const StatementPtr& stmt) {
  metrics_.counter(obs::metric::kServerStatements)->Inc();
  DmlDriver dml(this, session);
  switch (stmt->kind()) {
    case StatementKind::kSelect: {
      const auto* select = static_cast<const SelectStatement*>(stmt.get());
      // Cache key: canonical AST with fully qualified tables (current
      // database and session temp tables resolved into the key), so
      // identical text in different databases/sessions cannot collide and
      // an EXECUTE of the equivalent query shares the entry.
      std::string key = ResultCacheKey(session, select->select);
      return ExecuteSelect(session, select->select, key);
    }
    case StatementKind::kExplain:
      return ExecuteExplain(session, *static_cast<const ExplainStatement*>(stmt.get()));
    case StatementKind::kPrepare:
      return ExecutePrepare(session, *static_cast<const PrepareStatement*>(stmt.get()));
    case StatementKind::kExecute:
      return ExecutePrepared(session, *static_cast<const ExecuteStatement*>(stmt.get()));
    case StatementKind::kDeallocate: {
      const auto* dealloc = static_cast<const DeallocateStatement*>(stmt.get());
      HIVE_RETURN_IF_ERROR(session->RemovePrepared(dealloc->name));
      return QueryResult{};
    }
    case StatementKind::kInsert:
      return dml.Insert(*static_cast<const InsertStatement*>(stmt.get()));
    case StatementKind::kUpdate:
      return dml.Update(*static_cast<const UpdateStatement*>(stmt.get()));
    case StatementKind::kDelete:
      return dml.Delete(*static_cast<const DeleteStatement*>(stmt.get()));
    case StatementKind::kMerge:
      return dml.Merge(*static_cast<const MergeStatement*>(stmt.get()));
    case StatementKind::kCreateMaterializedView:
      return dml.CreateMaterializedView(
          *static_cast<const CreateMaterializedViewStatement*>(stmt.get()));
    case StatementKind::kAlterMaterializedViewRebuild:
      return dml.RebuildMaterializedView(
          *static_cast<const AlterMaterializedViewRebuildStatement*>(stmt.get()));
    case StatementKind::kAnalyzeTable:
      return ExecuteAnalyze(session,
                            *static_cast<const AnalyzeTableStatement*>(stmt.get()));
    case StatementKind::kResourcePlanDdl: {
      HIVE_RETURN_IF_ERROR(
          wm_.Apply(*static_cast<const ResourcePlanStatement*>(stmt.get())));
      return QueryResult{};
    }
    case StatementKind::kShowMetrics:
      return ExecuteShowMetrics();
    default:
      return ExecuteDdl(session, stmt);
  }
}

bool HiveServer2::MvIsFresh(const TableDesc& view) const {
  bool stale = false;
  for (const auto& [table, hwm] : view.mv_source_snapshot) {
    if (txns_.TableWriteIdHighWatermark(table) != hwm) stale = true;
  }
  if (!stale) return true;
  // Stale views may still rewrite within their declared staleness window
  // (rebuilds run periodically in micro batches; Section 4.4).
  if (view.mv_staleness_window_us <= 0) return false;
  return SimClock::WallMicros() - view.mv_last_rebuild_us <=
         view.mv_staleness_window_us;
}

Result<RelNodePtr> HiveServer2::PlanSelect(
    Session* session, const SelectStmt& stmt, const Config& config,
    std::vector<std::string>* referenced_tables, bool* nondeterministic,
    const std::map<std::string, int64_t>* runtime_stats, int* mv_rewrites) {
  Binder binder(&catalog_, &config, session->database);
  binder.set_table_resolver(TempResolver(session));
  HIVE_ASSIGN_OR_RETURN(RelNodePtr plan, binder.BindSelect(stmt));
  if (referenced_tables) *referenced_tables = binder.referenced_tables();
  if (nondeterministic) *nondeterministic = binder.uses_nondeterministic();
  Optimizer optimizer(&catalog_, &config);
  optimizer.set_mv_filter([this](const TableDesc& view) { return MvIsFresh(view); });
  if (runtime_stats) optimizer.set_runtime_stats(*runtime_stats);
  HIVE_ASSIGN_OR_RETURN(plan, optimizer.Optimize(plan));
  if (mv_rewrites) *mv_rewrites = LastMvRewriteCount();
  // Federation pushdown (Section 6.2) runs as a final stage.
  HIVE_ASSIGN_OR_RETURN(plan, PushDownToHandlers(plan, &handlers_));
  return plan;
}

ExecContext HiveServer2::MakeContext(const Config& config, const TxnSnapshot& snapshot,
                                     RuntimeStats* stats,
                                     std::shared_ptr<std::atomic<bool>> cancelled,
                                     std::shared_ptr<KillReason> kill_reason) {
  ExecContext ctx;
  ctx.fs = fs_;
  ctx.catalog = &catalog_;
  ctx.config = &config;
  ctx.clock = &clock_;
  ctx.mode = config.llap_enabled
                 ? RuntimeMode::kLlap
                 : (config.execution_engine == "mr" ? RuntimeMode::kMapReduce
                                                    : RuntimeMode::kTez);
  ctx.chunks = config.llap_enabled
                   ? static_cast<ChunkProvider*>(llap_->cache())
                   : nullptr;  // filled by caller when direct
  ctx.snapshot_for = [this, snapshot](const std::string& table) {
    return txns_.GetValidWriteIds(table, snapshot);
  };
  ctx.runtime_stats = stats;
  ctx.metrics = &metrics_;
  ctx.cancelled = std::move(cancelled);
  ctx.kill_reason = std::move(kill_reason);
  // Morsel-driven intra-query parallelism: leaf pipelines fan out across the
  // LLAP executor pool; chunk read-ahead rides the I/O elevator threads.
  ctx.max_parallel_workers = config.num_executors;
  if (llap_ && config.execution_engine != "mr") {
    LlapDaemon* llap = llap_.get();
    ctx.submit_worker = [llap](std::function<Status()> fn) {
      return llap->SubmitWorkFragment(std::move(fn));
    };
  }
  if (config.llap_enabled && llap_) {
    LlapDaemon* llap = llap_.get();
    ctx.prefetch_chunk = [llap](std::shared_ptr<CofReader> reader,
                                size_t row_group, size_t column) {
      llap->PrefetchChunk(std::move(reader), row_group, column);
    };
  }
  return ctx;
}

namespace {
/// Unhooks a statement's cancellation registration on every exit path.
struct CancelRegistration {
  Session* session;
  uint64_t token;
  ~CancelRegistration() { session->UnregisterCancel(token); }
};
}  // namespace

Result<QueryResult> HiveServer2::TryExecuteSelect(Session* session,
                                                  const SelectStmt& stmt, int attempt,
                                                  RuntimeStats* stats,
                                                  Config* attempt_config,
                                                  bool use_plan_cache) {
  Config& config = *attempt_config;
  std::map<std::string, int64_t> overrides;
  if (attempt > 0 && config.reexecution_strategy == "reoptimize" && stats) {
    MutexLock lock(&stats->mu);
    overrides = stats->row_counts;
  }
  if (attempt > 0 && config.reexecution_strategy == "overlay") {
    // Overlay strategy: force the robust configuration on reexecution.
    config.llap_enabled = false;
    config.execution_engine = "tez";
  }
  int mv_rewrites = 0;
  std::vector<std::string> referenced;
  bool nondeterministic = false;
  // Plan-cache probe (prepared statements, attempt 0 only: re-execution
  // attempts deliberately re-plan). The key folds in the planner-relevant
  // config fingerprint; the catalog version check drops entries staled by
  // DDL or ANALYZE. Plans that used an MV rewrite are never reused — MV
  // freshness is time-dependent.
  RelNodePtr plan;
  const bool probe_plan_cache =
      use_plan_cache && attempt == 0 && config.plan_cache_enabled;
  std::string plan_key;
  uint64_t catalog_version = 0;
  if (probe_plan_cache) {
    plan_key = ResultCacheKey(session, stmt) + "#" +
               PlanCache::ConfigFingerprint(config);
    catalog_version = catalog_.version();
    PlanCache::Entry entry;
    if (plan_cache_.Lookup(plan_key, catalog_version, &entry)) {
      plan = entry.plan;
      mv_rewrites = entry.mv_rewrites;
    }
  }
  if (!plan) {
    HIVE_ASSIGN_OR_RETURN(
        plan, PlanSelect(session, stmt, config, &referenced, &nondeterministic,
                         overrides.empty() ? nullptr : &overrides, &mv_rewrites));
    if (probe_plan_cache && mv_rewrites == 0)
      plan_cache_.Insert(plan_key, {plan, mv_rewrites, catalog_version});
  }

  // Admission control + snapshot. The cancellation hooks are created ahead
  // of Admit and registered with the session so teardown can abort this
  // query even while it waits in the admission queue. The reader scope
  // keeps the compaction cleaner from deleting directories this scan's
  // snapshot may still select.
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  auto kill_reason = std::make_shared<KillReason>();
  CancelRegistration registration{
      session, session->RegisterCancel(cancelled, kill_reason)};
  HIVE_ASSIGN_OR_RETURN(
      auto wm_handle,
      wm_.Admit(session->application, config.wlm_queue_timeout_ms, cancelled,
                kill_reason));
  CompactionManager::ReadScope read_scope(&compaction_);
  TxnSnapshot snapshot = txns_.GetSnapshot();

  DirectChunkProvider direct(fs_);
  ExecContext ctx = MakeContext(config, snapshot, stats, wm_handle->cancelled,
                                wm_handle->kill_reason);
  if (!ctx.chunks) ctx.chunks = &direct;
  ctx.external_scan_factory = [this, &ctx](const RelNode& scan) -> Result<OperatorPtr> {
    StorageHandler* handler = handlers_.Get(scan.table.storage_handler);
    if (!handler)
      return Status::NotSupported("no handler: " + scan.table.storage_handler);
    return handler->CreateScan(&ctx, scan);
  };
  ctx.join_build_row_limit = config.join_build_row_limit;
  if (attempt > 0) ctx.join_build_row_limit = INT64_MAX;

  // Memory governance: every blocking operator in this query draws from one
  // QueryMemory over the process governor; a denied grow makes it spill into
  // the query's private namespace under spill_dir (torn down below).
  QueryMemory query_memory(&governor_, config.query_memory_limit_bytes);
  ctx.query_memory = &query_memory;
  std::string spill_dir;
  if (config.spill_enabled && !config.spill_dir.empty()) {
    // Session-scoped namespace: close tears down everything under
    // <spill_dir>/s<sid> in one sweep even when per-query cleanup was
    // skipped by a crashily-cancelled query.
    spill_dir = config.spill_dir + "/s" + std::to_string(session->id) + "/q" +
                std::to_string(governor_.NextSpillId());
    ctx.spill_dir = spill_dir;
  }

  int64_t wall_start = SimClock::WallMicros();
  int64_t virt_start = clock_.virtual_us();
  // Engine-wide cache counters move under concurrent queries; the deltas
  // recorded below are this query's approximate share.
  uint64_t llap_hits_start = llap_ ? llap_->cache()->data_hits() : 0;
  uint64_t llap_misses_start = llap_ ? llap_->cache()->data_misses() : 0;
  ctx.ArmDeadline();
  ctx.OnQueryStart();

  QueryResult result;
  obs::QueryProfile* profile = &result.profile();
  ctx.profile = profile;
  auto run = [&]() -> Status {
    // Fresh vertex attempt: recompile and rebuild the result from scratch
    // (a Tez task re-run restarts the fragment, never resumes it), and drop
    // any span tree a failed attempt attached.
    result.rows.clear();
    result.schema = Schema();
    profile->ResetOperatorTree();
    HIVE_ASSIGN_OR_RETURN(OperatorPtr root, CompilePlan(&ctx, plan));
    HIVE_RETURN_IF_ERROR(root->Open());
    result.schema = root->schema();
    bool done = false;
    for (;;) {
      // Coordinator-side interruption point: a KILL trigger or deadline that
      // fired between batches must abort even when every remaining operator
      // only drains already-materialized state (and so never polls again).
      HIVE_RETURN_IF_ERROR(ctx.CheckInterrupted());
      auto batch = root->Next(&done);
      if (!batch.ok()) return batch.status();
      if (done) break;
      for (size_t i = 0; i < batch->SelectedSize(); ++i)
        result.rows.push_back(batch->GetRow(i));
      // Report progress so workload-manager triggers can MOVE/KILL.
      int64_t elapsed_ms =
          (SimClock::WallMicros() - wall_start + clock_.virtual_us() - virt_start) /
          1000;
      wm_.ReportProgress(wm_handle, elapsed_ms);
    }
    return root->Close();
  };
  // Vertex-level task attempts: a transient failure that escaped the
  // morsel-level retries (e.g. while opening footers) re-runs the whole
  // fragment, the way Tez re-runs a failed task attempt.
  Status exec_status = RunTaskAttempts(&config, &clock_, stats, [&]() -> Status {
    if (config.llap_enabled && llap_) {
      // Query fragments execute on the persistent LLAP executors.
      auto future = llap_->SubmitFragment([&run] { return run(); });
      return future.get();
    }
    return run();
  });
  wm_.Release(wm_handle);
  if (!spill_dir.empty()) {
    // lint: allow-discard(spill teardown is best-effort; results are already materialized)
    (void)fs_->DeleteRecursive(spill_dir);
    // Prune the session namespace too once its last query dir is gone, so an
    // idle session leaves no entry under spill_dir (close sweeps it anyway).
    std::string session_dir =
        config.spill_dir + "/s" + std::to_string(session->id);
    if (auto entries = fs_->ListDir(session_dir);
        entries.ok() && entries->empty()) {
      // lint: allow-discard(best-effort prune; a concurrent query may recreate it)
      (void)fs_->DeleteRecursive(session_dir);
    }
  }
  if (!exec_status.ok()) return exec_status;

  namespace qc = obs::qc;
  profile->SetCounter(qc::kWallUs, SimClock::WallMicros() - wall_start);
  profile->SetCounter(qc::kVirtualUs, clock_.virtual_us() - virt_start);
  profile->SetCounter(qc::kRowsReturned, static_cast<int64_t>(result.rows.size()));
  if (mv_rewrites) profile->SetCounter(qc::kMvRewrites, mv_rewrites);
  if (stats) {
    // RuntimeStats accumulates across attempts of one ExecuteSelect, so
    // these are cumulative for the query, not just this attempt.
    profile->SetCounter(qc::kTaskAttempts,
                        stats->task_attempts.load(std::memory_order_relaxed));
    profile->SetCounter(qc::kTaskRetries,
                        stats->task_retries.load(std::memory_order_relaxed));
    profile->SetCounter(qc::kSpeculativeTasks,
                        stats->speculative_tasks.load(std::memory_order_relaxed));
    profile->SetCounter(qc::kSpeculativeWins,
                        stats->speculative_wins.load(std::memory_order_relaxed));
  }
  if (llap_ && config.llap_enabled) {
    profile->SetCounter(qc::kLlapCacheHits,
                        static_cast<int64_t>(llap_->cache()->data_hits() -
                                             llap_hits_start));
    profile->SetCounter(qc::kLlapCacheMisses,
                        static_cast<int64_t>(llap_->cache()->data_misses() -
                                             llap_misses_start));
  }
  result.rows_affected = static_cast<int64_t>(result.rows.size());
  return result;
}

Result<QueryResult> HiveServer2::ExecuteSelect(Session* session, const SelectStmt& stmt,
                                               const std::string& cache_key,
                                               bool bypass_cache,
                                               bool use_plan_cache) {
  Config config = EffectiveConfig(session);
  metrics_.counter(obs::metric::kServerQueries)->Inc();

  // Result cache probe (Section 4.3). The binder reports determinism and
  // the referenced tables; both gate caching.
  bool cache_eligible = config.result_cache_enabled && !bypass_cache;
  auto current_hwm = [this](const std::string& table) {
    return txns_.TableWriteIdHighWatermark(table);
  };
  bool filling = false;
  if (cache_eligible) {
    QueryResultCache::Entry entry;
    auto state = result_cache_.Lookup(cache_key, current_hwm, &entry);
    if (state != QueryResultCache::LookupState::kMissFill) {
      QueryResult result;
      result.schema = entry.schema;
      result.rows = entry.rows;
      result.rows_affected = static_cast<int64_t>(result.rows.size());
      result.profile().SetCounter(obs::qc::kFromResultCache, 1);
      result.profile().SetCounter(obs::qc::kRowsReturned,
                                  static_cast<int64_t>(result.rows.size()));
      return result;
    }
    filling = true;
  }

  RuntimeStats stats;
  Result<QueryResult> result = Status::OK();
  int attempts = config.reexecution_strategy == "off" ? 1 : 2;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    Config attempt_config = config;
    result = TryExecuteSelect(session, stmt, attempt, &stats, &attempt_config,
                              use_plan_cache);
    if (result.ok()) {
      if (attempt) result->profile().SetCounter(obs::qc::kReexecutions, attempt);
      break;
    }
    // Only execution errors trigger the re-execution machinery.
    if (!result.status().IsExecError()) break;
  }
  if (!result.ok()) {
    metrics_.counter(obs::metric::kServerQueryErrors)->Inc();
    if (filling) result_cache_.AbandonFill(cache_key);
    return result;
  }
  // Fold this query's fault-tolerance footprint into the engine totals once
  // (morsel-level and vertex-level attempts both landed in `stats`).
  namespace qc = obs::qc;
  const obs::QueryProfile& profile = result->profile();
  metrics_.counter(qc::kTaskAttempts)->Add(profile.counter(qc::kTaskAttempts));
  metrics_.counter(qc::kTaskRetries)->Add(profile.counter(qc::kTaskRetries));
  metrics_.counter(qc::kSpeculativeTasks)
      ->Add(profile.counter(qc::kSpeculativeTasks));
  metrics_.counter(qc::kSpeculativeWins)
      ->Add(profile.counter(qc::kSpeculativeWins));
  if (profile.counter(qc::kReexecutions))
    metrics_.counter(qc::kReexecutions)->Add(profile.counter(qc::kReexecutions));
  if (profile.counter(qc::kMvRewrites))
    metrics_.counter(qc::kMvRewrites)->Add(profile.counter(qc::kMvRewrites));
  metrics_.histogram(obs::metric::kServerQueryWallUs)->Record(profile.counter(qc::kWallUs));

  if (filling) {
    // Non-deterministic queries must not populate the cache.
    bool nondeterministic = false;
    Binder binder(&catalog_, &config, session->database);
    binder.set_table_resolver(TempResolver(session));
    auto bound = binder.BindSelect(stmt);
    std::vector<std::string> referenced;
    if (bound.ok()) {
      nondeterministic = binder.uses_nondeterministic();
      referenced = binder.referenced_tables();
    }
    if (!nondeterministic && bound.ok()) {
      QueryResultCache::Entry entry;
      entry.schema = result->schema;
      entry.rows = result->rows;
      for (const std::string& table : referenced)
        entry.snapshot[table] = current_hwm(table);
      result_cache_.Publish(cache_key, std::move(entry));
    } else {
      result_cache_.AbandonFill(cache_key);
    }
  }
  return result;
}

Result<QueryResult> HiveServer2::ExecuteIncrementalMvQuery(Session* session,
                                                           const SelectStmt& stmt,
                                                           const TableDesc& view) {
  Config config = EffectiveConfig(session);
  config.materialized_view_rewriting_enabled = false;  // never self-rewrite
  config.result_cache_enabled = false;
  HIVE_ASSIGN_OR_RETURN(RelNodePtr plan, PlanSelect(session, stmt, config, nullptr,
                                                    nullptr, nullptr, nullptr));
  TxnSnapshot snapshot = txns_.GetSnapshot();
  DirectChunkProvider direct(fs_);
  ExecContext ctx = MakeContext(config, snapshot, nullptr, nullptr);
  if (!ctx.chunks) ctx.chunks = &direct;
  ctx.external_scan_factory = [this, &ctx](const RelNode& scan) -> Result<OperatorPtr> {
    StorageHandler* handler = handlers_.Get(scan.table.storage_handler);
    if (!handler)
      return Status::NotSupported("no handler: " + scan.table.storage_handler);
    return handler->CreateScan(&ctx, scan);
  };
  // Delta snapshot: only write ids ABOVE the view's recorded high watermark
  // are visible, so the definition evaluates over the new data only.
  ctx.snapshot_for = [this, snapshot, &view](const std::string& table) {
    ValidWriteIdList list = txns_.GetValidWriteIds(table, snapshot);
    auto recorded = view.mv_source_snapshot.find(table);
    if (recorded != view.mv_source_snapshot.end()) {
      for (int64_t wid = 1; wid <= recorded->second; ++wid)
        list.exceptions.insert(wid);
    }
    return list;
  };
  HIVE_ASSIGN_OR_RETURN(OperatorPtr root, CompilePlan(&ctx, plan));
  HIVE_ASSIGN_OR_RETURN(auto rows, CollectRows(root.get()));
  QueryResult result;
  result.schema = root->schema();
  result.rows = std::move(rows);
  return result;
}

namespace {

/// Evaluates one EXECUTE argument. Only literals (and a negated numeric
/// literal, which the parser leaves as unary minus) are allowed: argument
/// expressions never see a row, so anything else is a user error.
Result<Value> EvalExecuteArg(const ExprPtr& e) {
  if (!e) return Status::InvalidArgument("EXECUTE argument is empty");
  if (e->kind == ExprKind::kLiteral) return e->literal;
  if (e->kind == ExprKind::kUnary && e->un_op == UnaryOp::kNegate &&
      !e->children.empty() && e->children[0] &&
      e->children[0]->kind == ExprKind::kLiteral) {
    const Value& v = e->children[0]->literal;
    if (v.kind() == TypeKind::kBigint) return Value::Bigint(-v.i64());
    if (v.kind() == TypeKind::kDouble) return Value::Double(-v.f64());
  }
  return Status::InvalidArgument("EXECUTE arguments must be literals, got " +
                                 e->ToString());
}

}  // namespace

Result<QueryResult> HiveServer2::ExecutePrepare(Session* session,
                                                const PrepareStatement& stmt) {
  PreparedStatement prepared;
  prepared.name = stmt.name;
  prepared.sql = stmt.ToString();
  prepared.query = stmt.query;
  prepared.param_count = stmt.param_count;
  HIVE_RETURN_IF_ERROR(session->AddPrepared(std::move(prepared)));
  return QueryResult{};
}

Result<std::shared_ptr<SelectStmt>> HiveServer2::ResolvePrepared(
    Session* session, const ExecuteStatement& stmt) {
  HIVE_ASSIGN_OR_RETURN(PreparedStatement prepared, session->GetPrepared(stmt.name));
  if (static_cast<int>(stmt.args.size()) != prepared.param_count)
    return Status::InvalidArgument(
        "prepared statement '" + stmt.name + "' expects " +
        std::to_string(prepared.param_count) + " parameter(s), got " +
        std::to_string(stmt.args.size()));
  std::vector<Value> values;
  values.reserve(stmt.args.size());
  for (const ExprPtr& arg : stmt.args) {
    HIVE_ASSIGN_OR_RETURN(Value v, EvalExecuteArg(arg));
    values.push_back(std::move(v));
  }
  // After substitution the tree is literally the equivalent ad-hoc query:
  // same canonical text, same result-cache key, byte-identical answer.
  return SubstituteParams(*prepared.query, values);
}

Result<QueryResult> HiveServer2::ExecutePrepared(Session* session,
                                                 const ExecuteStatement& stmt,
                                                 bool bypass_cache) {
  HIVE_ASSIGN_OR_RETURN(std::shared_ptr<SelectStmt> substituted,
                        ResolvePrepared(session, stmt));
  std::string key = ResultCacheKey(session, *substituted);
  return ExecuteSelect(session, *substituted, key, bypass_cache,
                       /*use_plan_cache=*/true);
}

Result<QueryResult> HiveServer2::ExecuteExplain(Session* session,
                                                const ExplainStatement& stmt) {
  const SelectStmt* select = nullptr;
  std::shared_ptr<SelectStmt> substituted;  // keeps an EXECUTE's tree alive
  bool prepared = false;
  if (stmt.inner->kind() == StatementKind::kSelect) {
    select = &static_cast<const SelectStatement*>(stmt.inner.get())->select;
  } else if (stmt.inner->kind() == StatementKind::kExecute) {
    const auto* exec = static_cast<const ExecuteStatement*>(stmt.inner.get());
    HIVE_ASSIGN_OR_RETURN(substituted, ResolvePrepared(session, *exec));
    select = substituted.get();
    prepared = true;
  } else {
    return Status::NotSupported("EXPLAIN supports SELECT and EXECUTE statements");
  }

  Config config = EffectiveConfig(session);
  std::string text;
  if (stmt.analyze) {
    // EXPLAIN ANALYZE really executes the query (bypassing the result cache:
    // a cached answer has no operator tree to annotate) and renders the
    // profile — the plan tree with per-operator actuals plus the counters.
    HIVE_ASSIGN_OR_RETURN(QueryResult executed,
                          ExecuteSelect(session, *select, /*cache_key=*/"",
                                        /*bypass_cache=*/true,
                                        /*use_plan_cache=*/prepared));
    text = executed.profile().ToString();
  } else if (prepared && config.plan_cache_enabled) {
    // EXPLAIN EXECUTE shows whether the plan came from the plan cache, and
    // warms the cache on a miss (so EXPLAIN then EXECUTE plans once).
    std::string plan_key = ResultCacheKey(session, *select) + "#" +
                           PlanCache::ConfigFingerprint(config);
    uint64_t catalog_version = catalog_.version();
    PlanCache::Entry entry;
    if (plan_cache_.Lookup(plan_key, catalog_version, &entry)) {
      text = "-- plan cache: hit\n" + entry.plan->ToString();
    } else {
      int mv_rewrites = 0;
      HIVE_ASSIGN_OR_RETURN(RelNodePtr plan,
                            PlanSelect(session, *select, config, nullptr,
                                       nullptr, nullptr, &mv_rewrites));
      if (mv_rewrites == 0)
        plan_cache_.Insert(plan_key, {plan, mv_rewrites, catalog_version});
      text = "-- plan cache: miss\n" + plan->ToString();
    }
  } else {
    HIVE_ASSIGN_OR_RETURN(RelNodePtr plan,
                          PlanSelect(session, *select, config, nullptr,
                                     nullptr, nullptr, nullptr));
    text = plan->ToString();
  }
  QueryResult result;
  result.schema.AddField("plan", DataType::String());
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    result.rows.push_back({Value::String(text.substr(start, end - start))});
    start = end + 1;
  }
  return result;
}

Result<QueryResult> HiveServer2::ExecuteShowMetrics() {
  QueryResult result;
  result.schema.AddField("metric", DataType::String());
  result.schema.AddField("value", DataType::Bigint());
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  for (const auto& [name, value] : snap.values)
    result.rows.push_back({Value::String(name), Value::Bigint(value)});
  result.rows_affected = static_cast<int64_t>(result.rows.size());
  return result;
}

Result<QueryResult> HiveServer2::ExecuteAnalyze(Session* session,
                                                const AnalyzeTableStatement& stmt) {
  DmlDriver dml(this, session);
  return dml.Analyze(stmt);
}

Result<QueryResult> HiveServer2::ExecuteDdl(Session* session, const StatementPtr& stmt) {
  DmlDriver dml(this, session);
  switch (stmt->kind()) {
    case StatementKind::kCreateDatabase: {
      const auto* create = static_cast<const CreateDatabaseStatement*>(stmt.get());
      Status status = catalog_.CreateDatabase(create->name);
      if (!status.ok() && !(create->if_not_exists &&
                            status.code() == StatusCode::kAlreadyExists))
        return status;
      return QueryResult{};
    }
    case StatementKind::kCreateTable:
      return dml.CreateTable(*static_cast<const CreateTableStatement*>(stmt.get()));
    case StatementKind::kDropTable: {
      const auto* drop = static_cast<const DropTableStatement*>(stmt.get());
      if (drop->db.empty()) {
        // Session temp tables shadow permanent ones for unqualified names,
        // mirroring how SELECT resolves them. No transaction/lock dance:
        // nobody outside this session can see the table.
        std::string physical;
        if (session->RemoveTempTable(drop->table, &physical)) {
          Status status = catalog_.DropTable(kTempDatabase, physical);
          result_cache_.InvalidateTable(std::string(kTempDatabase) + "." +
                                        physical);
          if (!status.ok()) return status;
          return QueryResult{};
        }
      }
      std::string db = drop->db.empty() ? session->database : drop->db;
      auto desc = catalog_.GetTable(db, drop->table);
      if (!desc.ok()) {
        if (drop->if_exists && desc.status().IsNotFound()) return QueryResult{};
        return desc.status();
      }
      // DROP disrupts readers and writers: exclusive lock (Section 3.2).
      int64_t txn = txns_.OpenTxn();
      Status lock = txns_.AcquireLock(txn, desc->FullName(), LockMode::kExclusive);
      if (!lock.ok()) {
        // lint: allow-discard(best-effort abort while propagating the lock error)
        (void)txns_.AbortTxn(txn);
        return lock;
      }
      if (!desc->storage_handler.empty()) {
        StorageHandler* handler = handlers_.Get(desc->storage_handler);
        if (handler) {
          Status handler_drop = handler->OnDropTable(*desc);
          if (!handler_drop.ok()) {
            // Abort — not commit — so the exclusive lock is released and the
            // table (still in the catalog) can be dropped again after the
            // handler recovers. Returning early without the abort would leak
            // the lock and wedge every later writer on this table.
            (void)txns_.AbortTxn(txn);  // lint: allow-discard(propagating handler error)
            return handler_drop;
          }
        }
      }
      Status status = catalog_.DropTable(db, drop->table);
      result_cache_.InvalidateTable(desc->FullName());
      if (!status.ok()) {
        // lint: allow-discard(best-effort abort while propagating the drop error)
        (void)txns_.AbortTxn(txn);
        return status;
      }
      HIVE_RETURN_IF_ERROR(txns_.CommitTxn(txn));
      return QueryResult{};
    }
    case StatementKind::kShowTables: {
      QueryResult result;
      result.schema.AddField("table_name", DataType::String());
      for (const std::string& name : catalog_.ListTables(session->database))
        result.rows.push_back({Value::String(name)});
      return result;
    }
    default:
      return Status::NotSupported("unsupported statement");
  }
}

}  // namespace hive
