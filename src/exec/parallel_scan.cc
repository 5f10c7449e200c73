#include "exec/parallel_scan.h"

#include <algorithm>
#include <future>

#include "exec/vector_eval.h"
#include "obs/metric_names.h"

namespace hive {

MorselDriver::MorselDriver(ExecContext* ctx, ParallelPipelineSpec spec)
    : ctx_(ctx), spec_(std::move(spec)) {
  scan_ = std::make_unique<ScanOperator>(ctx_, *spec_.scan);
}

Status MorselDriver::Open() {
  scan_digest_ = spec_.scan->Digest();
  for (const RelNodePtr& stage : spec_.stages)
    stage_digests_.push_back(stage->kind == RelKind::kFilter ? stage->Digest()
                                                             : std::string());
  return scan_->Open();
}

int MorselDriver::DecideWorkers() const {
  int workers = std::max(1, ctx_->max_parallel_workers);
  size_t morsels = scan_->num_morsels();
  if (morsels < static_cast<size_t>(workers))
    workers = std::max<int>(1, static_cast<int>(morsels));
  return workers;
}

Status MorselDriver::WorkerLoop(
    int worker, const std::function<Status(int, size_t, RowBatch&&)>& sink) {
  int64_t scan_rows = 0;
  int64_t busy_ns = 0;
  std::vector<int64_t> stage_rows(spec_.stages.size(), 0);
  Status status = Status::OK();
  for (;;) {
    if (failed_.load(std::memory_order_acquire)) break;
    // Morsel boundaries are the interruption points of the parallel
    // pipeline: deadline evaluation + workload-manager kill flag.
    Status interrupted = ctx_->CheckInterrupted();
    if (!interrupted.ok()) {
      status = interrupted;
      break;
    }
    size_t m = next_morsel_.fetch_add(1, std::memory_order_relaxed);
    if (m >= scan_->num_morsels()) break;
    if (morsels_claimed_) morsels_claimed_->Inc();
    // Queue wait: how long this morsel sat in the queue before any worker
    // picked it up — the dispatch latency of the morsel scheduler.
    if (morsel_queue_wait_us_)
      morsel_queue_wait_us_->Record(SimClock::WallMicros() - run_start_wall_us_);
    // I/O elevator read-ahead: decode the morsel one wave ahead while this
    // one is processed (duplicates collapse via cache single-flight).
    scan_->PrefetchMorsel(m + static_cast<size_t>(workers_));
    bool skipped = false;
    int64_t injected_us = 0;
    Result<RowBatch> read = Status::OK();
    {
      // Mirror virtual-clock charges made during this attempt (injected
      // fault latency, modeled I/O) so the task's cost is attributable.
      SimClock::TaskScope task_scope(&injected_us);
      read = scan_->ReadMorselWithRetry(m, &skipped);
    }
    if (!read.ok()) {
      status = read.status();
      break;
    }
    if (skipped) {
      if (morsels_skipped_) morsels_skipped_->Inc();
      continue;
    }
    RowBatch batch = std::move(*read);
    int64_t cpu_us = static_cast<int64_t>(batch.num_rows()) *
                     ctx_->config->scan_cpu_ns_per_row / 1000;
    int64_t kept_cost_us = 0;
    Result<RowBatch> chosen =
        MaybeSpeculate(m, std::move(batch), cpu_us, injected_us, &kept_cost_us);
    if (!chosen.ok()) {
      status = chosen.status();
      break;
    }
    if (morsel_cost_us_) morsel_cost_us_->Record(kept_cost_us);
    batch = std::move(*chosen);
    busy_ns += static_cast<int64_t>(batch.num_rows()) *
               ctx_->config->scan_cpu_ns_per_row;
    scan_rows += static_cast<int64_t>(batch.SelectedSize());
    // Apply the stacked stages (mirrors FilterOperator / ProjectOperator).
    bool eliminated = false;
    for (size_t s = 0; s < spec_.stages.size() && !eliminated; ++s) {
      const RelNodePtr& stage = spec_.stages[s];
      if (stage->kind == RelKind::kFilter) {
        Result<std::vector<int32_t>> selection =
            FilterSelection(*stage->predicate, batch);
        if (!selection.ok()) {
          status = selection.status();
          break;
        }
        stage_rows[s] += static_cast<int64_t>(selection->size());
        if (selection->empty()) {
          eliminated = true;
          break;
        }
        batch.SetSelection(std::move(*selection));
      } else {
        RowBatch out(stage->schema);
        for (size_t e = 0; e < stage->exprs.size(); ++e) {
          Result<ColumnVectorPtr> col = EvalVector(*stage->exprs[e], batch);
          if (!col.ok()) {
            status = col.status();
            break;
          }
          out.SetColumn(e, std::move(*col));
        }
        if (!status.ok()) break;
        out.set_num_rows(batch.num_rows());
        if (batch.has_selection()) out.SetSelection(batch.selection());
        batch = std::move(out);
      }
    }
    if (!status.ok()) break;
    if (eliminated) continue;
    Status sunk = sink(worker, m, std::move(batch));
    if (!sunk.ok()) {
      status = sunk;
      break;
    }
  }
  if (!status.ok()) failed_.store(true, std::memory_order_release);
  worker_busy_ns_[worker] = busy_ns;
  // Per-worker partial row counts; RuntimeStats::Record accumulates, so the
  // per-digest totals equal the serial counts.
  if (ctx_->runtime_stats) {
    ctx_->runtime_stats->Record(scan_digest_, scan_rows);
    for (size_t s = 0; s < stage_digests_.size(); ++s)
      if (!stage_digests_[s].empty())
        ctx_->runtime_stats->Record(stage_digests_[s], stage_rows[s]);
  }
  return status;
}

int64_t MorselDriver::RecordCostAndThreshold(int64_t cost_us) {
  MutexLock lock(&cost_mu_);
  int64_t threshold = 0;
  // The baseline is the median of *previously* completed tasks, so a task
  // never dilutes the very baseline it is judged against; at least 3
  // completions are required before anyone can be called a straggler.
  if (completed_costs_.size() >= 3) {
    std::vector<int64_t> copy = completed_costs_;
    size_t mid = copy.size() / 2;
    std::nth_element(copy.begin(), copy.begin() + static_cast<long>(mid), copy.end());
    threshold = static_cast<int64_t>(
        ctx_->config->speculation_slowdown_factor * static_cast<double>(copy[mid]));
  }
  completed_costs_.push_back(cost_us);
  return threshold;
}

Result<RowBatch> MorselDriver::MaybeSpeculate(size_t morsel, RowBatch&& original,
                                              int64_t cpu_us, int64_t injected_us,
                                              int64_t* kept_cost_us) {
  int64_t cost_us = cpu_us + injected_us;
  *kept_cost_us = cost_us;
  int64_t threshold = RecordCostAndThreshold(cost_us);
  if (!ctx_->config->speculation_enabled || threshold <= 0 || cost_us <= threshold)
    return std::move(original);
  // Straggler: launch a duplicate attempt of the same morsel. Both attempts
  // produce byte-identical batches on success (corruption is always caught
  // by checksums before a batch is built), so keeping either is safe — the
  // choice only decides whose latency the query pays.
  if (ctx_->runtime_stats)
    ctx_->runtime_stats->speculative_tasks.fetch_add(1, std::memory_order_relaxed);
  bool spec_skipped = false;
  int64_t spec_injected_us = 0;
  Result<RowBatch> spec = Status::OK();
  {
    SimClock::TaskScope task_scope(&spec_injected_us);
    spec = scan_->ReadMorselWithRetry(morsel, &spec_skipped);
  }
  int64_t spec_cost_us = cpu_us + spec_injected_us;
  if (spec.ok() && !spec_skipped && spec_cost_us < cost_us) {
    // The duplicate finished first. Refund the original attempt's injected
    // latency: the cluster's critical path followed the winner. Ties keep
    // the original (strict <), making the winner deterministic.
    if (ctx_->clock) ctx_->clock->Charge(-injected_us);
    if (ctx_->runtime_stats)
      ctx_->runtime_stats->speculative_wins.fetch_add(1, std::memory_order_relaxed);
    *kept_cost_us = spec_cost_us;
    return spec;
  }
  // Original wins (or the duplicate failed): abandon the duplicate and
  // refund whatever latency it attracted.
  if (ctx_->clock) ctx_->clock->Charge(-spec_injected_us);
  return std::move(original);
}

Status MorselDriver::Run(
    int workers, const std::function<Status(int, size_t, RowBatch&&)>& sink) {
  workers_ = std::max(1, workers);
  failed_.store(false);
  next_morsel_.store(0);
  if (ctx_->metrics && !morsels_claimed_) {
    morsels_claimed_ = ctx_->metrics->counter(obs::metric::kMorselsClaimed);
    morsels_skipped_ = ctx_->metrics->counter(obs::metric::kMorselsSkipped);
    morsel_cost_us_ = ctx_->metrics->histogram(obs::metric::kMorselCostUs);
    morsel_queue_wait_us_ = ctx_->metrics->histogram(obs::metric::kMorselQueueWaitUs);
  }
  run_start_wall_us_ = SimClock::WallMicros();
  worker_busy_ns_.assign(static_cast<size_t>(workers_), 0);
  {
    MutexLock lock(&cost_mu_);
    completed_costs_.clear();
  }
  // Warm the first wave through the I/O elevator before workers start.
  for (int i = 0; i < workers_; ++i)
    scan_->PrefetchMorsel(static_cast<size_t>(i));
  std::vector<std::future<Status>> futures;
  if (ctx_->submit_worker) {
    for (int w = 1; w < workers_; ++w)
      futures.push_back(
          ctx_->submit_worker([this, w, &sink] { return WorkerLoop(w, sink); }));
  }
  Status status = WorkerLoop(0, sink);
  for (auto& f : futures) {
    Status s = f.get();
    if (status.ok() && !s.ok()) status = s;
  }
  // Scan CPU is modeled like container start-up: the virtual clock pays the
  // critical path — the slowest worker — so the morsel queue's speedup shows
  // up in measured time even when the host serializes the threads.
  int64_t critical_ns = 0;
  for (int64_t ns : worker_busy_ns_) critical_ns = std::max(critical_ns, ns);
  if (ctx_->clock) ctx_->clock->Charge(critical_ns / 1000);
  return status;
}

// --- ParallelScanOperator ---

ParallelScanOperator::ParallelScanOperator(ExecContext* ctx,
                                           ParallelPipelineSpec spec)
    : Operator(ctx),
      driver_(ctx, ParallelPipelineSpec(spec)),
      schema_(spec.stages.empty() ? spec.scan->schema
                                  : spec.stages.back()->schema) {}

Result<RowBatch> ParallelScanOperator::Next(bool* done) {
  if (!ran_) {
    ran_ = true;
    results_.resize(driver_.num_morsels());
    present_.assign(driver_.num_morsels(), 0);
    int workers = driver_.DecideWorkers();
    HIVE_RETURN_IF_ERROR(driver_.Run(
        workers, [this](int, size_t morsel, RowBatch&& batch) -> Status {
          // Disjoint morsel slots: ordered gather without locks.
          results_[morsel] = std::move(batch);
          present_[morsel] = 1;
          return Status::OK();
        }));
  }
  while (emit_ < results_.size() && !present_[emit_]) ++emit_;
  if (emit_ >= results_.size()) {
    *done = true;
    return RowBatch();
  }
  *done = false;
  RowBatch out = std::move(results_[emit_]);
  present_[emit_] = 0;
  ++emit_;
  return out;
}

// --- ParallelHashJoinOperator ---

ParallelHashJoinOperator::ParallelHashJoinOperator(
    ExecContext* ctx, ParallelPipelineSpec probe_spec, OperatorPtr build,
    TableRef::JoinType join_type, ExprPtr condition, Schema schema)
    : Operator(ctx),
      driver_(ctx, ParallelPipelineSpec(probe_spec)),
      build_(std::move(build)),
      probe_schema_(probe_spec.stages.empty() ? probe_spec.scan->schema
                                              : probe_spec.stages.back()->schema),
      schema_(std::move(schema)),
      core_(ctx, join_type, std::move(condition), &schema_),
      is_full_join_(join_type == TableRef::JoinType::kFull) {}

Status ParallelHashJoinOperator::Open() {
  HIVE_RETURN_IF_ERROR(build_->Open());
  HIVE_RETURN_IF_ERROR(core_.BindCondition(probe_schema_));
  HIVE_RETURN_IF_ERROR(core_.Build(build_.get()));
  // Probe pipeline opens (reducers, morsel enumeration) only after the
  // build finalized — build errors never touch the probe subtree.
  return driver_.Open();
}

Status ParallelHashJoinOperator::RunPipeline() {
  ran_ = true;
  if (core_.grace_active()) {
    // Grace mode trades probe parallelism for bounded memory: a single
    // worker claims morsels in order, so probe rows route to their hash
    // partitions in global input order — the sequence the merged output
    // reassembles by. The pipeline is disk-bound here anyway.
    HIVE_RETURN_IF_ERROR(
        driver_.Run(1, [this](int, size_t, RowBatch&& batch) -> Status {
          return core_.GraceAddProbeBatch(batch);
        }));
    return core_.GraceFinishProbe();
  }
  results_.resize(driver_.num_morsels());
  present_.assign(driver_.num_morsels(), 0);
  int workers = driver_.DecideWorkers();
  probe_busy_ns_.assign(static_cast<size_t>(workers), 0);
  HIVE_RETURN_IF_ERROR(driver_.Run(
      workers, [this](int worker, size_t morsel, RowBatch&& batch) -> Status {
        bool emitted = false;
        Result<RowBatch> out = core_.ProbeBatch(batch, &emitted);
        if (!out.ok()) return out.status();
        probe_busy_ns_[static_cast<size_t>(worker)] +=
            static_cast<int64_t>(batch.SelectedSize()) *
            core_.probe_ns_per_row();
        if (emitted) {
          // Disjoint morsel slots: ordered gather without locks.
          results_[morsel] = std::move(*out);
          present_[morsel] = 1;
        }
        return Status::OK();
      }));
  // Probe CPU pays the critical path — the slowest worker — like scan CPU.
  int64_t critical_ns = 0;
  for (int64_t ns : probe_busy_ns_) critical_ns = std::max(critical_ns, ns);
  if (ctx_->clock) ctx_->clock->Charge(critical_ns / 1000);
  return Status::OK();
}

Result<RowBatch> ParallelHashJoinOperator::Next(bool* done) {
  if (!ran_) HIVE_RETURN_IF_ERROR(RunPipeline());
  if (core_.grace_active()) {
    // Sequence-merged grace output (FULL OUTER tail included).
    return core_.GraceNextOutput(done);
  }
  while (emit_ < results_.size() && !present_[emit_]) ++emit_;
  if (emit_ < results_.size()) {
    *done = false;
    RowBatch out = std::move(results_[emit_]);
    present_[emit_] = 0;
    ++emit_;
    return out;
  }
  if (is_full_join_ && !emitted_unmatched_) {
    emitted_unmatched_ = true;
    HIVE_ASSIGN_OR_RETURN(RowBatch out, core_.EmitUnmatchedRight());
    if (out.num_rows() > 0) {
      *done = false;
      return out;
    }
  }
  *done = true;
  return RowBatch();
}

Status ParallelHashJoinOperator::Close() {
  core_.AnnotateProfile();
  HIVE_RETURN_IF_ERROR(driver_.Close());
  return build_->Close();
}

// --- ParallelAggregateOperator ---

ParallelAggregateOperator::ParallelAggregateOperator(
    ExecContext* ctx, ParallelPipelineSpec spec, std::vector<ExprPtr> keys,
    std::vector<AggCall> aggs, Schema schema)
    : Operator(ctx),
      driver_(ctx, std::move(spec)),
      keys_(std::move(keys)),
      aggs_(std::move(aggs)),
      schema_(std::move(schema)) {}

Status ParallelAggregateOperator::RunPipeline() {
  ran_ = true;
  int workers = driver_.DecideWorkers();
  partials_.clear();
  worker_reservations_.clear();
  for (int w = 0; w < workers; ++w) {
    partials_.push_back(std::make_unique<GroupedAggState>(&keys_, &aggs_));
    worker_reservations_.push_back(
        std::make_unique<MemoryReservation>(ctx_->query_memory));
  }
  // The spill set is created eagerly: workers flush concurrently and must
  // not race a lazy construction. Scalar aggregates never spill (one group;
  // flushing cannot shrink it).
  const bool can_spill = ctx_->CanSpill() && !keys_.empty();
  if (can_spill && !spill_)
    spill_ = std::make_unique<AggSpillSet>(
        ctx_, ctx_->spill_dir + "/a" + std::to_string(NextSpillStreamId()),
        &keys_, &aggs_, std::max(2, ctx_->config->spill_partitions), workers);
  HIVE_RETURN_IF_ERROR(driver_.Run(
      workers,
      [this, can_spill](int worker, size_t morsel, RowBatch&& batch) -> Status {
        // Sequence rows by (morsel, row) so group order is independent of
        // the morsel-to-worker assignment. Row groups hold < 2^24 rows.
        GroupedAggState* state = partials_[static_cast<size_t>(worker)].get();
        HIVE_RETURN_IF_ERROR(
            state->Consume(batch, static_cast<uint64_t>(morsel) << 24));
        MemoryReservation* res =
            worker_reservations_[static_cast<size_t>(worker)].get();
        if (!res->GrowTo(static_cast<int64_t>(state->approx_bytes()))) {
          CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
          if (!can_spill)
            return BudgetExceededStatus(
                "parallel hash aggregate",
                static_cast<int64_t>(state->approx_bytes()), ctx_);
          HIVE_RETURN_IF_ERROR(spill_->Flush(worker, state));
          res->Release();
        }
        return Status::OK();
      }));
  // Merge the thread-local partial states (partial-aggregate exchange).
  for (size_t w = 1; w < partials_.size(); ++w)
    partials_[0]->Merge(std::move(*partials_[w]));
  partials_.resize(1);
  if (spill_ && spill_->spilled()) {
    // The merged unspilled groups are the remainder; the sealed result
    // rebuilds partition-wise from the spill streams.
    HIVE_RETURN_IF_ERROR(spill_->PrepareEmit(partials_[0].get(), schema_));
    partials_[0]->Reset();
    for (auto& r : worker_reservations_) r->Release();
    return ctx_->OnStageBoundary(spill_->bytes_spilled());
  }
  partials_[0]->Seal();
  return ctx_->OnStageBoundary(partials_[0]->approx_bytes());
}

Result<RowBatch> ParallelAggregateOperator::Next(bool* done) {
  if (!ran_) HIVE_RETURN_IF_ERROR(RunPipeline());
  if (spill_ && spill_->spilled()) {
    return spill_->NextOutput(done);
  }
  GroupedAggState& state = *partials_[0];
  size_t batch_size = static_cast<size_t>(ctx_->config->vector_batch_size);
  if (emit_index_ >= state.num_groups()) {
    *done = true;
    return RowBatch();
  }
  *done = false;
  size_t end = std::min(state.num_groups(), emit_index_ + batch_size);
  HIVE_ASSIGN_OR_RETURN(RowBatch out, state.Emit(emit_index_, end, schema_));
  emit_index_ = end;
  return out;
}

Status ParallelAggregateOperator::Close() {
  if (profile_node_ && spill_ && spill_->spilled()) {
    std::string& d = profile_node_->detail;
    if (!d.empty()) d += ", ";
    d += "spill=agg flushes=" + std::to_string(spill_->flushes()) +
         " spill_bytes=" + std::to_string(spill_->bytes_spilled());
  }
  return driver_.Close();
}

}  // namespace hive
