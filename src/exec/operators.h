#ifndef HIVE_EXEC_OPERATORS_H_
#define HIVE_EXEC_OPERATORS_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_hash_table.h"
#include "exec/operator.h"
#include "exec/spill.h"
#include "optimizer/rel.h"

namespace hive {

/// Table scan over native tables: resolves the snapshot, runs any dynamic
/// semijoin reducers (building min/max + Bloom sargs, or pruning partitions
/// dynamically), then reads batches through the chunk provider (the LLAP
/// cache when enabled). Partition-column values materialize as constant
/// vectors. Residual predicates produce selection vectors.
///
/// Open() enumerates the scan into morsels — one (location, file, row group)
/// unit each — which are the work-stealing granularity of the parallel
/// execution layer: serial Next() walks them in order, while a parallel
/// pipeline has workers claim indexes from a shared atomic counter and call
/// ReadMorsel concurrently (const state, thread-safe).
class ScanOperator : public Operator {
 public:
  ScanOperator(ExecContext* ctx, const RelNode& node);

  Status Open() override;
  Result<RowBatch> Next(bool* done) override;
  const Schema& schema() const override { return out_schema_; }

  uint64_t row_groups_skipped() const { return row_groups_skipped_.load(); }
  size_t partitions_scanned() const { return locations_.size(); }

  /// Number of morsels enumerated by Open().
  size_t num_morsels() const { return morsels_.size(); }
  /// Reads one morsel and applies residual filters / runtime Blooms. Sets
  /// *skipped (returning an empty batch) when the sarg eliminates the row
  /// group. Thread-safe after Open.
  Result<RowBatch> ReadMorsel(size_t index, bool* skipped);
  /// ReadMorsel wrapped in the task-attempt policy: a transient failure
  /// (flaky read, chunk checksum mismatch) re-runs the read up to
  /// task.max.attempts times with backoff charged to the virtual clock;
  /// permanent errors fail fast. Thread-safe after Open.
  Result<RowBatch> ReadMorselWithRetry(size_t index, bool* skipped);
  /// Queues the morsel's column chunks on the I/O elevator so they decode
  /// into the cache ahead of a worker claiming the morsel. No-op when the
  /// context carries no prefetch hook or the morsel is out of range.
  void PrefetchMorsel(size_t index) const;

 private:
  struct Location {
    std::string path;
    std::vector<Value> partition_values;
  };
  /// Per-location open state shared (read-only) by concurrent ReadMorsel
  /// calls: the merge-on-read planner for ACID locations plus the opened
  /// file readers (footer metadata) that morsels index into.
  struct LocationState {
    std::unique_ptr<AcidReader> acid;  // null for non-ACID locations
    std::vector<std::shared_ptr<CofReader>> files;
  };
  struct Morsel {
    uint32_t location;
    uint32_t file;
    uint32_t row_group;
  };

  Status RunSemiJoinReducers();
  Status EnumerateMorsels();
  Result<RowBatch> PostProcess(RowBatch raw, const Location& loc) const;

  TableDesc table_;
  std::vector<size_t> projected_;       // into FullSchema
  std::vector<ExprPtr> filters_;        // over output schema
  std::vector<SemiJoinReducer> reducers_;
  std::vector<PartitionInfo> partitions_;
  bool partitions_pruned_ = false;
  Schema out_schema_;

  // Derived at Open (immutable afterwards):
  SearchArgument sarg_;
  std::vector<Location> locations_;
  std::vector<size_t> data_columns_;    // AcidReader projection (user ordinals)
  std::vector<int> output_from_data_;   // output i <- data column position or -1
  std::vector<int> output_from_part_;   // output i <- partition col index or -1
  std::vector<int> output_from_record_id_;  // output i <- record-id column or -1
  bool reads_record_id_ = false;
  std::vector<LocationState> location_states_;
  std::vector<Morsel> morsels_;
  /// Row-level Bloom filters from semijoin reducers: (output column, filter).
  std::vector<std::pair<int, std::shared_ptr<BloomFilter>>> runtime_blooms_;

  // Serial iteration cursor (unused by parallel pipelines).
  size_t next_morsel_ = 0;
  std::atomic<uint64_t> row_groups_skipped_{0};
};

/// Literal rows.
class ValuesOperator : public Operator {
 public:
  ValuesOperator(ExecContext* ctx, const RelNode& node);
  Status Open() override { return Status::OK(); }
  Result<RowBatch> Next(bool* done) override;
  const Schema& schema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<std::vector<Value>> rows_;
  bool emitted_ = false;
};

class FilterOperator : public Operator {
 public:
  FilterOperator(ExecContext* ctx, OperatorPtr child, ExprPtr predicate);
  Status Open() override { return child_->Open(); }
  Result<RowBatch> Next(bool* done) override;
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

class ProjectOperator : public Operator {
 public:
  ProjectOperator(ExecContext* ctx, OperatorPtr child, std::vector<ExprPtr> exprs,
                  Schema schema);
  Status Open() override { return child_->Open(); }
  Result<RowBatch> Next(bool* done) override;
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

/// Shared core of the hash-join operators (the serial HashJoinOperator and
/// the morsel-parallel ParallelHashJoinOperator): equi-key extraction, the
/// materialized build side, the flat open-addressing join table — built
/// hash-partitioned across the LLAP executor pool — the perfect-hash array
/// for dense single-integer build domains, and batch-at-a-time probing.
///
/// Key columns evaluate vectorized (EvalVector) and hash column-wise
/// (HashKeyColumns); candidate verification compares evaluated key columns
/// directly, so the per-row boxed std::vector<Value> of the old path never
/// materializes. After Build(), ProbeBatch is safe to call concurrently:
/// the only shared writes are relaxed match-flag stores and metric shards.
class HashJoinCore {
 public:
  HashJoinCore(ExecContext* ctx, TableRef::JoinType join_type, ExprPtr condition,
               const Schema* out_schema);
  ~HashJoinCore();

  /// Plan-time perfect-hash eligibility: the condition reduces to exactly
  /// one equi-key conjunct whose two sides are the same non-decimal
  /// integer-backed kind. The runtime still requires a dense duplicate-free
  /// build domain before engaging (checked at build finalize).
  static bool PerfectHashEligible(const ExprPtr& condition, int left_width);

  /// Splits the condition into equi-key pairs and a residual given the
  /// probe (left) side's schema. Call once, before Build.
  Status BindCondition(const Schema& left_schema);

  /// Drains the (already open) build child and finalizes the hash table:
  /// vectorized key evaluation, column-wise hashing, then a partitioned
  /// parallel flat-table build (or the perfect-hash array when the hint is
  /// set and the key domain turns out dense and duplicate-free).
  Status Build(Operator* build_child);

  /// Joins one probe batch against the finalized table. Sets *emitted when
  /// the output batch is non-empty. Thread-safe after Build. `in_seqs`
  /// (grace pair joins only) positions each *physical* probe row in the
  /// global probe order; when set, `out_seqs` receives the probe sequence of
  /// every emitted output row so partition outputs can merge back into exact
  /// serial order.
  Result<RowBatch> ProbeBatch(const RowBatch& batch, bool* emitted,
                              const std::vector<uint64_t>* in_seqs = nullptr,
                              std::vector<uint64_t>* out_seqs = nullptr);

  /// FULL OUTER tail: null-extended build rows no probe row matched, in
  /// build order; `build_rows` (optional) receives their build-side indexes.
  /// Call after all ProbeBatch calls have completed.
  Result<RowBatch> EmitUnmatchedRight(std::vector<int32_t>* build_rows = nullptr);

  /// True once Build's memory reservation was denied and the join switched
  /// to grace mode: build rows live in hash-partitioned spill files instead
  /// of build_. The owner then routes probe batches through
  /// GraceAddProbeBatch *in input order*, calls GraceFinishProbe once the
  /// probe side is drained, and streams GraceNextOutput — whose output is
  /// byte-identical to the in-memory probe path.
  bool grace_active() const { return grace_ != nullptr; }
  Status GraceAddProbeBatch(const RowBatch& batch);
  /// Joins every (build, probe) partition pair — recursively repartitioning
  /// pairs that still exceed the budget — and arms the sequence-merge over
  /// the pair outputs. Call once, after the last GraceAddProbeBatch.
  Status GraceFinishProbe();
  /// Streams the merged join output (FULL OUTER unmatched-build tail last).
  Result<RowBatch> GraceNextOutput(bool* done);

  size_t build_rows() const { return build_.num_rows(); }
  bool perfect_hash_engaged() const { return perfect_.engaged(); }
  /// Modeled probe CPU per row. A perfect-hash probe is one bounds check
  /// and an array load — half the modeled cost of the generic hash + chain
  /// walk. Callers charge this per probed row (serial: every batch;
  /// parallel: max over workers).
  int64_t probe_ns_per_row() const {
    const int64_t ns = ctx_->config->join_cpu_ns_per_row;
    return perfect_.engaged() ? (ns + 1) / 2 : ns;
  }
  void set_perfect_hash_hint(bool v) { perfect_hint_ = v; }
  /// EXPLAIN ANALYZE surface: build/probe table statistics append to this
  /// node's detail (AnnotateProfile, called by the owning operator's Close).
  void set_profile_node(obs::OperatorProfileNode* node) { profile_node_ = node; }
  void AnnotateProfile();

 private:
  enum class KeyCmp : uint8_t { kI64, kF64, kStr, kBoxed };
  struct GraceState;

  /// Equality of one probe-row key against one build-row key, using the
  /// typed fast path the key kinds allow.
  bool KeysEqual(const std::vector<ColumnVectorPtr>& probe_cols, int32_t probe_row,
                 int32_t build_row) const;

  /// Switches an over-budget build into grace mode: spills the rows already
  /// accumulated in build_ to depth-0 hash partitions and resets build_.
  Status EnterGrace();
  /// Routes the selected rows of one build-side batch to the depth-0 build
  /// partition writers, assigning global build sequence numbers.
  Status GraceRouteBuildBatch(const RowBatch& batch);
  /// Rebuilds table_/build_key_cols_/matched_ over the rows currently in
  /// build_ (serial, no perfect hash): the per-pair table of a grace join.
  Status RebuildTableOverBuild();
  /// Joins one (build, probe) partition pair, recursing on pairs whose
  /// build side still exceeds the budget. Appends output/tail spill runs.
  Status JoinPartitionPair(int depth, SpillBatchWriter* build_run,
                           SpillBatchWriter* probe_run);

  ExecContext* ctx_;
  TableRef::JoinType join_type_;
  ExprPtr condition_;
  const Schema* out_schema_;
  size_t left_width_ = 0;

  // Extracted equi-key expressions (left-side expr, right-side expr with
  // right-local bindings) and their typed comparison plan.
  std::vector<ExprPtr> left_keys_, right_keys_;
  std::vector<KeyCmp> key_cmp_;
  ExprPtr residual_;  // over concat(left, right)

  RowBatch build_;  // densely materialized right side
  std::vector<ColumnVectorPtr> build_key_cols_;  // evaluated over build_
  FlatJoinTable table_;
  PerfectHashTable perfect_;
  bool perfect_hint_ = false;
  /// Per-build-row matched flags (FULL OUTER bookkeeping). Atomic bytes:
  /// concurrent probe workers may flag the same build row; stores of 1 are
  /// idempotent and relaxed.
  std::unique_ptr<std::atomic<uint8_t>[]> matched_;

  // Probe statistics for EXPLAIN ANALYZE / metrics (relaxed accumulation).
  std::atomic<int64_t> probe_hits_{0};
  std::atomic<int64_t> probe_misses_{0};
  obs::Counter* metric_probe_hits_ = nullptr;
  obs::Counter* metric_probe_misses_ = nullptr;
  obs::OperatorProfileNode* profile_node_ = nullptr;

  /// Build-side memory reservation (held while build_/table_ are resident).
  MemoryReservation reservation_;
  /// Grace-mode state (partition writers, pair-output runs, merge cursors);
  /// null while the build fits in memory.
  std::unique_ptr<GraceState> grace_;
  /// Global build index of each row currently in build_ (grace pair joins;
  /// FULL OUTER tails merge by it). Empty in the in-memory path.
  std::vector<uint64_t> grace_build_seqs_;
};

/// Hash join supporting inner/left/full/semi/anti (+cross). Right joins are
/// normalized to left joins by the compiler. Builds on the right input,
/// probes with the left; equi-keys are extracted from the condition and the
/// rest evaluates as a residual predicate per candidate pair. The probe
/// (left) child opens lazily — only after the build side finalized — so
/// build-side errors and deadline kills never touch the probe subtree.
class HashJoinOperator : public Operator {
 public:
  HashJoinOperator(ExecContext* ctx, OperatorPtr left, OperatorPtr right,
                   TableRef::JoinType join_type, ExprPtr condition, Schema schema);
  Status Open() override;
  Result<RowBatch> Next(bool* done) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

  HashJoinCore* core() { return &core_; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  Schema schema_;
  HashJoinCore core_;
  bool exhausted_left_ = false;
  bool emitted_unmatched_ = false;
  bool is_full_join_;
};

/// Mergeable grouped-aggregation state: the hash table of one aggregation
/// fragment, filled in two phases per batch.
///
///  1. Group ordinals: key columns evaluate vectorized and hash column-wise;
///     the FlatHashIndex chain walk checks candidates with one typed
///     comparator per key (NULLs equal, DOUBLE by Value::Compare so -0.0
///     meets 0.0), and a batch's new groups append their first rows to the
///     key store with one AppendGather per key column.
///  2. Accumulators: one typed loop per aggregate over the batch's (row,
///     ordinal) pairs into accumulator columns. Each call's kernel — COUNT,
///     SUM, AVG, MIN or MAX over its accumulator type, or a DISTINCT value
///     set — is resolved once, when the state is built.
///
/// A partial state is one batch over partial_schema(): the key columns, the
/// accumulator columns and each group's first-seen sequence. Merging worker
/// partials and rebuilding spilled partitions run the same two phases over
/// such a batch with merge kernels (counts add, sums add, MIN takes the
/// min), so every accumulator merges commutatively and each parallel worker
/// folds its morsels into a private instance that the coordinator merges.
/// Groups remember the sequence number of the first input row that created
/// them; emission sorts by that, making output order deterministic and
/// independent of how rows were distributed over workers.
class GroupedAggState {
 public:
  GroupedAggState(const std::vector<ExprPtr>* keys, const std::vector<AggCall>* aggs);

  /// Folds one batch in. `seq_base` positions the batch in the global input
  /// order (a new group records seq_base + its row position).
  Status Consume(const RowBatch& batch, uint64_t seq_base);

  /// Merges `other`'s groups into this state (its Partial batch).
  void Merge(GroupedAggState&& other);

  /// The state as one batch over partial_schema(), and in `seqs` each row's
  /// group first-seen sequence. Keys, then per call its accumulator columns:
  /// COUNT a BIGINT count; SUM, MIN and MAX a column of the accumulator type,
  /// NULL until a value arrived; AVG a DOUBLE sum and a BIGINT count; a
  /// DISTINCT call its values, one a row. A group spans as many rows as its
  /// largest DISTINCT set, its other accumulators on the first row only.
  /// The batch may share columns with the state; call before Seal.
  RowBatch Partial(std::vector<uint64_t>* seqs) const;
  /// Folds a Partial batch (of this state's keys and calls) in, over its
  /// selected rows: new groups are adopted, existing ones merge their
  /// accumulators and keep the smaller first-seen sequence.
  void MergePartial(const RowBatch& partial, const std::vector<uint64_t>& seqs);
  const Schema& partial_schema() const { return partial_schema_; }

  /// Finishes the build: adds the empty global group (no keys, no input)
  /// and orders groups by first-seen sequence. Call once, after all
  /// Consume/Merge.
  void Seal();

  size_t num_groups() const { return ordered_.size(); }
  /// Stored-group count, valid before Seal.
  size_t num_raw_groups() const { return first_seq_.size(); }
  /// First-seen sequence of the i-th *sealed* group (merge-emit ordering).
  uint64_t ordered_first_seq(size_t i) const { return first_seq_[ordered_[i]]; }
  /// Memory footprint, the figure the reservation grows to: the hash index,
  /// the key store, the accumulator columns, the first-seen sequences, the
  /// string bytes they hold and the DISTINCT sets' values.
  uint64_t approx_bytes() const;

  /// Emits sealed groups [begin, end) as a batch over `schema` (keys then
  /// aggs).
  Result<RowBatch> Emit(size_t begin, size_t end, const Schema& schema) const;
  /// Drops all groups and the index (after a spill flush).
  void Reset();

 private:
  enum class AggFn : uint8_t { kCount, kSum, kAvg, kMin, kMax };
  /// One call, resolved when the state is built.
  struct Kernel {
    AggFn fn;
    bool distinct;
    /// The argument's type after the per-batch conform: the accumulator's
    /// type (AVG: DOUBLE), or the DISTINCT values' type.
    DataType type;
    size_t col;  // first accumulator column (acc_ / the partial batch after the keys)
  };
  using DistinctSet = std::unordered_set<Value, ValueHasher>;

  /// Phase one over rows[0..n) of `key_cols` (key-typed): fills ords_,
  /// creating the groups not yet stored. A new group takes seq_of(i); with
  /// `merge`, a found group keeps the smaller of its sequence and seq_of(i).
  template <typename SeqOf>
  void MapGroups(const std::vector<ColumnVectorPtr>& key_cols, size_t num_rows,
                 const int32_t* rows, size_t n, SeqOf seq_of, bool merge);
  /// Phase two: folds `in` (one input per accumulator column; COUNT(*)'s is
  /// null) at rows[0..n) into the groups ords_ names. `merge` reads counts
  /// from partial count columns instead of counting rows.
  void Accumulate(const std::vector<ColumnVectorPtr>& in, const int32_t* rows, size_t n,
                  bool merge);
  /// Grows the accumulators and DISTINCT sets to num_raw_groups() groups.
  void GrowAccumulators();
  /// A DISTINCT call's result over one group's value set.
  Value FinalizeDistinct(const Kernel& k, const AggCall& agg, const DistinctSet& set) const;

  const std::vector<ExprPtr>* keys_;
  const std::vector<AggCall>* aggs_;
  std::vector<Kernel> kernels_;  // parallel to *aggs_
  Schema partial_schema_;
  /// The key store and the accumulator columns, one row per group ordinal
  /// (a DISTINCT call's acc_ slot is null: its values live in distinct_).
  std::vector<ColumnVectorPtr> key_cols_;
  std::vector<ColumnVectorPtr> acc_;
  std::vector<std::vector<DistinctSet>> distinct_;  // per DISTINCT call, per group
  std::vector<uint64_t> first_seq_;
  /// Flat open-addressing index over group-key hashes (payload = ordinal).
  /// Hash collisions chain and resolve by key comparison.
  FlatHashIndex index_;
  std::vector<uint32_t> ordered_;  // Seal(): ordinals sorted by first_seq
  /// Heap bytes of the stored strings (keys, MIN/MAX) and of the DISTINCT
  /// values, tallied as they arrive.
  uint64_t string_bytes_ = 0;
  uint64_t distinct_bytes_ = 0;
  // Per-batch scratch: key hashes, each row's ordinal, new groups' rows,
  // and 0..n-1 for batches without a selection.
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> ords_;
  std::vector<int32_t> new_rows_;
  std::vector<int32_t> all_rows_;
};

/// Aggregation spill: hash-prefix partition streams that over-budget
/// fragments flush their Partial batches into, plus the partition-wise
/// rebuild that reassembles the sealed result as a first-seen-ordered row
/// stream. One instance per aggregation node; each fragment (worker) flushes
/// into its own stream set, so concurrent flushes never contend. A group's
/// rows always land in one hash partition, so rebuilding partitions one at
/// a time bounds the merge-side footprint to ~1/partitions of the state.
class AggSpillSet {
 public:
  AggSpillSet(ExecContext* ctx, std::string prefix,
              const std::vector<ExprPtr>* keys, const std::vector<AggCall>* aggs,
              int partitions, int workers);

  /// Writes `state`'s Partial batch to worker `w`'s partition streams
  /// (first-seen sequences riding as row sequences) and resets the state.
  /// Thread-safe across distinct workers.
  Status Flush(int worker, GroupedAggState* state);
  /// True once any fragment flushed.
  bool spilled() const { return spilled_.load(std::memory_order_relaxed); }

  /// Rebuilds each hash partition — merging `remainder`'s rows of that
  /// partition, then every worker's spilled batches in fixed (worker,
  /// chunk) order — seals it, finalizes it into a seq-tagged row run, then
  /// arms the k-way merge over the runs. Call once, after input ends.
  /// `remainder` (may be null) is the final unspilled in-memory state.
  Status PrepareEmit(GroupedAggState* remainder, const Schema& schema);
  /// Streams the merged output in first-seen group order.
  Result<RowBatch> NextOutput(bool* done);

  int64_t flushes() const { return flushes_.load(std::memory_order_relaxed); }
  uint64_t bytes_spilled() const;

 private:
  struct Cursor {
    std::unique_ptr<SpillBatchReader> reader;
    RowBatch batch;
    std::vector<uint64_t> seqs;
    size_t pos = 0;
    bool done = false;
  };
  Status RefillCursor(Cursor* c);
  /// The spill partition of each row of a Partial batch, by its key hash.
  std::vector<uint32_t> PartitionsOf(const RowBatch& partial) const;

  ExecContext* ctx_;
  std::string prefix_;
  const std::vector<ExprPtr>* keys_;
  const std::vector<AggCall>* aggs_;
  int partitions_;
  /// Partition batch streams, [worker][partition]; created lazily.
  std::vector<std::vector<std::unique_ptr<SpillBatchWriter>>> writers_;
  std::atomic<bool> spilled_{false};
  std::atomic<int64_t> flushes_{0};
  std::vector<std::unique_ptr<SpillBatchWriter>> runs_;  // per-partition rows
  std::vector<Cursor> cursors_;
  Schema out_schema_;
};

/// Hash aggregation with optional DISTINCT aggregates; grouping-set
/// expansion happens in the planner so this operator sees plain keys.
/// Thin serial driver over GroupedAggState; a denied memory reservation
/// flushes the state through AggSpillSet and merge-emits on Seal.
class HashAggregateOperator : public Operator {
 public:
  HashAggregateOperator(ExecContext* ctx, OperatorPtr child,
                        std::vector<ExprPtr> keys, std::vector<AggCall> aggs,
                        Schema schema);
  Status Open() override;
  Result<RowBatch> Next(bool* done) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

  void set_profile_node(obs::OperatorProfileNode* node) { profile_node_ = node; }

 private:
  Status Consume();

  OperatorPtr child_;
  std::vector<ExprPtr> keys_;
  std::vector<AggCall> aggs_;
  Schema schema_;
  GroupedAggState state_;
  size_t emit_index_ = 0;
  bool consumed_ = false;
  MemoryReservation reservation_;
  std::unique_ptr<AggSpillSet> spill_;  // created on first denied reservation
  obs::OperatorProfileNode* profile_node_ = nullptr;
};

/// Full sort with optional fetch (ORDER BY ... LIMIT). Three regimes:
///  - small fetch: a bounded top-K heap holds only the K best rows, so
///    ORDER BY ... LIMIT never materializes (or spills) the input;
///  - input within budget: dense materialize + stable sort (the classic
///    path);
///  - over budget: external merge sort — each chunk that fills the
///    reservation sorts in memory and drains to a spill run, and emission
///    k-way-merges the runs (ties break toward the earlier run, which is
///    exactly std::stable_sort order).
class SortOperator : public Operator {
 public:
  SortOperator(ExecContext* ctx, OperatorPtr child,
               std::vector<std::pair<ExprPtr, bool>> keys, int64_t fetch);
  Status Open() override { return child_->Open(); }
  Result<RowBatch> Next(bool* done) override;
  Status Close() override;
  const Schema& schema() const override { return child_->schema(); }

  void set_profile_node(obs::OperatorProfileNode* node) { profile_node_ = node; }

 private:
  struct MergeCursor {
    std::unique_ptr<SpillBatchReader> reader;
    RowBatch batch;
    std::vector<ColumnVectorPtr> keys;  // evaluated over `batch`
    size_t pos = 0;
    bool done = false;
  };

  /// Drains the child: top-K heap, in-memory sort into materialized_, or
  /// spill runs + armed merge, depending on fetch and the reservation.
  Status ConsumeInput();
  /// Bounded ORDER BY ... LIMIT consumption (fetch small enough for a heap).
  Status ConsumeTopK();
  /// Sorts the pending chunk and drains it to a new spill run.
  Status SpillRun(RowBatch* pending);
  Result<RowBatch> MergeNext(bool* done);
  Status RefillCursor(MergeCursor* c);

  OperatorPtr child_;
  std::vector<std::pair<ExprPtr, bool>> keys_;
  int64_t fetch_;
  bool sorted_ = false;
  RowBatch materialized_;
  size_t emit_offset_ = 0;
  MemoryReservation reservation_;
  std::vector<std::unique_ptr<SpillBatchWriter>> runs_;
  std::vector<MergeCursor> cursors_;
  bool merge_armed_ = false;
  int64_t merge_emitted_ = 0;  // rows emitted by the external merge
  bool used_top_k_ = false;
  uint64_t input_bytes_ = 0;
  obs::OperatorProfileNode* profile_node_ = nullptr;
};

class LimitOperator : public Operator {
 public:
  LimitOperator(ExecContext* ctx, OperatorPtr child, int64_t limit);
  Status Open() override { return child_->Open(); }
  Result<RowBatch> Next(bool* done) override;
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

class UnionOperator : public Operator {
 public:
  UnionOperator(ExecContext* ctx, std::vector<OperatorPtr> children, Schema schema);
  Status Open() override;
  Result<RowBatch> Next(bool* done) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  std::vector<OperatorPtr> children_;
  Schema schema_;
  size_t current_ = 0;
};

/// INTERSECT / EXCEPT with set (distinct) semantics via row-digest sets.
/// The digest sets and the materialized result draw a reservation at batch
/// granularity (their *actual* byte footprint, not a fabricated estimate);
/// this operator does not spill, so a denied reservation fails the query
/// with a budget-exceeded status.
class SetOpOperator : public Operator {
 public:
  SetOpOperator(ExecContext* ctx, OperatorPtr left, OperatorPtr right,
                bool is_intersect);
  Status Open() override;
  Result<RowBatch> Next(bool* done) override;
  Status Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  OperatorPtr left_, right_;
  bool is_intersect_;
  bool done_ = false;
  RowBatch result_;
  bool emitted_ = false;
  MemoryReservation reservation_;
};

/// Window functions: materializes the input, then computes each call over
/// its partition/order spec, appending result columns.
class WindowOperator : public Operator {
 public:
  WindowOperator(ExecContext* ctx, OperatorPtr child,
                 std::vector<WindowCall> calls, Schema schema);
  Status Open() override { return child_->Open(); }
  Result<RowBatch> Next(bool* done) override;
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr child_;
  std::vector<WindowCall> calls_;
  Schema schema_;
  bool computed_ = false;
  RowBatch result_;
  bool emitted_ = false;
};

/// Shared-work spool (Section 4.5): the first consumer executes the shared
/// subtree and materializes its batches; subsequent consumers replay them.
struct SpoolState {
  Mutex mu{"exec.spool.mu"};
  bool materialized HIVE_GUARDED_BY(mu) = false;
  Status status HIVE_GUARDED_BY(mu);
  std::vector<RowBatch> batches HIVE_GUARDED_BY(mu);
  OperatorPtr source HIVE_GUARDED_BY(mu);
};

class SpoolOperator : public Operator {
 public:
  SpoolOperator(ExecContext* ctx, std::shared_ptr<SpoolState> state, Schema schema);
  Status Open() override;
  Result<RowBatch> Next(bool* done) override;
  const Schema& schema() const override { return schema_; }

 private:
  std::shared_ptr<SpoolState> state_;
  Schema schema_;
  size_t index_ = 0;
};

}  // namespace hive

#endif  // HIVE_EXEC_OPERATORS_H_
