#include <algorithm>
#include <cstdio>
#include <future>
#include <optional>
#include <unordered_map>

#include "common/hash.h"
#include "exec/operators.h"
#include "exec/vector_eval.h"
#include "obs/metric_names.h"

namespace hive {

namespace {

void SplitAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e && e->kind == ExprKind::kBinary && e->bin_op == BinaryOp::kAnd) {
    SplitAnd(e->children[0], out);
    SplitAnd(e->children[1], out);
    return;
  }
  if (e) out->push_back(e);
}

bool BindingsBelow(const ExprPtr& e, int width) {
  if (!e) return true;
  if (e->kind == ExprKind::kColumnRef) return e->binding < width;
  for (const ExprPtr& c : e->children)
    if (!BindingsBelow(c, width)) return false;
  return true;
}

bool BindingsAtOrAbove(const ExprPtr& e, int width) {
  if (!e) return true;
  if (e->kind == ExprKind::kColumnRef) return e->binding >= width;
  for (const ExprPtr& c : e->children)
    if (!BindingsAtOrAbove(c, width)) return false;
  return true;
}

/// Evaluates a join residual, bound over concat(probe, build), on (probe
/// row, build row) pairs. The batch it evaluates on is made once per probe
/// batch; each chunk of at most `chunk` pairs re-gathers only the columns
/// the residual reads.
class PairFilter {
 public:
  PairFilter(const ExprPtr& residual, const RowBatch& probe, size_t left_width,
             const RowBatch& build, size_t chunk)
      : residual_(*residual), probe_(probe), left_width_(left_width), build_(build),
        chunk_(chunk) {
    Schema schema;
    for (size_t c = 0; c < left_width; ++c) schema.AddField("", probe.column(c)->type());
    for (size_t c = 0; c < build.num_columns(); ++c)
      schema.AddField("", build.column(c)->type());
    pairs_ = RowBatch(std::move(schema));
    std::vector<bool> read(pairs_.num_columns(), false);
    CollectBindings(residual, &read);
    for (size_t c = 0; c < read.size(); ++c)
      if (read[c]) reads_.push_back(c);
  }

  /// Sets pass[k] to whether the residual is TRUE on (probe row left[k],
  /// build row right[k]) for every k < n.
  Status Filter(const int32_t* left, const int32_t* right, size_t n, uint8_t* pass) {
    for (size_t begin = 0; begin < n; begin += chunk_) {
      const size_t m = std::min(chunk_, n - begin);
      for (size_t c : reads_) {
        const bool from_probe = c < left_width_;
        ColumnVector& col = *pairs_.column(c);
        col.Resize(0);
        col.AppendGather(from_probe ? *probe_.column(c) : *build_.column(c - left_width_),
                         (from_probe ? left : right) + begin, m);
      }
      pairs_.set_num_rows(m);
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr mask, EvalVector(residual_, pairs_));
      for (size_t k = 0; k < m; ++k)
        pass[begin + k] = !mask->IsNull(k) && mask->GetI64(k) != 0;
    }
    return Status::OK();
  }

 private:
  const Expr& residual_;
  const RowBatch& probe_;
  size_t left_width_;
  const RowBatch& build_;
  size_t chunk_;
  RowBatch pairs_;
  std::vector<size_t> reads_;
};

ExprPtr ShiftClone(const ExprPtr& e, int delta) {
  ExprPtr out = CloneExpr(e);
  std::function<void(const ExprPtr&)> shift = [&](const ExprPtr& x) {
    if (!x) return;
    if (x->kind == ExprKind::kColumnRef && x->binding >= 0) x->binding += delta;
    for (const ExprPtr& c : x->children) shift(c);
  };
  shift(out);
  return out;
}

/// Extracts the equi-key pairs and residual conjuncts of a join condition
/// given the probe side's width. Shared by runtime binding and the
/// plan-time perfect-hash eligibility check.
void SplitJoinCondition(const ExprPtr& condition, int left_width,
                        std::vector<ExprPtr>* left_keys,
                        std::vector<ExprPtr>* right_keys,
                        std::vector<ExprPtr>* residual_conjuncts) {
  std::vector<ExprPtr> conjuncts;
  SplitAnd(condition, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    if (c->kind == ExprKind::kLiteral) continue;  // TRUE markers
    if (c->kind == ExprKind::kBinary && c->bin_op == BinaryOp::kEq) {
      const ExprPtr& a = c->children[0];
      const ExprPtr& b = c->children[1];
      if (BindingsBelow(a, left_width) && BindingsAtOrAbove(b, left_width)) {
        left_keys->push_back(a);
        right_keys->push_back(ShiftClone(b, -left_width));
        continue;
      }
      if (BindingsBelow(b, left_width) && BindingsAtOrAbove(a, left_width)) {
        left_keys->push_back(b);
        right_keys->push_back(ShiftClone(a, -left_width));
        continue;
      }
    }
    residual_conjuncts->push_back(c);
  }
}

}  // namespace

// --- HashJoinCore ---

HashJoinCore::HashJoinCore(ExecContext* ctx, TableRef::JoinType join_type,
                           ExprPtr condition, const Schema* out_schema)
    : ctx_(ctx),
      join_type_(join_type),
      condition_(std::move(condition)),
      out_schema_(out_schema) {}

HashJoinCore::~HashJoinCore() = default;

/// Grace-mode state: depth-0 partition writers for both sides, the output
/// and tail runs the partition pairs produce, and the merge cursors that
/// stream them back in global probe (then build) order.
struct HashJoinCore::GraceState {
  explicit GraceState(int p) : parts(p), build_writers(p), probe_writers(p) {}

  int parts;
  uint64_t id = 0;
  std::string prefix;           // <spill_dir>/j<id>
  uint64_t stream_counter = 0;  // unique suffix for recursive/output streams
  Schema build_schema;

  std::vector<std::unique_ptr<SpillBatchWriter>> build_writers;  // depth 0
  std::vector<std::unique_ptr<SpillBatchWriter>> probe_writers;  // depth 0
  uint64_t build_seq = 0;  // global build row counter (doubles as row count)
  uint64_t probe_seq = 0;  // global probe row counter
  int64_t partitions_spawned = 0;
  int max_depth = 0;
  uint64_t bytes = 0;  // spill bytes this join wrote

  std::vector<std::unique_ptr<SpillBatchWriter>> output_runs;
  std::vector<std::unique_ptr<SpillBatchWriter>> tail_runs;

  struct Cursor {
    std::unique_ptr<SpillBatchReader> reader;
    RowBatch batch;
    std::vector<uint64_t> seqs;
    size_t pos = 0;
    bool done = false;
  };
  std::vector<Cursor> cursors;
  bool merge_armed = false;
  bool tail_phase = false;

  Status Refill(Cursor* c) {
    c->pos = 0;
    HIVE_ASSIGN_OR_RETURN(bool more, c->reader->NextBatch(&c->batch, &c->seqs));
    if (!more) c->done = true;
    return Status::OK();
  }

  Status Arm(ExecContext* ctx,
             std::vector<std::unique_ptr<SpillBatchWriter>>& runs) {
    cursors.clear();
    for (std::unique_ptr<SpillBatchWriter>& w : runs) {
      if (!w || w->num_rows() == 0) continue;
      cursors.emplace_back();
      Cursor& c = cursors.back();
      c.batch = RowBatch(w->schema());
      c.reader = std::make_unique<SpillBatchReader>(ctx, *w);
      HIVE_RETURN_IF_ERROR(Refill(&c));
    }
    return Status::OK();
  }

  /// One k-way merge step: up to `limit` rows in ascending sequence order.
  /// Each probe (resp. build) row lands in exactly one partition, so the
  /// per-run sequences are disjoint and ascending — the merge reproduces
  /// the serial emission order exactly.
  Result<RowBatch> MergeStep(const Schema& schema, size_t limit) {
    RowBatch out(schema);
    size_t out_rows = 0;
    while (out_rows < limit) {
      Cursor* best = nullptr;
      for (Cursor& c : cursors) {
        if (c.done) continue;
        if (!best || c.seqs[c.pos] < best->seqs[best->pos]) best = &c;
      }
      if (!best) break;
      for (size_t col = 0; col < out.num_columns(); ++col)
        out.column(col)->AppendFrom(*best->batch.column(col), best->pos);
      ++out_rows;
      ++best->pos;
      if (best->pos >= best->batch.num_rows()) HIVE_RETURN_IF_ERROR(Refill(best));
    }
    out.set_num_rows(out_rows);
    return out;
  }
};

bool HashJoinCore::PerfectHashEligible(const ExprPtr& condition, int left_width) {
  std::vector<ExprPtr> left_keys, right_keys, residual;
  SplitJoinCondition(condition, left_width, &left_keys, &right_keys, &residual);
  if (left_keys.size() != 1) return false;
  TypeKind lk = left_keys[0]->type.kind;
  TypeKind rk = right_keys[0]->type.kind;
  // Same non-decimal integer kind on both sides: array-index equality then
  // coincides with Value::Compare (cross-kind integer comparisons do not —
  // BIGINT 7 never equals DATE 7).
  if (lk != rk) return false;
  return lk == TypeKind::kBigint || lk == TypeKind::kDate ||
         lk == TypeKind::kTimestamp;
}

Status HashJoinCore::BindCondition(const Schema& left_schema) {
  left_width_ = left_schema.num_fields();
  std::vector<ExprPtr> residual_conjuncts;
  SplitJoinCondition(condition_, static_cast<int>(left_width_), &left_keys_,
                     &right_keys_, &residual_conjuncts);
  for (const ExprPtr& c : residual_conjuncts) {
    if (!residual_) {
      residual_ = c;
    } else {
      residual_ = MakeBinary(BinaryOp::kAnd, residual_, c);
      residual_->type = DataType::Boolean();
    }
  }
  // Typed comparison plan per key pair; anything without a safe fast path
  // (cross-kind numerics, cross-scale decimals) verifies boxed through
  // Value::Compare, which is what the hash contract is defined against.
  key_cmp_.clear();
  for (size_t k = 0; k < left_keys_.size(); ++k) {
    const DataType& lt = left_keys_[k]->type;
    const DataType& rt = right_keys_[k]->type;
    KeyCmp cmp = KeyCmp::kBoxed;
    if (lt.kind == rt.kind) {
      switch (lt.kind) {
        case TypeKind::kBigint:
        case TypeKind::kDate:
        case TypeKind::kTimestamp:
        case TypeKind::kBoolean:
          cmp = KeyCmp::kI64;
          break;
        case TypeKind::kDecimal:
          if (lt.scale == rt.scale) cmp = KeyCmp::kI64;
          break;
        case TypeKind::kDouble:
          cmp = KeyCmp::kF64;
          break;
        case TypeKind::kString:
          cmp = KeyCmp::kStr;
          break;
        default:
          break;
      }
    }
    key_cmp_.push_back(cmp);
  }
  return Status::OK();
}

Status HashJoinCore::Build(Operator* build_child) {
  build_ = RowBatch(build_child->schema());
  reservation_.Attach(ctx_->query_memory);
  bool done = false;
  // Reservation grows by incoming batch bytes (an O(batch) approximation of
  // the dense footprint; rescanning build_ per batch would be quadratic).
  uint64_t accum_bytes = 0;
  for (;;) {
    HIVE_RETURN_IF_ERROR(ctx_->CheckInterrupted());
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, build_child->Next(&done));
    if (done) break;
    if (grace_) {
      HIVE_RETURN_IF_ERROR(GraceRouteBuildBatch(batch));
      continue;
    }
    build_.AppendSelected(batch);
    accum_bytes += batch.ByteSize();
    if (!reservation_.GrowTo(static_cast<int64_t>(accum_bytes))) {
      CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
      // Cross and non-equi joins have no key to partition by; they fail
      // rather than spill.
      if (!ctx_->CanSpill() || right_keys_.empty())
        return BudgetExceededStatus("hash join build",
                                    static_cast<int64_t>(accum_bytes), ctx_);
      HIVE_RETURN_IF_ERROR(EnterGrace());
      accum_bytes = 0;
    }
  }

  // The hash table rides on top of the dense rows (~24 bytes/row of slots
  // and chain entries); reserve it before finalizing.
  if (!grace_ && build_.num_rows() > 0 && !right_keys_.empty() &&
      !reservation_.GrowTo(static_cast<int64_t>(accum_bytes) +
                           static_cast<int64_t>(build_.num_rows()) * 24)) {
    CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
    if (!ctx_->CanSpill())
      return BudgetExceededStatus("hash join build",
                                  static_cast<int64_t>(accum_bytes), ctx_);
    HIVE_RETURN_IF_ERROR(EnterGrace());
  }

  obs::Counter* metric_perfect = nullptr;
  if (ctx_->metrics) {
    metric_perfect = ctx_->metrics->counter(obs::metric::kJoinPerfectHash);
    metric_probe_hits_ = ctx_->metrics->counter(obs::metric::kJoinProbeHits);
    metric_probe_misses_ = ctx_->metrics->counter(obs::metric::kJoinProbeMisses);
  }

  if (grace_) {
    GraceState& g = *grace_;
    if (static_cast<int64_t>(g.build_seq) > ctx_->join_build_row_limit)
      return Status::ExecError("hash join build side exceeded memory limit (" +
                               std::to_string(g.build_seq) + " rows)");
    for (std::unique_ptr<SpillBatchWriter>& w : g.build_writers) {
      if (!w) continue;
      HIVE_RETURN_IF_ERROR(w->Finish());
      g.bytes += w->bytes_written();
    }
    if (ctx_->metrics)
      ctx_->metrics->counter(obs::metric::kJoinBuildRows)
          ->Add(static_cast<int64_t>(g.build_seq));
    // The build side materialized to spill; that is this stage's output.
    return ctx_->OnStageBoundary(g.bytes);
  }

  if (static_cast<int64_t>(build_.num_rows()) > ctx_->join_build_row_limit)
    return Status::ExecError("hash join build side exceeded memory limit (" +
                             std::to_string(build_.num_rows()) + " rows)");
  const size_t n = build_.num_rows();
  matched_ = std::unique_ptr<std::atomic<uint8_t>[]>(new std::atomic<uint8_t>[n]);
  for (size_t i = 0; i < n; ++i) matched_[i].store(0, std::memory_order_relaxed);

  if (ctx_->metrics)
    ctx_->metrics->counter(obs::metric::kJoinBuildRows)->Add(static_cast<int64_t>(n));

  if (!right_keys_.empty()) {
    // Vectorized key evaluation + column-wise hashing over the dense build
    // batch: no per-row boxed rows, no per-row key vectors.
    build_key_cols_.clear();
    for (const ExprPtr& k : right_keys_) {
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*k, build_));
      build_key_cols_.push_back(std::move(col));
    }
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> valid;
    HashKeyColumns(build_key_cols_, n, &hashes, &valid);

    const int64_t ns_per_row = ctx_->config->join_cpu_ns_per_row;
    bool perfect_built = false;
    if (perfect_hint_ && ctx_->config->perfect_hash_join_enabled &&
        right_keys_.size() == 1 && key_cmp_[0] == KeyCmp::kI64 && n > 0) {
      // Build finalize decides from min/max whether the single integer key
      // domain is dense enough for an array table; duplicates make TryBuild
      // bail back to the generic path.
      const std::vector<int64_t>& keys = build_key_cols_[0]->i64_data();
      int64_t mn = 0, mx = 0;
      size_t cnt = 0;
      for (size_t r = 0; r < n; ++r) {
        if (!valid[r]) continue;
        if (cnt == 0 || keys[r] < mn) mn = keys[r];
        if (cnt == 0 || keys[r] > mx) mx = keys[r];
        ++cnt;
      }
      if (cnt > 0) {
        uint64_t range = static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn) + 1;
        // Density rule: the array may be at most 2x the build rows (plus a
        // small constant for tiny tables), and never outlandishly large.
        if (range <= 2 * cnt + 1024 && range <= (1u << 22))
          perfect_built = perfect_.TryBuild(keys, valid, mn, mx);
      }
    }
    if (perfect_built) {
      if (metric_perfect) metric_perfect->Inc();
      if (ctx_->clock)
        ctx_->clock->Charge(static_cast<int64_t>(n) * ns_per_row / 1000);
    } else {
      // Partitioned parallel build: partitions share nothing (a hash's top
      // bits pick its partition), so workers claim partitions from an atomic
      // counter and insert lock-free. Chain order within a partition depends
      // only on row order, which every partition walks ascending — the table
      // is identical at any worker or partition count.
      bool want_parallel = ctx_->submit_worker != nullptr &&
                           ctx_->config->parallel_join_enabled &&
                           ctx_->mode != RuntimeMode::kMapReduce &&
                           ctx_->max_parallel_workers > 1;
      int target = want_parallel ? std::min(ctx_->max_parallel_workers, 16) : 1;
      table_.Init(hashes, valid, target);
      const int parts = table_.num_partitions();
      const int workers = want_parallel ? std::min(ctx_->max_parallel_workers, parts) : 1;
      std::atomic<size_t> next_part{0};
      std::vector<int64_t> busy_ns(static_cast<size_t>(workers), 0);
      auto build_loop = [&](int w) -> Status {
        for (;;) {
          size_t p = next_part.fetch_add(1, std::memory_order_relaxed);
          if (p >= static_cast<size_t>(parts)) break;
          table_.BuildPartition(static_cast<int>(p), hashes, valid);
          busy_ns[static_cast<size_t>(w)] +=
              static_cast<int64_t>(table_.num_entries_in(static_cast<int>(p))) *
              ns_per_row;
        }
        return Status::OK();
      };
      std::vector<std::future<Status>> futures;
      for (int w = 1; w < workers; ++w)
        futures.push_back(ctx_->submit_worker([&build_loop, w] { return build_loop(w); }));
      Status status = build_loop(0);
      for (auto& f : futures) {
        Status s = f.get();
        if (status.ok() && !s.ok()) status = s;
      }
      HIVE_RETURN_IF_ERROR(status);
      // Like scan CPU, build CPU charges the critical path: the slowest
      // worker in a parallel build, every insert in a serial one.
      int64_t critical_ns = 0;
      for (int64_t b : busy_ns) critical_ns = std::max(critical_ns, b);
      if (ctx_->clock) ctx_->clock->Charge(critical_ns / 1000);
    }
  }
  return ctx_->OnStageBoundary(build_.ByteSize());
}

Status HashJoinCore::EnterGrace() {
  grace_ = std::make_unique<GraceState>(
      std::max(2, ctx_->config ? ctx_->config->spill_partitions : 8));
  GraceState& g = *grace_;
  g.id = NextSpillStreamId();
  g.prefix = ctx_->spill_dir + "/j" + std::to_string(g.id);
  g.build_schema = build_.schema();
  Status routed = GraceRouteBuildBatch(build_);
  build_ = RowBatch(g.build_schema);
  reservation_.Release();
  return routed;
}

Status HashJoinCore::GraceRouteBuildBatch(const RowBatch& batch) {
  GraceState& g = *grace_;
  if (batch.SelectedSize() == 0) return Status::OK();
  std::vector<ColumnVectorPtr> key_cols;
  for (const ExprPtr& k : right_keys_) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*k, batch));
    key_cols.push_back(std::move(col));
  }
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> valid;
  HashKeyColumns(key_cols, batch.num_rows(), &hashes, &valid);
  for (size_t i = 0; i < batch.SelectedSize(); ++i) {
    int32_t src = batch.SelectedRow(i);
    uint32_t p = SpillPartitionOf(hashes[static_cast<size_t>(src)], 0, g.parts);
    std::unique_ptr<SpillBatchWriter>& w = g.build_writers[p];
    if (!w) {
      w = std::make_unique<SpillBatchWriter>(
          ctx_, g.prefix + ".b" + std::to_string(p), g.build_schema, true);
      CountSpillMetric(ctx_, obs::metric::kSpillPartitions, 1);
      ++g.partitions_spawned;
    }
    HIVE_RETURN_IF_ERROR(w->AppendRow(batch, src, g.build_seq++));
  }
  return Status::OK();
}

Status HashJoinCore::GraceAddProbeBatch(const RowBatch& batch) {
  GraceState& g = *grace_;
  if (batch.SelectedSize() == 0) return Status::OK();
  std::vector<ColumnVectorPtr> key_cols;
  for (const ExprPtr& k : left_keys_) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*k, batch));
    key_cols.push_back(std::move(col));
  }
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> valid;
  HashKeyColumns(key_cols, batch.num_rows(), &hashes, &valid);
  for (size_t i = 0; i < batch.SelectedSize(); ++i) {
    int32_t src = batch.SelectedRow(i);
    uint32_t p = SpillPartitionOf(hashes[static_cast<size_t>(src)], 0, g.parts);
    std::unique_ptr<SpillBatchWriter>& w = g.probe_writers[p];
    if (!w) {
      w = std::make_unique<SpillBatchWriter>(
          ctx_, g.prefix + ".p" + std::to_string(p), batch.schema(), true);
      CountSpillMetric(ctx_, obs::metric::kSpillPartitions, 1);
      ++g.partitions_spawned;
    }
    HIVE_RETURN_IF_ERROR(w->AppendRow(batch, src, g.probe_seq++));
  }
  return Status::OK();
}

Status HashJoinCore::GraceFinishProbe() {
  GraceState& g = *grace_;
  for (std::unique_ptr<SpillBatchWriter>& w : g.probe_writers) {
    if (!w) continue;
    HIVE_RETURN_IF_ERROR(w->Finish());
    g.bytes += w->bytes_written();
  }
  // Serial probe semantics: every probe row pays its modeled CPU exactly
  // once, whichever partition pair ends up probing it.
  if (ctx_->clock)
    ctx_->clock->Charge(static_cast<int64_t>(g.probe_seq) * probe_ns_per_row() /
                        1000);
  for (int p = 0; p < g.parts; ++p)
    HIVE_RETURN_IF_ERROR(JoinPartitionPair(0, g.build_writers[p].get(),
                                           g.probe_writers[p].get()));
  return Status::OK();
}

Status HashJoinCore::RebuildTableOverBuild() {
  const size_t n = build_.num_rows();
  matched_ = std::unique_ptr<std::atomic<uint8_t>[]>(new std::atomic<uint8_t>[n]);
  for (size_t i = 0; i < n; ++i) matched_[i].store(0, std::memory_order_relaxed);
  build_key_cols_.clear();
  for (const ExprPtr& k : right_keys_) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*k, build_));
    build_key_cols_.push_back(std::move(col));
  }
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> valid;
  HashKeyColumns(build_key_cols_, n, &hashes, &valid);
  table_.Init(hashes, valid, 1);
  if (n > 0) table_.BuildPartition(0, hashes, valid);
  if (ctx_->clock)
    ctx_->clock->Charge(static_cast<int64_t>(n) *
                        ctx_->config->join_cpu_ns_per_row / 1000);
  return Status::OK();
}

Status HashJoinCore::JoinPartitionPair(int depth, SpillBatchWriter* build_run,
                                       SpillBatchWriter* probe_run) {
  GraceState& g = *grace_;
  if (depth > g.max_depth) g.max_depth = depth;
  const bool full = join_type_ == TableRef::JoinType::kFull;
  const bool anti = join_type_ == TableRef::JoinType::kAnti;
  const bool left_outer = join_type_ == TableRef::JoinType::kLeft || full;
  // Pairs that cannot emit anything skip all I/O: without probe rows only
  // FULL OUTER produces output (the unmatched-build tail); without build
  // rows only the null-extending join types do.
  if (!probe_run && !(full && build_run)) return Status::OK();
  if (!build_run && !(anti || left_outer)) return Status::OK();

  const bool may_recurse =
      depth < (ctx_->config ? ctx_->config->spill_max_recursion : 4);

  // Load the build partition under the reservation.
  build_ = RowBatch(g.build_schema);
  grace_build_seqs_.clear();
  bool over_budget = false;
  uint64_t loaded_bytes = 0;
  if (build_run) {
    SpillBatchReader reader(ctx_, *build_run);
    RowBatch chunk;
    std::vector<uint64_t> seqs;
    for (;;) {
      HIVE_RETURN_IF_ERROR(ctx_->CheckInterrupted());
      HIVE_ASSIGN_OR_RETURN(bool more, reader.NextBatch(&chunk, &seqs));
      if (!more) break;
      build_.AppendSelected(chunk);
      grace_build_seqs_.insert(grace_build_seqs_.end(), seqs.begin(), seqs.end());
      loaded_bytes += chunk.ByteSize();
      if (!reservation_.GrowTo(
              static_cast<int64_t>(loaded_bytes) +
              static_cast<int64_t>(grace_build_seqs_.size()) * 24)) {
        CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
        // Past the recursion bound (duplicate-heavy keys cannot split
        // further), finish loading best-effort instead of failing.
        if (may_recurse) {
          over_budget = true;
          break;
        }
      }
    }
  }

  if (over_budget) {
    // Repartition both runs one hash byte deeper and recurse pairwise.
    build_ = RowBatch(g.build_schema);
    grace_build_seqs_.clear();
    reservation_.Release();
    auto repartition =
        [&](SpillBatchWriter* run, const std::vector<ExprPtr>& keys,
            const char* kind,
            std::vector<std::unique_ptr<SpillBatchWriter>>* subs) -> Status {
      SpillBatchReader reader(ctx_, *run);
      RowBatch chunk;
      std::vector<uint64_t> seqs;
      for (;;) {
        HIVE_RETURN_IF_ERROR(ctx_->CheckInterrupted());
        HIVE_ASSIGN_OR_RETURN(bool more, reader.NextBatch(&chunk, &seqs));
        if (!more) break;
        std::vector<ColumnVectorPtr> key_cols;
        for (const ExprPtr& k : keys) {
          HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*k, chunk));
          key_cols.push_back(std::move(col));
        }
        std::vector<uint64_t> hashes;
        std::vector<uint8_t> valid;
        HashKeyColumns(key_cols, chunk.num_rows(), &hashes, &valid);
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          uint32_t p = SpillPartitionOf(hashes[r], depth + 1, g.parts);
          std::unique_ptr<SpillBatchWriter>& w = (*subs)[p];
          if (!w) {
            w = std::make_unique<SpillBatchWriter>(
                ctx_,
                g.prefix + ".s" + std::to_string(g.stream_counter++) + kind,
                run->schema(), true);
            CountSpillMetric(ctx_, obs::metric::kSpillPartitions, 1);
            ++g.partitions_spawned;
          }
          HIVE_RETURN_IF_ERROR(w->AppendBatchRow(chunk, r, seqs[r]));
        }
      }
      for (std::unique_ptr<SpillBatchWriter>& w : *subs) {
        if (!w) continue;
        HIVE_RETURN_IF_ERROR(w->Finish());
        g.bytes += w->bytes_written();
      }
      return Status::OK();
    };
    std::vector<std::unique_ptr<SpillBatchWriter>> sub_build(
        static_cast<size_t>(g.parts));
    std::vector<std::unique_ptr<SpillBatchWriter>> sub_probe(
        static_cast<size_t>(g.parts));
    HIVE_RETURN_IF_ERROR(repartition(build_run, right_keys_, ".b", &sub_build));
    if (probe_run)
      HIVE_RETURN_IF_ERROR(repartition(probe_run, left_keys_, ".p", &sub_probe));
    for (int p = 0; p < g.parts; ++p)
      HIVE_RETURN_IF_ERROR(
          JoinPartitionPair(depth + 1, sub_build[static_cast<size_t>(p)].get(),
                            sub_probe[static_cast<size_t>(p)].get()));
    return Status::OK();
  }

  HIVE_RETURN_IF_ERROR(RebuildTableOverBuild());

  std::unique_ptr<SpillBatchWriter> out_run;
  if (probe_run) {
    SpillBatchReader reader(ctx_, *probe_run);
    RowBatch chunk;
    std::vector<uint64_t> seqs;
    std::vector<uint64_t> out_seqs;
    for (;;) {
      HIVE_RETURN_IF_ERROR(ctx_->CheckInterrupted());
      HIVE_ASSIGN_OR_RETURN(bool more, reader.NextBatch(&chunk, &seqs));
      if (!more) break;
      bool emitted = false;
      out_seqs.clear();
      HIVE_ASSIGN_OR_RETURN(RowBatch out,
                            ProbeBatch(chunk, &emitted, &seqs, &out_seqs));
      for (size_t r = 0; r < out.num_rows(); ++r) {
        if (!out_run)
          out_run = std::make_unique<SpillBatchWriter>(
              ctx_, g.prefix + ".out" + std::to_string(g.stream_counter++),
              *out_schema_, true);
        HIVE_RETURN_IF_ERROR(out_run->AppendBatchRow(out, r, out_seqs[r]));
      }
    }
  }
  if (out_run) {
    HIVE_RETURN_IF_ERROR(out_run->Finish());
    g.bytes += out_run->bytes_written();
    g.output_runs.push_back(std::move(out_run));
  }

  if (full && build_.num_rows() > 0) {
    // Unmatched build rows, tagged with their *global* build sequence so
    // the tail phase merges into one build-order stream across partitions.
    std::vector<int32_t> unmatched;
    HIVE_ASSIGN_OR_RETURN(RowBatch tail, EmitUnmatchedRight(&unmatched));
    if (tail.num_rows() > 0) {
      auto tail_run = std::make_unique<SpillBatchWriter>(
          ctx_, g.prefix + ".tail" + std::to_string(g.stream_counter++),
          *out_schema_, true);
      for (size_t r = 0; r < unmatched.size(); ++r)
        HIVE_RETURN_IF_ERROR(tail_run->AppendBatchRow(
            tail, r, grace_build_seqs_[static_cast<size_t>(unmatched[r])]));
      HIVE_RETURN_IF_ERROR(tail_run->Finish());
      g.bytes += tail_run->bytes_written();
      g.tail_runs.push_back(std::move(tail_run));
    }
  }

  // Drop pair-local state before the next pair.
  build_ = RowBatch(g.build_schema);
  grace_build_seqs_.clear();
  build_key_cols_.clear();
  matched_.reset();
  reservation_.Release();
  return Status::OK();
}

Result<RowBatch> HashJoinCore::GraceNextOutput(bool* done) {
  *done = false;
  GraceState& g = *grace_;
  const size_t limit =
      ctx_->config ? static_cast<size_t>(ctx_->config->vector_batch_size) : 1024;
  for (;;) {
    HIVE_RETURN_IF_ERROR(ctx_->CheckInterrupted());
    if (!g.merge_armed) {
      g.merge_armed = true;
      HIVE_RETURN_IF_ERROR(g.Arm(ctx_, g.output_runs));
      if (!g.cursors.empty())
        CountSpillMetric(ctx_, obs::metric::kSpillMergePasses, 1);
    }
    HIVE_ASSIGN_OR_RETURN(RowBatch out, g.MergeStep(*out_schema_, limit));
    if (out.num_rows() > 0) return out;
    if (!g.tail_phase) {
      g.tail_phase = true;
      HIVE_RETURN_IF_ERROR(g.Arm(ctx_, g.tail_runs));
      if (!g.cursors.empty())
        CountSpillMetric(ctx_, obs::metric::kSpillMergePasses, 1);
      continue;
    }
    *done = true;
    return RowBatch(*out_schema_);
  }
}

bool HashJoinCore::KeysEqual(const std::vector<ColumnVectorPtr>& probe_cols,
                             int32_t probe_row, int32_t build_row) const {
  for (size_t k = 0; k < key_cmp_.size(); ++k) {
    const ColumnVector& p = *probe_cols[k];
    const ColumnVector& b = *build_key_cols_[k];
    size_t pr = static_cast<size_t>(probe_row), br = static_cast<size_t>(build_row);
    switch (key_cmp_[k]) {
      case KeyCmp::kI64:
        if (p.GetI64(pr) != b.GetI64(br)) return false;
        break;
      case KeyCmp::kF64:
        if (p.GetF64(pr) != b.GetF64(br)) return false;
        break;
      case KeyCmp::kStr:
        if (p.GetStr(pr) != b.GetStr(br)) return false;
        break;
      case KeyCmp::kBoxed:
        if (Value::Compare(p.GetValue(pr), b.GetValue(br)) != 0) return false;
        break;
    }
  }
  return true;
}

Result<RowBatch> HashJoinCore::ProbeBatch(const RowBatch& batch, bool* emitted,
                                          const std::vector<uint64_t>* in_seqs,
                                          std::vector<uint64_t>* out_seqs) {
  *emitted = false;
  const bool semi = join_type_ == TableRef::JoinType::kSemi;
  const bool anti = join_type_ == TableRef::JoinType::kAnti;
  const bool left_outer = join_type_ == TableRef::JoinType::kLeft ||
                          join_type_ == TableRef::JoinType::kFull;

  // Vectorized probe-key evaluation + hashing over the batch's physical
  // rows (selection applied below, per the vector_eval contract).
  std::vector<ColumnVectorPtr> probe_cols;
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> valid;
  if (!left_keys_.empty()) {
    for (const ExprPtr& k : left_keys_) {
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*k, batch));
      probe_cols.push_back(std::move(col));
    }
    HashKeyColumns(probe_cols, batch.num_rows(), &hashes, &valid);
  }

  // Phase 1 matches rows and records each output row as a (probe row, build
  // row) pair, build row -1 meaning null extension; phase 2 fills every
  // output column with one gather. Semi and anti joins output probe columns
  // only.
  std::vector<int32_t> left_rows, right_rows;
  left_rows.reserve(batch.SelectedSize());
  auto emit = [&](int32_t left_row, int32_t right_row) {
    if (out_seqs) out_seqs->push_back(in_seqs ? (*in_seqs)[static_cast<size_t>(left_row)] : 0);
    left_rows.push_back(left_row);
    if (!semi && !anti) right_rows.push_back(right_row);
  };

  int64_t hits = 0, misses = 0;
  // Decides probe row `src` from its candidates in build order; those with
  // pass[k] == 0 failed the residual (a null `pass`: there is none). Forced
  // inline: without a residual it runs once per probe row, and GCC 12 keeps
  // it out of line, which slows a probe-heavy LEFT join by ~8%.
  auto decide = [&](int32_t src, const int32_t* candidate, const uint8_t* pass,
                    size_t n) __attribute__((always_inline)) {
    bool matched = false;
    for (size_t k = 0; k < n; ++k) {
      if (pass && !pass[k]) continue;
      matched = true;
      matched_[static_cast<size_t>(candidate[k])].store(1, std::memory_order_relaxed);
      if (semi || anti) break;
      emit(src, candidate[k]);
    }
    if (matched) ++hits; else ++misses;
    if (semi && matched) emit(src, -1);
    if (anti && !matched) emit(src, -1);
    if (left_outer && !matched) emit(src, -1);
  };

  // With a residual, probe rows wait in a group: group row g is probe row
  // row_src[g], whose candidates are cand[row_begin[g], row_end[g]). An
  // inner or outer group flushes once its candidates fill a chunk of
  // exec.vector.batch.size pairs, the most one residual evaluation covers.
  // A semi or anti group is the whole batch: rows with equal keys have the
  // same candidates and share one stored list (looked up by its first
  // candidate), so the lists hold one entry per build row at most.
  const size_t chunk =
      ctx_->config ? static_cast<size_t>(std::max(1, ctx_->config->vector_batch_size)) : 1024;
  std::optional<PairFilter> filter;
  if (residual_) filter.emplace(residual_, batch, left_width_, build_, chunk);
  std::vector<int32_t> cand, row_src, left, right;
  std::vector<size_t> row_begin, row_end;
  std::unordered_map<int32_t, size_t> list_at;
  std::vector<uint8_t> pass;
  auto flush = [&]() -> Status {
    const size_t rows = row_src.size();
    if (semi || anti) {
      // A semi or anti probe row stops at its first match, so the residual
      // runs in rounds: round k pairs every row that has not matched yet
      // with its k-th candidate.
      std::vector<int32_t> first_match(rows, -1);
      std::vector<size_t> open;
      for (size_t g = 0; g < rows; ++g)
        if (row_begin[g] < row_end[g]) open.push_back(g);
      for (size_t k = 0; !open.empty(); ++k) {
        left.clear();
        right.clear();
        for (size_t g : open) {
          left.push_back(row_src[g]);
          right.push_back(cand[row_begin[g] + k]);
        }
        pass.assign(open.size(), 0);
        HIVE_RETURN_IF_ERROR(filter->Filter(left.data(), right.data(), open.size(), pass.data()));
        size_t still_open = 0;
        for (size_t j = 0; j < open.size(); ++j) {
          const size_t g = open[j];
          if (pass[j]) {
            first_match[g] = right[j];
          } else if (row_begin[g] + k + 1 < row_end[g]) {
            open[still_open++] = g;
          }
        }
        open.resize(still_open);
      }
      // Each row is decided on its first match alone.
      for (size_t g = 0; g < rows; ++g)
        decide(row_src[g], &first_match[g], nullptr, first_match[g] >= 0 ? 1 : 0);
    } else {
      left.clear();
      for (size_t g = 0; g < rows; ++g)
        left.insert(left.end(), row_end[g] - row_begin[g], row_src[g]);
      pass.assign(cand.size(), 0);
      HIVE_RETURN_IF_ERROR(filter->Filter(left.data(), cand.data(), cand.size(), pass.data()));
      for (size_t g = 0; g < rows; ++g)
        decide(row_src[g], cand.data() + row_begin[g], pass.data() + row_begin[g],
               row_end[g] - row_begin[g]);
    }
    cand.clear();
    row_src.clear();
    row_begin.clear();
    row_end.clear();
    return Status::OK();
  };

  std::vector<int32_t> candidates;
  for (size_t i = 0; i < batch.SelectedSize(); ++i) {
    int32_t src = batch.SelectedRow(i);
    candidates.clear();
    if (left_keys_.empty()) {
      // No equi keys: every build row is a candidate (nested loop / cross).
      candidates.reserve(build_.num_rows());
      for (size_t r = 0; r < build_.num_rows(); ++r)
        candidates.push_back(static_cast<int32_t>(r));
    } else if (valid[static_cast<size_t>(src)]) {  // null keys never match
      if (perfect_.engaged()) {
        int32_t r = perfect_.Lookup(probe_cols[0]->GetI64(static_cast<size_t>(src)));
        if (r >= 0) candidates.push_back(r);
      } else {
        for (FlatJoinTable::Iterator it =
                 table_.Probe(hashes[static_cast<size_t>(src)]);
             it.valid(); it.Advance()) {
          // Chains filter by exact hash; verify keys (hash collisions).
          if (KeysEqual(probe_cols, src, it.row())) candidates.push_back(it.row());
        }
        // Chains are newest-first; emit matches in build-row order.
        std::reverse(candidates.begin(), candidates.end());
      }
    }
    if (!residual_) {
      decide(src, candidates.data(), nullptr, candidates.size());
      continue;
    }
    size_t begin = cand.size();
    if (semi || anti) {
      auto [at, fresh] = list_at.try_emplace(candidates.empty() ? -1 : candidates[0], begin);
      if (!fresh && at->second + candidates.size() <= cand.size() &&
          std::equal(candidates.begin(), candidates.end(), cand.begin() + at->second))
        begin = at->second;
    }
    if (begin == cand.size()) cand.insert(cand.end(), candidates.begin(), candidates.end());
    row_src.push_back(src);
    row_begin.push_back(begin);
    row_end.push_back(begin + candidates.size());
    if (!semi && !anti && cand.size() >= chunk) HIVE_RETURN_IF_ERROR(flush());
  }
  if (!row_src.empty()) HIVE_RETURN_IF_ERROR(flush());
  probe_hits_.fetch_add(hits, std::memory_order_relaxed);
  probe_misses_.fetch_add(misses, std::memory_order_relaxed);
  if (metric_probe_hits_) metric_probe_hits_->Add(hits);
  if (metric_probe_misses_) metric_probe_misses_->Add(misses);

  RowBatch out(*out_schema_);
  const size_t out_rows = left_rows.size();
  for (size_t c = 0; c < left_width_; ++c)
    out.column(c)->AppendGather(*batch.column(c), left_rows.data(), out_rows);
  if (!semi && !anti) {
    for (size_t c = 0; c < build_.num_columns(); ++c)
      out.column(left_width_ + c)
          ->AppendGather(*build_.column(c), right_rows.data(), out_rows);
  }
  out.set_num_rows(out_rows);
  *emitted = out_rows > 0;
  return out;
}

Result<RowBatch> HashJoinCore::EmitUnmatchedRight(std::vector<int32_t>* build_rows) {
  std::vector<int32_t> unmatched;
  for (size_t r = 0; r < build_.num_rows(); ++r)
    if (!matched_[r].load(std::memory_order_relaxed))
      unmatched.push_back(static_cast<int32_t>(r));
  RowBatch out(*out_schema_);
  // A fresh column resized to n holds n NULLs, exactly as n AppendNull calls.
  for (size_t c = 0; c < left_width_; ++c) out.column(c)->Resize(unmatched.size());
  for (size_t c = 0; c < build_.num_columns(); ++c)
    out.column(left_width_ + c)
        ->AppendGather(*build_.column(c), unmatched.data(), unmatched.size());
  out.set_num_rows(unmatched.size());
  if (build_rows) *build_rows = std::move(unmatched);
  return out;
}

void HashJoinCore::AnnotateProfile() {
  if (!profile_node_) return;
  std::string& d = profile_node_->detail;
  if (!d.empty()) d += ", ";
  d += "build_rows=" +
       std::to_string(grace_ ? grace_->build_seq : build_.num_rows());
  if (grace_) {
    d += " spill=grace partitions=" + std::to_string(grace_->partitions_spawned) +
         " spill_bytes=" + std::to_string(grace_->bytes) +
         " max_depth=" + std::to_string(grace_->max_depth);
  } else if (perfect_.engaged()) {
    d += " perfect_hash range=" + std::to_string(perfect_.range());
  } else if (table_.num_slots() > 0) {
    char load[32];
    std::snprintf(load, sizeof load, "%.2f", table_.load_factor());
    d += " slots=" + std::to_string(table_.num_slots()) + " load=" + load;
  }
  d += " probe_hits=" + std::to_string(probe_hits_.load(std::memory_order_relaxed)) +
       " probe_misses=" +
       std::to_string(probe_misses_.load(std::memory_order_relaxed));
}

// --- HashJoinOperator ---

HashJoinOperator::HashJoinOperator(ExecContext* ctx, OperatorPtr left,
                                   OperatorPtr right, TableRef::JoinType join_type,
                                   ExprPtr condition, Schema schema)
    : Operator(ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      schema_(std::move(schema)),
      core_(ctx, join_type, std::move(condition), &schema_),
      is_full_join_(join_type == TableRef::JoinType::kFull) {}

Status HashJoinOperator::Open() {
  HIVE_RETURN_IF_ERROR(right_->Open());
  HIVE_RETURN_IF_ERROR(core_.BindCondition(left_->schema()));
  HIVE_RETURN_IF_ERROR(core_.Build(right_.get()));
  // The probe subtree opens only once the build side finalized: a build
  // error or deadline kill returns above without ever touching it.
  return left_->Open();
}

Result<RowBatch> HashJoinOperator::Next(bool* done) {
  *done = false;
  if (core_.grace_active()) {
    // Grace mode: route the whole probe side into hash partitions (modeled
    // CPU charges once, inside GraceFinishProbe), join the partition pairs,
    // then stream the sequence-merged output.
    if (!exhausted_left_) {
      bool left_done = false;
      for (;;) {
        HIVE_RETURN_IF_ERROR(CheckCancelled());
        HIVE_ASSIGN_OR_RETURN(RowBatch batch, left_->Next(&left_done));
        if (left_done) break;
        HIVE_RETURN_IF_ERROR(core_.GraceAddProbeBatch(batch));
      }
      exhausted_left_ = true;
      HIVE_RETURN_IF_ERROR(core_.GraceFinishProbe());
    }
    return core_.GraceNextOutput(done);
  }
  for (;;) {
    HIVE_RETURN_IF_ERROR(CheckCancelled());
    if (!exhausted_left_) {
      bool left_done = false;
      HIVE_ASSIGN_OR_RETURN(RowBatch batch, left_->Next(&left_done));
      if (left_done) {
        exhausted_left_ = true;
        continue;
      }
      bool emitted = false;
      HIVE_ASSIGN_OR_RETURN(RowBatch out, core_.ProbeBatch(batch, &emitted));
      // Serial probe charges modeled CPU for every probed row (a parallel
      // probe charges only its slowest worker).
      if (ctx_->clock)
        ctx_->clock->Charge(static_cast<int64_t>(batch.SelectedSize()) *
                            core_.probe_ns_per_row() / 1000);
      if (emitted) return out;
      continue;
    }
    if (is_full_join_ && !emitted_unmatched_) {
      emitted_unmatched_ = true;
      HIVE_ASSIGN_OR_RETURN(RowBatch out, core_.EmitUnmatchedRight());
      if (out.num_rows() > 0) return out;
    }
    *done = true;
    return RowBatch();
  }
}

Status HashJoinOperator::Close() {
  core_.AnnotateProfile();
  HIVE_RETURN_IF_ERROR(left_->Close());
  return right_->Close();
}

}  // namespace hive
