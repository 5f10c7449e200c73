#include <algorithm>

#include "common/hash.h"
#include "common/serde.h"
#include "exec/operators.h"
#include "exec/vector_eval.h"
#include "optimizer/expr_eval.h"
#include "storage/cof.h"
#include "obs/metric_names.h"

namespace hive {

namespace {

/// HashKeys seed (= the combined hash of a zero-column key set).
constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

/// Approximate heap overhead of one unordered_set node (hash + next pointer
/// + allocator header).
constexpr uint64_t kDistinctNodeBytes = 32;

}  // namespace

// --- GroupedAggState ---

GroupedAggState::GroupedAggState(const std::vector<ExprPtr>* keys,
                                 const std::vector<AggCall>* aggs)
    : keys_(keys), aggs_(aggs) {
  index_.Reset(0);
}

uint64_t GroupedAggState::ValueBytes(const Value& v) {
  uint64_t bytes = sizeof(Value);
  if (v.kind() == TypeKind::kString) bytes += v.str().capacity();
  return bytes;
}

uint64_t GroupedAggState::GroupPayloadBytes(const Group& g) {
  uint64_t bytes = g.keys.capacity() * sizeof(Value) +
                   g.accs.capacity() * sizeof(Accumulator);
  for (const Value& k : g.keys)
    if (k.kind() == TypeKind::kString) bytes += k.str().capacity();
  for (const Accumulator& acc : g.accs)
    for (const Value& v : acc.distinct) bytes += kDistinctNodeBytes + ValueBytes(v);
  return bytes;
}

uint64_t GroupedAggState::approx_bytes() const {
  return index_.ApproxBytes() + groups_.capacity() * sizeof(Group) +
         payload_bytes_;
}

uint32_t GroupedAggState::CreateGroup(uint64_t hash, std::vector<Value>&& keys,
                                      uint64_t seq) {
  Group g;
  g.keys = std::move(keys);
  g.accs.resize(aggs_->size());
  g.first_seq = seq;
  g.hash = hash;
  uint32_t ordinal = static_cast<uint32_t>(groups_.size());
  payload_bytes_ += GroupPayloadBytes(g);
  groups_.push_back(std::move(g));
  index_.Insert(hash, static_cast<int32_t>(ordinal));
  return ordinal;
}

bool GroupedAggState::GroupMatchesRow(const Group& g,
                                      const std::vector<ColumnVectorPtr>& key_cols,
                                      int32_t row) const {
  for (size_t k = 0; k < key_cols.size(); ++k)
    if (Value::Compare(g.keys[k],
                       key_cols[k]->GetValue(static_cast<size_t>(row))) != 0)
      return false;
  return true;
}

uint32_t GroupedAggState::FindOrCreate(uint64_t hash, std::vector<Value>&& keys,
                                       uint64_t seq, bool* created) {
  *created = false;
  for (int32_t e = index_.Find(hash); e != FlatHashIndex::kInvalid;
       e = index_.NextOf(e)) {
    const Group& g = groups_[static_cast<size_t>(index_.PayloadOf(e))];
    bool equal = g.keys.size() == keys.size();
    for (size_t k = 0; k < keys.size() && equal; ++k)
      if (Value::Compare(g.keys[k], keys[k]) != 0) equal = false;
    if (equal) return static_cast<uint32_t>(index_.PayloadOf(e));
  }
  *created = true;
  return CreateGroup(hash, std::move(keys), seq);
}

Status GroupedAggState::Consume(const RowBatch& batch, uint64_t seq_base) {
  // Evaluate key and argument vectors once per batch, then hash the key
  // columns column-wise — no per-row boxed key vector on the lookup path
  // (keys box once, when a group is first created).
  std::vector<ColumnVectorPtr> key_cols;
  for (const ExprPtr& k : *keys_) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*k, batch));
    key_cols.push_back(std::move(col));
  }
  std::vector<uint64_t> hashes;
  HashKeyColumns(key_cols, batch.num_rows(), &hashes, nullptr);
  std::vector<ColumnVectorPtr> arg_cols(aggs_->size());
  for (size_t a = 0; a < aggs_->size(); ++a) {
    if ((*aggs_)[a].arg) {
      HIVE_ASSIGN_OR_RETURN(arg_cols[a], EvalVector(*(*aggs_)[a].arg, batch));
    }
  }
  for (size_t i = 0; i < batch.SelectedSize(); ++i) {
    int32_t row = batch.SelectedRow(i);
    uint64_t h = hashes[static_cast<size_t>(row)];

    // Chain walk over equal-hash groups; key comparison resolves collisions.
    uint32_t ordinal = UINT32_MAX;
    for (int32_t e = index_.Find(h); e != FlatHashIndex::kInvalid;
         e = index_.NextOf(e)) {
      uint32_t cand = static_cast<uint32_t>(index_.PayloadOf(e));
      if (GroupMatchesRow(groups_[cand], key_cols, row)) {
        ordinal = cand;
        break;
      }
    }
    if (ordinal == UINT32_MAX) {
      std::vector<Value> keys;
      keys.reserve(keys_->size());
      for (const auto& col : key_cols)
        keys.push_back(col->GetValue(static_cast<size_t>(row)));
      ordinal = CreateGroup(h, std::move(keys), seq_base + i);
    }
    Group& group = groups_[ordinal];
    for (size_t a = 0; a < aggs_->size(); ++a) {
      const AggCall& agg = (*aggs_)[a];
      Accumulator& acc = group.accs[a];
      Value v = arg_cols[a] ? arg_cols[a]->GetValue(static_cast<size_t>(row))
                            : Value::Null();
      if (agg.arg && v.is_null()) continue;  // aggregates skip nulls
      if (agg.distinct) {
        auto inserted = acc.distinct.insert(v);
        if (inserted.second)
          payload_bytes_ += kDistinctNodeBytes + ValueBytes(*inserted.first);
        continue;
      }
      acc.any = true;
      ++acc.count;
      if (agg.func == "SUM" || agg.func == "AVG") {
        if (agg.result_type.kind == TypeKind::kDouble || agg.func == "AVG") {
          acc.sum_f64 += v.AsDouble();
        }
        if (agg.result_type.kind == TypeKind::kDecimal) {
          auto cast = v.CastTo(agg.result_type);
          acc.sum_i64 += cast.ok() && !cast->is_null() ? cast->i64() : 0;
        } else if (agg.result_type.kind == TypeKind::kBigint) {
          acc.sum_i64 += v.AsInt64();
        }
      } else if (agg.func == "MIN") {
        if (acc.min.is_null() || Value::Compare(v, acc.min) < 0) acc.min = v;
      } else if (agg.func == "MAX") {
        if (acc.max.is_null() || Value::Compare(v, acc.max) > 0) acc.max = v;
      }
    }
  }
  return Status::OK();
}

void GroupedAggState::MergeAccumulator(Accumulator* into, Accumulator&& from) {
  into->count += from.count;
  into->any = into->any || from.any;
  into->sum_i64 += from.sum_i64;
  into->sum_f64 += from.sum_f64;
  if (!from.min.is_null() &&
      (into->min.is_null() || Value::Compare(from.min, into->min) < 0))
    into->min = std::move(from.min);
  if (!from.max.is_null() &&
      (into->max.is_null() || Value::Compare(from.max, into->max) > 0))
    into->max = std::move(from.max);
  // Move nodes across; only elements new to `into` count toward payload.
  for (auto it = from.distinct.begin(); it != from.distinct.end();) {
    auto node = from.distinct.extract(it++);
    uint64_t bytes = kDistinctNodeBytes + ValueBytes(node.value());
    auto res = into->distinct.insert(std::move(node));
    if (res.inserted) payload_bytes_ += bytes;
  }
}

void GroupedAggState::Merge(GroupedAggState&& other) {
  for (Group& g : other.groups_) {
    bool created = false;
    std::vector<Value> keys = g.keys;
    uint32_t ordinal = FindOrCreate(g.hash, std::move(keys), g.first_seq, &created);
    Group& mine = groups_[ordinal];
    if (created) {
      // Swap in the adopted accumulators; CreateGroup counted empty ones.
      payload_bytes_ -= mine.accs.capacity() * sizeof(Accumulator);
      mine.accs = std::move(g.accs);
      payload_bytes_ += mine.accs.capacity() * sizeof(Accumulator);
      for (const Accumulator& acc : mine.accs)
        for (const Value& v : acc.distinct)
          payload_bytes_ += kDistinctNodeBytes + ValueBytes(v);
      continue;
    }
    mine.first_seq = std::min(mine.first_seq, g.first_seq);
    for (size_t a = 0; a < mine.accs.size(); ++a)
      MergeAccumulator(&mine.accs[a], std::move(g.accs[a]));
  }
}

std::string GroupedAggState::SerializeGroup(size_t i) const {
  const Group& g = groups_[i];
  std::string out;
  serde::PutU64(&out, g.hash);
  serde::PutU64(&out, g.first_seq);
  serde::PutU32(&out, static_cast<uint32_t>(g.keys.size()));
  for (const Value& k : g.keys) SerializeValue(&out, k);
  serde::PutU32(&out, static_cast<uint32_t>(g.accs.size()));
  for (const Accumulator& acc : g.accs) {
    serde::PutI64(&out, acc.count);
    out.push_back(acc.any ? 1 : 0);
    serde::PutI64(&out, acc.sum_i64);
    serde::PutF64(&out, acc.sum_f64);
    SerializeValue(&out, acc.min);
    SerializeValue(&out, acc.max);
    serde::PutU32(&out, static_cast<uint32_t>(acc.distinct.size()));
    // The hash set iterates in insertion-history order; sort so the record
    // bytes are deterministic however the values arrived.
    std::vector<const Value*> sorted;
    sorted.reserve(acc.distinct.size());
    for (const Value& v : acc.distinct) sorted.push_back(&v);
    std::sort(sorted.begin(), sorted.end(), [](const Value* a, const Value* b) {
      return Value::Compare(*a, *b) < 0;
    });
    for (const Value* v : sorted) SerializeValue(&out, *v);
  }
  return out;
}

Status GroupedAggState::AbsorbSerializedGroup(const std::string& record) {
  size_t offset = 0;
  uint64_t hash = 0, first_seq = 0;
  uint32_t nkeys = 0, naggs = 0;
  if (!serde::GetU64(record, &offset, &hash) ||
      !serde::GetU64(record, &offset, &first_seq) ||
      !serde::GetU32(record, &offset, &nkeys))
    return Status::Corruption("agg spill group header").MarkTransient();
  std::vector<Value> keys;
  keys.reserve(nkeys);
  for (uint32_t k = 0; k < nkeys; ++k) {
    auto v = DeserializeValue(record, &offset);
    if (!v.ok()) return Status::Corruption("agg spill group key").MarkTransient();
    keys.push_back(std::move(*v));
  }
  if (!serde::GetU32(record, &offset, &naggs) || naggs != aggs_->size())
    return Status::Corruption("agg spill accumulator count").MarkTransient();
  bool created = false;
  uint32_t ordinal = FindOrCreate(hash, std::move(keys), first_seq, &created);
  Group& mine = groups_[ordinal];
  if (!created) mine.first_seq = std::min(mine.first_seq, first_seq);
  for (uint32_t a = 0; a < naggs; ++a) {
    Accumulator acc;
    uint32_t ndistinct = 0;
    if (!serde::GetI64(record, &offset, &acc.count) || offset >= record.size())
      return Status::Corruption("agg spill accumulator").MarkTransient();
    acc.any = record[offset++] != 0;
    if (!serde::GetI64(record, &offset, &acc.sum_i64) ||
        !serde::GetF64(record, &offset, &acc.sum_f64))
      return Status::Corruption("agg spill accumulator").MarkTransient();
    auto mn = DeserializeValue(record, &offset);
    auto mx = DeserializeValue(record, &offset);
    if (!mn.ok() || !mx.ok() || !serde::GetU32(record, &offset, &ndistinct))
      return Status::Corruption("agg spill accumulator").MarkTransient();
    acc.min = std::move(*mn);
    acc.max = std::move(*mx);
    for (uint32_t d = 0; d < ndistinct; ++d) {
      auto v = DeserializeValue(record, &offset);
      if (!v.ok())
        return Status::Corruption("agg spill distinct value").MarkTransient();
      acc.distinct.insert(std::move(*v));
    }
    MergeAccumulator(&mine.accs[a], std::move(acc));
  }
  return Status::OK();
}

void GroupedAggState::Reset() {
  groups_.clear();
  groups_.shrink_to_fit();
  index_.Reset(0);
  ordered_.clear();
  payload_bytes_ = 0;
}

void GroupedAggState::Seal() {
  // Global aggregates produce one row even with empty input.
  if (keys_->empty() && groups_.empty())
    CreateGroup(kHashSeed, std::vector<Value>(), 0);
  ordered_.clear();
  ordered_.reserve(groups_.size());
  for (uint32_t i = 0; i < groups_.size(); ++i) ordered_.push_back(i);
  // First-seen input order: deterministic however rows were partitioned.
  std::sort(ordered_.begin(), ordered_.end(), [this](uint32_t a, uint32_t b) {
    return groups_[a].first_seq < groups_[b].first_seq;
  });
}

Value GroupedAggState::Finalize(const AggCall& agg, const Accumulator& acc) const {
  if (agg.distinct) {
    if (agg.func == "COUNT") return Value::Bigint(static_cast<int64_t>(acc.distinct.size()));
    // SUM(DISTINCT) etc. The hash set iterates in an order that depends on
    // insertion history, so any order-sensitive fold sorts first.
    if (agg.func == "SUM") {
      if (agg.result_type.kind == TypeKind::kDouble) {
        // FP addition is not associative: sum in sorted order so the result
        // is identical at any worker count / merge order.
        std::vector<const Value*> sorted;
        sorted.reserve(acc.distinct.size());
        for (const Value& v : acc.distinct) sorted.push_back(&v);
        std::sort(sorted.begin(), sorted.end(), [](const Value* a, const Value* b) {
          return Value::Compare(*a, *b) < 0;
        });
        double total = 0;
        for (const Value* v : sorted) total += v->AsDouble();
        return Value::Double(total);
      }
      int64_t total = 0;  // integer addition commutes; no sort needed
      bool decimal = agg.result_type.kind == TypeKind::kDecimal;
      for (const Value& v : acc.distinct) {
        if (decimal) {
          auto cast = v.CastTo(agg.result_type);
          total += cast.ok() && !cast->is_null() ? cast->i64() : 0;
        } else {
          total += v.AsInt64();
        }
      }
      return decimal ? Value::Decimal(total, agg.result_type.scale) : Value::Bigint(total);
    }
    if (acc.distinct.empty()) return Value::Null();
    if (agg.func == "MIN" || agg.func == "MAX") {
      const Value* best = nullptr;
      bool want_min = agg.func == "MIN";
      for (const Value& v : acc.distinct) {
        if (!best || (want_min ? Value::Compare(v, *best) < 0
                               : Value::Compare(v, *best) > 0))
          best = &v;
      }
      return *best;
    }
    return Value::Null();
  }
  if (agg.func == "COUNT") return Value::Bigint(acc.count);
  if (!acc.any) return Value::Null();
  if (agg.func == "SUM") {
    switch (agg.result_type.kind) {
      case TypeKind::kDouble: return Value::Double(acc.sum_f64);
      case TypeKind::kDecimal: return Value::Decimal(acc.sum_i64, agg.result_type.scale);
      default: return Value::Bigint(acc.sum_i64);
    }
  }
  if (agg.func == "AVG")
    return Value::Double(acc.sum_f64 / static_cast<double>(acc.count));
  if (agg.func == "MIN") return acc.min;
  if (agg.func == "MAX") return acc.max;
  return Value::Null();
}

Result<RowBatch> GroupedAggState::Emit(size_t begin, size_t end,
                                       const Schema& schema) const {
  RowBatch out(schema);
  for (size_t i = begin; i < end && i < ordered_.size(); ++i) {
    const Group& g = groups_[ordered_[i]];
    for (size_t k = 0; k < keys_->size(); ++k) out.column(k)->AppendValue(g.keys[k]);
    for (size_t a = 0; a < aggs_->size(); ++a)
      out.column(keys_->size() + a)->AppendValue(Finalize((*aggs_)[a], g.accs[a]));
  }
  out.set_num_rows(out.num_columns() ? out.column(0)->size() : 0);
  return out;
}

// --- AggSpillSet ---

AggSpillSet::AggSpillSet(ExecContext* ctx, std::string prefix,
                         const std::vector<ExprPtr>* keys,
                         const std::vector<AggCall>* aggs, int partitions,
                         int workers)
    : ctx_(ctx),
      prefix_(std::move(prefix)),
      keys_(keys),
      aggs_(aggs),
      partitions_(std::max(1, partitions)),
      writers_(static_cast<size_t>(std::max(1, workers))) {
  for (auto& streams : writers_)
    streams.resize(static_cast<size_t>(partitions_));
}

Status AggSpillSet::Flush(int worker, GroupedAggState* state) {
  spilled_.store(true, std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::unique_ptr<SpillChunkWriter>>& streams =
      writers_[static_cast<size_t>(worker)];
  const size_t n = state->num_raw_groups();
  for (size_t i = 0; i < n; ++i) {
    uint32_t p = SpillPartitionOf(state->group_hash(i), 0, partitions_);
    std::unique_ptr<SpillChunkWriter>& w = streams[p];
    if (!w) {
      w = std::make_unique<SpillChunkWriter>(
          ctx_, prefix_ + ".w" + std::to_string(worker) + ".p" +
                    std::to_string(p));
      CountSpillMetric(ctx_, obs::metric::kSpillPartitions, 1);
    }
    HIVE_RETURN_IF_ERROR(w->AppendRecord(state->SerializeGroup(i)));
  }
  state->Reset();
  return Status::OK();
}

Status AggSpillSet::RefillCursor(Cursor* c) {
  c->pos = 0;
  HIVE_ASSIGN_OR_RETURN(bool more, c->reader->NextBatch(&c->batch, &c->seqs));
  if (!more) c->done = true;
  return Status::OK();
}

Status AggSpillSet::PrepareEmit(GroupedAggState* remainder, const Schema& schema) {
  out_schema_ = schema;
  for (auto& streams : writers_)
    for (std::unique_ptr<SpillChunkWriter>& w : streams)
      if (w) HIVE_RETURN_IF_ERROR(w->Finish());
  const size_t batch_rows =
      ctx_->config ? static_cast<size_t>(ctx_->config->vector_batch_size) : 1024;
  // Rebuild one hash partition at a time: a group's records always land in
  // one partition, so the transient footprint is ~1/partitions of the full
  // state. Absorption order is fixed — remainder, then each worker's chunks
  // in worker order — so the rebuild is deterministic.
  for (int p = 0; p < partitions_; ++p) {
    GroupedAggState part(keys_, aggs_);
    if (remainder) {
      const size_t n = remainder->num_raw_groups();
      for (size_t i = 0; i < n; ++i) {
        if (SpillPartitionOf(remainder->group_hash(i), 0, partitions_) !=
            static_cast<uint32_t>(p))
          continue;
        HIVE_RETURN_IF_ERROR(
            part.AbsorbSerializedGroup(remainder->SerializeGroup(i)));
      }
    }
    for (auto& streams : writers_) {
      SpillChunkWriter* w = streams[static_cast<size_t>(p)].get();
      if (!w) continue;
      SpillChunkReader reader(ctx_, w->prefix(), w->num_chunks());
      std::string record;
      for (;;) {
        HIVE_RETURN_IF_ERROR(ctx_->CheckInterrupted());
        HIVE_ASSIGN_OR_RETURN(bool more, reader.NextRecord(&record));
        if (!more) break;
        HIVE_RETURN_IF_ERROR(part.AbsorbSerializedGroup(record));
      }
    }
    if (part.num_raw_groups() == 0) continue;
    // keys_ is never empty here (scalar aggregates fail instead of spilling),
    // so Seal adds no phantom global group to non-originating partitions.
    part.Seal();
    auto run = std::make_unique<SpillBatchWriter>(
        ctx_, prefix_ + ".run" + std::to_string(p), schema, true);
    const size_t groups = part.num_groups();
    for (size_t begin = 0; begin < groups; begin += batch_rows) {
      size_t end = std::min(groups, begin + batch_rows);
      HIVE_ASSIGN_OR_RETURN(RowBatch out, part.Emit(begin, end, schema));
      for (size_t r = 0; r < out.num_rows(); ++r)
        HIVE_RETURN_IF_ERROR(
            run->AppendBatchRow(out, r, part.ordered_first_seq(begin + r)));
    }
    HIVE_RETURN_IF_ERROR(run->Finish());
    runs_.push_back(std::move(run));
  }
  cursors_.clear();
  for (std::unique_ptr<SpillBatchWriter>& run : runs_) {
    if (run->num_rows() == 0) continue;
    cursors_.emplace_back();
    Cursor& c = cursors_.back();
    c.batch = RowBatch(schema);
    c.reader = std::make_unique<SpillBatchReader>(ctx_, *run);
    HIVE_RETURN_IF_ERROR(RefillCursor(&c));
  }
  if (!cursors_.empty()) CountSpillMetric(ctx_, obs::metric::kSpillMergePasses, 1);
  return Status::OK();
}

Result<RowBatch> AggSpillSet::NextOutput(bool* done) {
  *done = false;
  const size_t limit =
      ctx_->config ? static_cast<size_t>(ctx_->config->vector_batch_size) : 1024;
  RowBatch out(out_schema_);
  size_t out_rows = 0;
  // K-way merge by first-seen sequence: each group lives in exactly one
  // partition run, and every run is ascending, so the merged stream is the
  // exact first-seen order the in-memory Seal produces.
  while (out_rows < limit) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors_) {
      if (c.done) continue;
      if (!best || c.seqs[c.pos] < best->seqs[best->pos]) best = &c;
    }
    if (!best) break;
    for (size_t col = 0; col < out.num_columns(); ++col)
      out.column(col)->AppendFrom(*best->batch.column(col), best->pos);
    ++out_rows;
    ++best->pos;
    if (best->pos >= best->batch.num_rows()) HIVE_RETURN_IF_ERROR(RefillCursor(best));
  }
  out.set_num_rows(out_rows);
  if (out_rows == 0) *done = true;
  return out;
}

uint64_t AggSpillSet::bytes_spilled() const {
  uint64_t total = 0;
  for (const auto& streams : writers_)
    for (const std::unique_ptr<SpillChunkWriter>& w : streams)
      if (w) total += w->bytes_written();
  for (const std::unique_ptr<SpillBatchWriter>& r : runs_)
    total += r->bytes_written();
  return total;
}

// --- HashAggregateOperator ---

HashAggregateOperator::HashAggregateOperator(ExecContext* ctx, OperatorPtr child,
                                             std::vector<ExprPtr> keys,
                                             std::vector<AggCall> aggs, Schema schema)
    : Operator(ctx),
      child_(std::move(child)),
      keys_(std::move(keys)),
      aggs_(std::move(aggs)),
      schema_(std::move(schema)),
      state_(&keys_, &aggs_) {}

Status HashAggregateOperator::Open() { return child_->Open(); }

Status HashAggregateOperator::Consume() {
  bool done = false;
  uint64_t seq = 0;
  reservation_.Attach(ctx_->query_memory);
  for (;;) {
    HIVE_RETURN_IF_ERROR(CheckCancelled());
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, child_->Next(&done));
    if (done) break;
    HIVE_RETURN_IF_ERROR(state_.Consume(batch, seq));
    seq += batch.SelectedSize();
    if (!reservation_.GrowTo(static_cast<int64_t>(state_.approx_bytes()))) {
      CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
      // Scalar aggregates (no keys) hold a single group; spilling cannot
      // shrink them.
      if (!ctx_->CanSpill() || keys_.empty())
        return BudgetExceededStatus(
            "hash aggregate", static_cast<int64_t>(state_.approx_bytes()), ctx_);
      if (!spill_)
        spill_ = std::make_unique<AggSpillSet>(
            ctx_, ctx_->spill_dir + "/a" + std::to_string(NextSpillStreamId()),
            &keys_, &aggs_, std::max(2, ctx_->config->spill_partitions),
            /*workers=*/1);
      HIVE_RETURN_IF_ERROR(spill_->Flush(0, &state_));
      reservation_.Release();
    }
  }
  if (spill_ && spill_->spilled()) {
    HIVE_RETURN_IF_ERROR(spill_->PrepareEmit(&state_, schema_));
    state_.Reset();
    reservation_.Release();
    HIVE_RETURN_IF_ERROR(ctx_->OnStageBoundary(spill_->bytes_spilled()));
  } else {
    state_.Seal();
    HIVE_RETURN_IF_ERROR(ctx_->OnStageBoundary(state_.approx_bytes()));
  }
  consumed_ = true;
  return Status::OK();
}

Result<RowBatch> HashAggregateOperator::Next(bool* done) {
  if (!consumed_) HIVE_RETURN_IF_ERROR(Consume());
  if (spill_ && spill_->spilled()) {
    return spill_->NextOutput(done);
  }
  size_t batch_size = static_cast<size_t>(ctx_->config->vector_batch_size);
  if (emit_index_ >= state_.num_groups()) {
    *done = true;
    return RowBatch();
  }
  *done = false;
  size_t end = std::min(state_.num_groups(), emit_index_ + batch_size);
  HIVE_ASSIGN_OR_RETURN(RowBatch out, state_.Emit(emit_index_, end, schema_));
  emit_index_ = end;
  return out;
}

Status HashAggregateOperator::Close() {
  if (profile_node_ && spill_ && spill_->spilled()) {
    std::string& d = profile_node_->detail;
    if (!d.empty()) d += ", ";
    d += "spill=agg flushes=" + std::to_string(spill_->flushes()) +
         " spill_bytes=" + std::to_string(spill_->bytes_spilled());
  }
  return child_->Close();
}

}  // namespace hive
