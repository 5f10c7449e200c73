#include <algorithm>
#include <numeric>

#include "common/hash.h"
#include "exec/operators.h"
#include "exec/spill.h"
#include "exec/vector_eval.h"
#include "optimizer/expr_eval.h"
#include "obs/metric_names.h"

namespace hive {

// --- Sort ---

SortOperator::SortOperator(ExecContext* ctx, OperatorPtr child,
                           std::vector<std::pair<ExprPtr, bool>> keys, int64_t fetch)
    : Operator(ctx), child_(std::move(child)), keys_(std::move(keys)), fetch_(fetch) {}

namespace {

/// Largest ORDER BY ... LIMIT a bounded heap answers without materializing
/// (boxed rows; beyond this the generic sort paths win).
constexpr int64_t kTopKMaxFetch = 65536;

}  // namespace

Result<RowBatch> SortOperator::Next(bool* done) {
  if (!sorted_) HIVE_RETURN_IF_ERROR(ConsumeInput());
  if (merge_armed_) {
    return MergeNext(done);
  }
  if (emit_offset_ > 0 || materialized_.num_rows() == 0) {
    *done = true;
    return RowBatch();
  }
  emit_offset_ = materialized_.num_rows();
  *done = false;
  return materialized_;
}

Status SortOperator::ConsumeInput() {
  sorted_ = true;
  reservation_.Attach(ctx_->query_memory);
  if (fetch_ >= 0 && fetch_ <= kTopKMaxFetch) {
    used_top_k_ = true;
    return ConsumeTopK();
  }

  RowBatch pending(child_->schema());
  uint64_t pending_bytes = 0;
  bool done = false;
  for (;;) {
    HIVE_RETURN_IF_ERROR(CheckCancelled());
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, child_->Next(&done));
    if (done) break;
    pending.AppendSelected(batch);
    pending_bytes += batch.ByteSize();
    input_bytes_ += batch.ByteSize();
    if (!reservation_.GrowTo(static_cast<int64_t>(pending_bytes))) {
      CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
      if (!ctx_->CanSpill())
        return BudgetExceededStatus("sort",
                                    static_cast<int64_t>(pending_bytes), ctx_);
      HIVE_RETURN_IF_ERROR(SpillRun(&pending));
      reservation_.Release();
      pending_bytes = 0;
    }
  }

  if (runs_.empty()) {
    // Whole input fit: the classic dense materialize + stable sort.
    std::vector<ColumnVectorPtr> key_cols;
    for (const auto& [expr, asc] : keys_) {
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*expr, pending));
      key_cols.push_back(std::move(col));
    }
    std::vector<int32_t> order(pending.num_rows());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      for (size_t k = 0; k < keys_.size(); ++k) {
        Value va = key_cols[k]->GetValue(a);
        Value vb = key_cols[k]->GetValue(b);
        int cmp = Value::Compare(va, vb);
        if (cmp != 0) return keys_[k].second ? cmp < 0 : cmp > 0;
      }
      return false;
    });
    if (fetch_ >= 0 && static_cast<int64_t>(order.size()) > fetch_)
      order.resize(static_cast<size_t>(fetch_));
    materialized_ = RowBatch(child_->schema());
    materialized_.AppendRows(pending, order);
    return ctx_->OnStageBoundary(pending.ByteSize());
  }

  // External merge sort: the tail chunk becomes the last run, then a k-way
  // merge streams the runs back. Runs are consecutive time slices of the
  // input, each stable-sorted, and the merge breaks key ties toward the
  // earlier run — together that reproduces std::stable_sort over the whole
  // input exactly.
  if (pending.num_rows() > 0) HIVE_RETURN_IF_ERROR(SpillRun(&pending));
  reservation_.Release();
  uint64_t spill_bytes = 0;
  for (const std::unique_ptr<SpillBatchWriter>& run : runs_)
    spill_bytes += run->bytes_written();
  cursors_.clear();
  for (std::unique_ptr<SpillBatchWriter>& run : runs_) {
    cursors_.emplace_back();
    MergeCursor& c = cursors_.back();
    c.batch = RowBatch(child_->schema());
    c.reader = std::make_unique<SpillBatchReader>(ctx_, *run);
    HIVE_RETURN_IF_ERROR(RefillCursor(&c));
  }
  merge_armed_ = true;
  CountSpillMetric(ctx_, obs::metric::kSpillMergePasses, 1);
  return ctx_->OnStageBoundary(spill_bytes);
}

Status SortOperator::SpillRun(RowBatch* pending) {
  if (pending->num_rows() == 0) return Status::OK();
  std::vector<ColumnVectorPtr> key_cols;
  for (const auto& [expr, asc] : keys_) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*expr, *pending));
    key_cols.push_back(std::move(col));
  }
  std::vector<int32_t> order(pending->num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      Value va = key_cols[k]->GetValue(a);
      Value vb = key_cols[k]->GetValue(b);
      int cmp = Value::Compare(va, vb);
      if (cmp != 0) return keys_[k].second ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  auto run = std::make_unique<SpillBatchWriter>(
      ctx_, ctx_->spill_dir + "/s" + std::to_string(NextSpillStreamId()),
      child_->schema(), /*with_seqs=*/false);
  for (int32_t row : order)
    HIVE_RETURN_IF_ERROR(run->AppendRow(*pending, row, 0));
  HIVE_RETURN_IF_ERROR(run->Finish());
  CountSpillMetric(ctx_, obs::metric::kSpillPartitions, 1);
  runs_.push_back(std::move(run));
  *pending = RowBatch(child_->schema());
  return Status::OK();
}

Status SortOperator::RefillCursor(MergeCursor* c) {
  c->pos = 0;
  HIVE_ASSIGN_OR_RETURN(bool more, c->reader->NextBatch(&c->batch, nullptr));
  if (!more) {
    c->done = true;
    return Status::OK();
  }
  c->keys.clear();
  for (const auto& [expr, asc] : keys_) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*expr, c->batch));
    c->keys.push_back(std::move(col));
  }
  return Status::OK();
}

Result<RowBatch> SortOperator::MergeNext(bool* done) {
  *done = false;
  const size_t limit =
      ctx_->config ? static_cast<size_t>(ctx_->config->vector_batch_size) : 1024;
  // Strictly-less comparison scanning cursors in run order: key ties keep
  // the earliest run, i.e. original input order (stable-sort semantics).
  auto less = [this](const MergeCursor& a, const MergeCursor& b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      Value va = a.keys[k]->GetValue(a.pos);
      Value vb = b.keys[k]->GetValue(b.pos);
      int cmp = Value::Compare(va, vb);
      if (cmp != 0) return keys_[k].second ? cmp < 0 : cmp > 0;
    }
    return false;
  };
  RowBatch out(child_->schema());
  size_t out_rows = 0;
  while (out_rows < limit) {
    if (fetch_ >= 0 && merge_emitted_ >= fetch_) break;
    MergeCursor* best = nullptr;
    for (MergeCursor& c : cursors_) {
      if (c.done) continue;
      if (!best || less(c, *best)) best = &c;
    }
    if (!best) break;
    for (size_t col = 0; col < out.num_columns(); ++col)
      out.column(col)->AppendFrom(*best->batch.column(col), best->pos);
    ++out_rows;
    ++merge_emitted_;
    ++best->pos;
    if (best->pos >= best->batch.num_rows()) HIVE_RETURN_IF_ERROR(RefillCursor(best));
  }
  out.set_num_rows(out_rows);
  if (out_rows == 0) *done = true;
  return out;
}

Status SortOperator::ConsumeTopK() {
  // Bounded ORDER BY ... LIMIT: a max-heap of the K best (boxed) rows. An
  // incoming row replaces the heap's worst entry only when strictly better
  // by (keys, input position) — exactly stable_sort + truncate semantics,
  // with O(K) resident rows and no spill.
  struct Entry {
    std::vector<Value> keys;
    std::vector<Value> row;
    uint64_t seq;
  };
  auto before = [this](const Entry& a, const Entry& b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      int cmp = Value::Compare(a.keys[k], b.keys[k]);
      if (cmp != 0) return keys_[k].second ? cmp < 0 : cmp > 0;
    }
    return a.seq < b.seq;
  };
  auto value_bytes = [](const Value& v) -> uint64_t {
    uint64_t bytes = sizeof(Value);
    if (v.kind() == TypeKind::kString) bytes += v.str().capacity();
    return bytes;
  };
  auto entry_bytes = [&](const Entry& e) -> uint64_t {
    uint64_t bytes = sizeof(Entry);
    for (const Value& v : e.keys) bytes += value_bytes(v);
    for (const Value& v : e.row) bytes += value_bytes(v);
    return bytes;
  };

  const size_t cap = static_cast<size_t>(fetch_);
  std::vector<Entry> heap;
  uint64_t heap_bytes = 0;
  uint64_t seq = 0;
  bool done = false;
  const size_t width = child_->schema().num_fields();
  for (;;) {
    HIVE_RETURN_IF_ERROR(CheckCancelled());
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, child_->Next(&done));
    if (done) break;
    if (cap == 0) continue;  // LIMIT 0 still drains the child
    std::vector<ColumnVectorPtr> key_cols;
    for (const auto& [expr, asc] : keys_) {
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*expr, batch));
      key_cols.push_back(std::move(col));
    }
    for (size_t i = 0; i < batch.SelectedSize(); ++i) {
      int32_t src = batch.SelectedRow(i);
      Entry e;
      e.seq = seq++;
      e.keys.reserve(key_cols.size());
      for (const ColumnVectorPtr& col : key_cols)
        e.keys.push_back(col->GetValue(static_cast<size_t>(src)));
      if (heap.size() == cap && !before(e, heap.front())) continue;
      e.row.reserve(width);
      for (size_t c = 0; c < width; ++c)
        e.row.push_back(batch.column(c)->GetValue(static_cast<size_t>(src)));
      heap_bytes += entry_bytes(e);
      if (heap.size() == cap) {
        std::pop_heap(heap.begin(), heap.end(), before);
        heap_bytes -= entry_bytes(heap.back());
        heap.pop_back();
      }
      heap.push_back(std::move(e));
      std::push_heap(heap.begin(), heap.end(), before);
    }
    if (!reservation_.GrowTo(static_cast<int64_t>(heap_bytes))) {
      CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
      // The heap is the minimal state answering this query; it cannot spill.
      return BudgetExceededStatus("top-k sort",
                                  static_cast<int64_t>(heap_bytes), ctx_);
    }
  }
  std::sort(heap.begin(), heap.end(), before);
  materialized_ = RowBatch(child_->schema());
  for (const Entry& e : heap)
    for (size_t c = 0; c < width; ++c)
      materialized_.column(c)->AppendValue(e.row[c]);
  materialized_.set_num_rows(heap.size());
  return ctx_->OnStageBoundary(heap_bytes);
}

Status SortOperator::Close() {
  if (profile_node_) {
    std::string& d = profile_node_->detail;
    auto add = [&d](const std::string& s) {
      if (!d.empty()) d += ", ";
      d += s;
    };
    if (used_top_k_) add("top_k=" + std::to_string(fetch_));
    if (!runs_.empty()) {
      uint64_t bytes = 0;
      for (const std::unique_ptr<SpillBatchWriter>& r : runs_)
        bytes += r->bytes_written();
      add("spill=sort runs=" + std::to_string(runs_.size()) +
          " spill_bytes=" + std::to_string(bytes));
    }
  }
  return child_->Close();
}

// --- Window ---

WindowOperator::WindowOperator(ExecContext* ctx, OperatorPtr child,
                               std::vector<WindowCall> calls, Schema schema)
    : Operator(ctx),
      child_(std::move(child)),
      calls_(std::move(calls)),
      schema_(std::move(schema)) {}

Result<RowBatch> WindowOperator::Next(bool* done) {
  if (!computed_) {
    computed_ = true;
    // Materialize the input densely.
    RowBatch all(child_->schema());
    bool child_done = false;
    for (;;) {
      HIVE_RETURN_IF_ERROR(CheckCancelled());
      HIVE_ASSIGN_OR_RETURN(RowBatch batch, child_->Next(&child_done));
      if (child_done) break;
      all.AppendSelected(batch);
    }
    HIVE_RETURN_IF_ERROR(ctx_->OnStageBoundary(all.ByteSize()));

    result_ = RowBatch(schema_);
    for (size_t c = 0; c < all.num_columns(); ++c) result_.SetColumn(c, all.column(c));
    result_.set_num_rows(all.num_rows());
    const size_t n = all.num_rows();

    for (const WindowCall& call : calls_) {
      HIVE_RETURN_IF_ERROR(CheckCancelled());
      auto out_col = std::make_shared<ColumnVector>(call.result_type);
      out_col->Resize(n);

      // Partition the rows.
      std::vector<ColumnVectorPtr> part_cols;
      for (const ExprPtr& p : call.partition_by) {
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*p, all));
        part_cols.push_back(std::move(col));
      }
      std::vector<ColumnVectorPtr> order_cols;
      for (const auto& [o, asc] : call.order_by) {
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*o, all));
        order_cols.push_back(std::move(col));
      }
      ColumnVectorPtr arg_col;
      if (call.arg) {
        HIVE_ASSIGN_OR_RETURN(arg_col, EvalVector(*call.arg, all));
      }

      std::unordered_map<uint64_t, std::vector<int32_t>> partitions;
      for (size_t i = 0; i < n; ++i) {
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (const auto& col : part_cols) h = HashCombine(h, col->GetValue(i).Hash());
        partitions[h].push_back(static_cast<int32_t>(i));
      }

      for (auto& [h, rows] : partitions) {
        // Sort the partition by the order keys.
        if (!order_cols.empty()) {
          std::stable_sort(rows.begin(), rows.end(), [&](int32_t a, int32_t b) {
            for (size_t k = 0; k < order_cols.size(); ++k) {
              int cmp = Value::Compare(order_cols[k]->GetValue(a),
                                       order_cols[k]->GetValue(b));
              if (cmp != 0) return call.order_by[k].second ? cmp < 0 : cmp > 0;
            }
            return false;
          });
        }
        if (call.func == "ROW_NUMBER") {
          for (size_t i = 0; i < rows.size(); ++i) {
            out_col->validity()[rows[i]] = 1;
            out_col->i64_data()[rows[i]] = static_cast<int64_t>(i + 1);
          }
        } else if (call.func == "RANK" || call.func == "DENSE_RANK") {
          int64_t rank = 0, dense = 0;
          for (size_t i = 0; i < rows.size(); ++i) {
            bool tie = i > 0;
            for (size_t k = 0; k < order_cols.size() && tie; ++k)
              if (Value::Compare(order_cols[k]->GetValue(rows[i]),
                                 order_cols[k]->GetValue(rows[i - 1])) != 0)
                tie = false;
            if (!tie) {
              rank = static_cast<int64_t>(i + 1);
              ++dense;
            }
            out_col->validity()[rows[i]] = 1;
            out_col->i64_data()[rows[i]] =
                call.func == "RANK" ? rank : dense;
          }
        } else {
          // Aggregate window functions. With ORDER BY: running aggregate up
          // to the current row (default frame); without: partition total.
          bool running = !order_cols.empty();
          auto assign = [&](int32_t row, const Value& v) {
            if (v.is_null()) {
              out_col->validity()[row] = 0;
              return;
            }
            out_col->validity()[row] = 1;
            if (call.result_type.kind == TypeKind::kDouble)
              out_col->f64_data()[row] = v.AsDouble();
            else if (call.result_type.kind == TypeKind::kString)
              out_col->str_data()[row] = v.str();
            else if (call.result_type.kind == TypeKind::kDecimal) {
              auto cast = v.CastTo(call.result_type);
              out_col->i64_data()[row] = cast.ok() && !cast->is_null() ? cast->i64() : 0;
            } else {
              out_col->i64_data()[row] = v.AsInt64();
            }
          };
          double sum_f64 = 0;
          int64_t sum_i64 = 0, count = 0;
          Value min, max;
          auto current = [&]() -> Value {
            if (call.func == "COUNT") return Value::Bigint(count);
            if (count == 0) return Value::Null();
            if (call.func == "SUM") {
              if (call.result_type.kind == TypeKind::kDouble) return Value::Double(sum_f64);
              if (call.result_type.kind == TypeKind::kDecimal)
                return Value::Decimal(sum_i64, call.result_type.scale);
              return Value::Bigint(sum_i64);
            }
            if (call.func == "AVG")
              return Value::Double(sum_f64 / static_cast<double>(count));
            if (call.func == "MIN") return min;
            if (call.func == "MAX") return max;
            return Value::Null();
          };
          auto accumulate = [&](int32_t row) {
            Value v = arg_col ? arg_col->GetValue(row) : Value::Bigint(1);
            if (arg_col && v.is_null()) return;
            ++count;
            sum_f64 += v.AsDouble();
            if (call.result_type.kind == TypeKind::kDecimal) {
              auto cast = v.CastTo(call.result_type);
              sum_i64 += cast.ok() && !cast->is_null() ? cast->i64() : 0;
            } else {
              sum_i64 += v.AsInt64();
            }
            if (min.is_null() || Value::Compare(v, min) < 0) min = v;
            if (max.is_null() || Value::Compare(v, max) > 0) max = v;
          };
          if (running) {
            for (int32_t row : rows) {
              accumulate(row);
              assign(row, current());
            }
          } else {
            for (int32_t row : rows) accumulate(row);
            Value total = current();
            for (int32_t row : rows) assign(row, total);
          }
        }
      }
      result_.SetColumn(result_.num_columns() - calls_.size() +
                            (&call - calls_.data()),
                        out_col);
    }
  }
  if (emitted_ || result_.num_rows() == 0) {
    *done = true;
    return RowBatch();
  }
  emitted_ = true;
  *done = false;
  return result_;
}

}  // namespace hive
