#include "exec/operators.h"

#include <set>

#include "common/hash.h"
#include "exec/spill.h"
#include "exec/vector_eval.h"
#include "obs/metric_names.h"

namespace hive {

// --- Values ---

ValuesOperator::ValuesOperator(ExecContext* ctx, const RelNode& node)
    : Operator(ctx), schema_(node.schema), rows_(node.rows) {}

Result<RowBatch> ValuesOperator::Next(bool* done) {
  if (emitted_) {
    *done = true;
    return RowBatch();
  }
  emitted_ = true;
  *done = false;
  RowBatch out(schema_);
  for (const auto& row : rows_) {
    for (size_t c = 0; c < schema_.num_fields(); ++c)
      out.column(c)->AppendValue(c < row.size() ? row[c] : Value::Null());
  }
  out.set_num_rows(rows_.size());
  if (rows_.empty()) {
    *done = true;
    return RowBatch();
  }
  return out;
}

// --- Filter ---

FilterOperator::FilterOperator(ExecContext* ctx, OperatorPtr child, ExprPtr predicate)
    : Operator(ctx), child_(std::move(child)), predicate_(std::move(predicate)) {}

Result<RowBatch> FilterOperator::Next(bool* done) {
  for (;;) {
    HIVE_RETURN_IF_ERROR(CheckCancelled());
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, child_->Next(done));
    if (*done) return batch;
    HIVE_ASSIGN_OR_RETURN(std::vector<int32_t> selection,
                          FilterSelection(*predicate_, batch));
    if (selection.empty()) continue;  // fully filtered batch; pull the next
    batch.SetSelection(std::move(selection));
    return batch;
  }
}

// --- Project ---

ProjectOperator::ProjectOperator(ExecContext* ctx, OperatorPtr child,
                                 std::vector<ExprPtr> exprs, Schema schema)
    : Operator(ctx),
      child_(std::move(child)),
      exprs_(std::move(exprs)),
      schema_(std::move(schema)) {}

Result<RowBatch> ProjectOperator::Next(bool* done) {
  HIVE_ASSIGN_OR_RETURN(RowBatch batch, child_->Next(done));
  if (*done) return batch;
  RowBatch out(schema_);
  for (size_t i = 0; i < exprs_.size(); ++i) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*exprs_[i], batch));
    out.SetColumn(i, std::move(col));
  }
  out.set_num_rows(batch.num_rows());
  if (batch.has_selection()) out.SetSelection(batch.selection());
  return out;
}

// --- Limit ---

LimitOperator::LimitOperator(ExecContext* ctx, OperatorPtr child, int64_t limit)
    : Operator(ctx), child_(std::move(child)), remaining_(limit) {}

Result<RowBatch> LimitOperator::Next(bool* done) {
  if (remaining_ <= 0) {
    *done = true;
    return RowBatch();
  }
  HIVE_ASSIGN_OR_RETURN(RowBatch batch, child_->Next(done));
  if (*done) return batch;
  int64_t selected = static_cast<int64_t>(batch.SelectedSize());
  if (selected > remaining_) {
    std::vector<int32_t> selection;
    for (int64_t i = 0; i < remaining_; ++i)
      selection.push_back(batch.SelectedRow(static_cast<size_t>(i)));
    batch.SetSelection(std::move(selection));
    selected = remaining_;
  }
  remaining_ -= selected;
  return batch;
}

// --- Union ---

UnionOperator::UnionOperator(ExecContext* ctx, std::vector<OperatorPtr> children,
                             Schema schema)
    : Operator(ctx), children_(std::move(children)), schema_(std::move(schema)) {}

Status UnionOperator::Open() {
  for (auto& child : children_) HIVE_RETURN_IF_ERROR(child->Open());
  return Status::OK();
}

Status UnionOperator::Close() {
  for (auto& child : children_) HIVE_RETURN_IF_ERROR(child->Close());
  return Status::OK();
}

Result<RowBatch> UnionOperator::Next(bool* done) {
  while (current_ < children_.size()) {
    bool child_done = false;
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, children_[current_]->Next(&child_done));
    if (!child_done) {
      *done = false;
      return batch;
    }
    ++current_;
  }
  *done = true;
  return RowBatch();
}

// --- Intersect / Except ---

SetOpOperator::SetOpOperator(ExecContext* ctx, OperatorPtr left, OperatorPtr right,
                             bool is_intersect)
    : Operator(ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      is_intersect_(is_intersect) {}

Status SetOpOperator::Open() {
  HIVE_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

Status SetOpOperator::Close() {
  HIVE_RETURN_IF_ERROR(left_->Close());
  return right_->Close();
}

Result<RowBatch> SetOpOperator::Next(bool* done) {
  if (!done_) {
    done_ = true;
    // Approximate resident cost of one digest in the std::set: the red-black
    // tree node (3 pointers + color + std::string header) plus the digest
    // payload when it escapes the small-string buffer.
    constexpr uint64_t kSetNodeBytes = 64;
    auto digest_bytes = [](const std::string& d) -> uint64_t {
      return kSetNodeBytes + (d.capacity() > sizeof(std::string) ? d.capacity() : 0);
    };
    reservation_.Attach(ctx_->query_memory);
    uint64_t digest_footprint = 0;
    // Hash the right side row digests.
    std::set<std::string> right_rows;
    bool child_done = false;
    for (;;) {
      HIVE_ASSIGN_OR_RETURN(RowBatch batch, right_->Next(&child_done));
      if (child_done) break;
      for (size_t i = 0; i < batch.SelectedSize(); ++i) {
        std::string digest;
        for (const Value& v : batch.GetRow(i)) digest += v.ToString() + "\x1f";
        auto [it, inserted] = right_rows.insert(std::move(digest));
        if (inserted) digest_footprint += digest_bytes(*it);
      }
      if (!reservation_.GrowTo(static_cast<int64_t>(digest_footprint))) {
        CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
        return BudgetExceededStatus("set operation",
                                    static_cast<int64_t>(digest_footprint), ctx_);
      }
    }
    // Stream the left side, applying set semantics with dedup. The emitted-
    // digest set grows the same reservation: both sets are resident at once.
    result_ = RowBatch(left_->schema());
    std::set<std::string> emitted;
    child_done = false;
    std::vector<int32_t> kept;
    for (;;) {
      HIVE_ASSIGN_OR_RETURN(RowBatch batch, left_->Next(&child_done));
      if (child_done) break;
      kept.clear();
      for (size_t i = 0; i < batch.SelectedSize(); ++i) {
        std::string digest;
        std::vector<Value> row = batch.GetRow(i);
        for (const Value& v : row) digest += v.ToString() + "\x1f";
        bool in_right = right_rows.count(digest) != 0;
        if (in_right != is_intersect_) continue;
        auto [it, inserted] = emitted.insert(std::move(digest));
        if (!inserted) continue;
        digest_footprint += digest_bytes(*it);
        kept.push_back(batch.SelectedRow(i));
      }
      result_.AppendRows(batch, kept);
      if (!reservation_.GrowTo(static_cast<int64_t>(digest_footprint))) {
        CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
        return BudgetExceededStatus("set operation",
                                    static_cast<int64_t>(digest_footprint), ctx_);
      }
    }
    HIVE_RETURN_IF_ERROR(ctx_->OnStageBoundary(digest_footprint));
  }
  if (emitted_ || result_.num_rows() == 0) {
    *done = true;
    return RowBatch();
  }
  emitted_ = true;
  *done = false;
  return result_;
}

// --- Spool (shared work) ---

SpoolOperator::SpoolOperator(ExecContext* ctx, std::shared_ptr<SpoolState> state,
                             Schema schema)
    : Operator(ctx), state_(std::move(state)), schema_(std::move(schema)) {}

Status SpoolOperator::Open() {
  MutexLock lock(&state_->mu);
  if (!state_->materialized) {
    state_->materialized = true;
    state_->status = state_->source->Open();
    if (state_->status.ok()) {
      bool done = false;
      for (;;) {
        auto batch = state_->source->Next(&done);
        if (!batch.ok()) {
          state_->status = batch.status();
          break;
        }
        if (done) break;
        state_->batches.push_back(std::move(*batch));
      }
      if (state_->status.ok()) state_->status = state_->source->Close();
    }
  }
  index_ = 0;
  return state_->status;
}

Result<RowBatch> SpoolOperator::Next(bool* done) {
  // Replays are read-only, but concurrent consumers may still be inside
  // Open() on another plan branch; the lock keeps the guarded access
  // discipline checkable instead of relying on operator-protocol ordering.
  MutexLock lock(&state_->mu);
  if (index_ >= state_->batches.size()) {
    *done = true;
    return RowBatch();
  }
  *done = false;
  const RowBatch& batch = state_->batches[index_++];
  return batch;
}

}  // namespace hive
