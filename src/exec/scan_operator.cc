#include <algorithm>

#include "exec/operators.h"
#include "exec/task_retry.h"
#include "exec/vector_eval.h"
#include "optimizer/expr_eval.h"

namespace hive {

namespace {

/// Converts a bound conjunct over the scan output into a sargable predicate
/// when possible (col op literal, BETWEEN, IN, IS [NOT] NULL).
bool ToSarg(const ExprPtr& e, const Schema& schema, SargPredicate* out) {
  auto column_name = [&](const ExprPtr& c) -> const std::string* {
    if (c->kind != ExprKind::kColumnRef) return nullptr;
    if (c->binding < 0 || static_cast<size_t>(c->binding) >= schema.num_fields())
      return nullptr;
    return &schema.field(c->binding).name;
  };
  switch (e->kind) {
    case ExprKind::kBinary: {
      const ExprPtr& l = e->children[0];
      const ExprPtr& r = e->children[1];
      const std::string* col = nullptr;
      Value literal;
      bool mirrored = false;
      if ((col = column_name(l)) && r->kind == ExprKind::kLiteral) {
        literal = r->literal;
      } else if ((col = column_name(r)) && l->kind == ExprKind::kLiteral) {
        literal = l->literal;
        mirrored = true;
      } else {
        return false;
      }
      if (literal.is_null()) return false;
      SargOp op;
      switch (e->bin_op) {
        case BinaryOp::kEq: op = SargOp::kEq; break;
        case BinaryOp::kLt: op = mirrored ? SargOp::kGt : SargOp::kLt; break;
        case BinaryOp::kLe: op = mirrored ? SargOp::kGe : SargOp::kLe; break;
        case BinaryOp::kGt: op = mirrored ? SargOp::kLt : SargOp::kGt; break;
        case BinaryOp::kGe: op = mirrored ? SargOp::kLe : SargOp::kGe; break;
        default: return false;
      }
      out->column = *col;
      out->op = op;
      out->values = {literal};
      return true;
    }
    case ExprKind::kBetween: {
      if (e->negated) return false;
      const std::string* col = column_name(e->children[0]);
      if (!col || e->children[1]->kind != ExprKind::kLiteral ||
          e->children[2]->kind != ExprKind::kLiteral)
        return false;
      out->column = *col;
      out->op = SargOp::kBetween;
      out->values = {e->children[1]->literal, e->children[2]->literal};
      return true;
    }
    case ExprKind::kInList: {
      if (e->negated) return false;
      const std::string* col = column_name(e->children[0]);
      if (!col) return false;
      out->column = *col;
      out->op = SargOp::kIn;
      for (size_t i = 1; i < e->children.size(); ++i) {
        if (e->children[i]->kind != ExprKind::kLiteral) return false;
        out->values.push_back(e->children[i]->literal);
      }
      return true;
    }
    case ExprKind::kIsNull: {
      const std::string* col = column_name(e->children[0]);
      if (!col) return false;
      out->column = *col;
      out->op = e->negated ? SargOp::kIsNotNull : SargOp::kIsNull;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

ScanOperator::ScanOperator(ExecContext* ctx, const RelNode& node)
    : Operator(ctx),
      table_(node.table),
      projected_(node.projected),
      filters_(node.scan_filters),
      reducers_(node.semijoin_reducers),
      partitions_(node.pruned_partitions),
      partitions_pruned_(node.partitions_pruned),
      out_schema_(node.schema) {}

Status ScanOperator::Open() {
  // Resolve the data-column projection (partition columns are virtual;
  // record-id columns come from the ACID reader).
  size_t data_width = table_.schema.num_fields();
  size_t full_width = data_width + table_.partition_cols.size();
  output_from_data_.assign(out_schema_.num_fields(), -1);
  output_from_part_.assign(out_schema_.num_fields(), -1);
  output_from_record_id_.assign(out_schema_.num_fields(), -1);
  for (size_t i = 0; i < projected_.size(); ++i) {
    size_t full_ordinal = projected_[i];
    if (full_ordinal < data_width) {
      output_from_data_[i] = static_cast<int>(data_columns_.size());
      data_columns_.push_back(full_ordinal);
    } else if (full_ordinal < full_width) {
      output_from_part_[i] = static_cast<int>(full_ordinal - data_width);
    } else {
      output_from_record_id_[i] = static_cast<int>(full_ordinal - full_width);
      reads_record_id_ = true;
    }
  }

  // Locations to read.
  if (table_.IsPartitioned()) {
    std::vector<PartitionInfo> partitions = partitions_;
    if (!partitions_pruned_) {
      HIVE_ASSIGN_OR_RETURN(partitions,
                            ctx_->catalog->GetPartitions(table_.db, table_.name));
    }
    for (const PartitionInfo& p : partitions)
      locations_.push_back({p.location, p.values});
  } else {
    locations_.push_back({table_.location, {}});
  }

  // Static sarg from the residual filters.
  for (const ExprPtr& f : filters_) {
    SargPredicate pred;
    if (ToSarg(f, out_schema_, &pred)) sarg_.conjuncts.push_back(std::move(pred));
  }

  // Dynamic semijoin reduction (Section 4.6). Must run before morsel
  // enumeration: reducers may drop locations and tighten the sarg.
  HIVE_RETURN_IF_ERROR(RunSemiJoinReducers());

  return EnumerateMorsels();
}

Status ScanOperator::RunSemiJoinReducers() {
  for (const SemiJoinReducer& reducer : reducers_) {
    if (!ctx_->compile_subplan) break;
    HIVE_ASSIGN_OR_RETURN(OperatorPtr build_op, ctx_->compile_subplan(reducer.build_plan));
    HIVE_ASSIGN_OR_RETURN(RowBatch rows, CollectAll(build_op.get()));
    // Evaluate the key expression over the build output.
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr keys, EvalVector(*reducer.build_key, rows));
    Value min, max;
    auto bloom = std::make_shared<BloomFilter>(std::max<size_t>(rows.num_rows(), 16),
                                               0.03);
    std::vector<Value> values;
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      if (keys->IsNull(i)) continue;
      Value v = keys->GetValue(i);
      if (min.is_null() || Value::Compare(v, min) < 0) min = v;
      if (max.is_null() || Value::Compare(v, max) > 0) max = v;
      bloom->Add(v);
      if (reducer.partition_pruning && values.size() < 100000) values.push_back(v);
    }
    if (min.is_null()) {
      // Build side empty: nothing can match.
      locations_.clear();
      continue;
    }
    if (reducer.partition_pruning && table_.IsPartitioned()) {
      // Dynamic partition pruning: drop partitions whose value for the
      // target column is not produced by the build side.
      int part_index = -1;
      for (size_t p = 0; p < table_.partition_cols.size(); ++p)
        if (ToLower(table_.partition_cols[p].name) == ToLower(reducer.target_column))
          part_index = static_cast<int>(p);
      if (part_index >= 0) {
        // Sort the build values once and binary-search per partition:
        // O((B + P) log B) instead of the old O(B * P) linear probes.
        auto less = [](const Value& a, const Value& b) {
          return Value::Compare(a, b) < 0;
        };
        std::sort(values.begin(), values.end(), less);
        std::vector<Location> kept;
        for (const Location& loc : locations_) {
          const Value& pv = loc.partition_values[part_index];
          if (std::binary_search(values.begin(), values.end(), pv, less))
            kept.push_back(loc);
        }
        locations_ = std::move(kept);
        continue;
      }
    }
    // Index-semijoin variant (Section 4.6): a min/max range condition for
    // row-group skipping plus a Bloom filter applied row-wise in the scan.
    SargPredicate range;
    range.column = reducer.target_column;
    range.op = SargOp::kBetween;
    range.values = {min, max};
    sarg_.conjuncts.push_back(std::move(range));
    auto idx = out_schema_.IndexOf(reducer.target_column);
    if (idx) runtime_blooms_.push_back({static_cast<int>(*idx), bloom});
  }
  return Status::OK();
}

Status ScanOperator::EnumerateMorsels() {
  // Plan every location up front and flatten the scan into (location, file,
  // row group) morsels — the shared work queue of the parallel layer. Only
  // footers are touched here; data chunks are read morsel by morsel.
  location_states_.resize(locations_.size());
  for (size_t l = 0; l < locations_.size(); ++l) {
    const Location& loc = locations_[l];
    LocationState& state = location_states_[l];
    std::vector<std::string> files;
    if (table_.is_acid) {
      state.acid = std::make_unique<AcidReader>(ctx_->fs, loc.path, table_.schema,
                                                ctx_->chunks);
      AcidScanOptions options;
      options.columns = data_columns_;
      options.sarg = sarg_;
      options.include_row_ids = reads_record_id_;
      ValidWriteIdList snapshot = ctx_->snapshot_for
                                      ? ctx_->snapshot_for(table_.FullName())
                                      : ValidWriteIdList::All();
      // Opening loads the delete deltas; a transient error there re-attempts
      // the open like a footer read below.
      HIVE_RETURN_IF_ERROR(
          RunTaskAttempts(ctx_->config, ctx_->clock, ctx_->runtime_stats,
                          [&] { return state.acid->Open(snapshot, options); }));
      files = state.acid->data_files();
    } else if (ctx_->fs->Exists(loc.path)) {
      // Non-ACID: plain COF files directly under the location.
      HIVE_ASSIGN_OR_RETURN(std::vector<FileInfo> entries,
                            ctx_->fs->ListDir(loc.path));
      for (const FileInfo& f : entries)
        if (!f.is_dir) files.push_back(f.path);
    }
    for (const std::string& path : files) {
      // Footer reads go through the retry policy too: a transient error
      // while opening a file re-attempts instead of failing the vertex.
      HIVE_ASSIGN_OR_RETURN(
          std::shared_ptr<CofReader> reader,
          RunTaskAttempts(ctx_->config, ctx_->clock, ctx_->runtime_stats,
                          [&] { return ctx_->chunks->OpenReader(path); }));
      uint32_t file_index = static_cast<uint32_t>(state.files.size());
      state.files.push_back(reader);
      for (size_t rg = 0; rg < reader->num_row_groups(); ++rg)
        morsels_.push_back({static_cast<uint32_t>(l), file_index,
                            static_cast<uint32_t>(rg)});
    }
  }
  return Status::OK();
}

Result<RowBatch> ScanOperator::PostProcess(RowBatch raw, const Location& loc) const {
  // Assemble the output batch: data columns by position, record-id columns
  // from the tail the ACID reader appends, partition columns as broadcast
  // constants.
  RowBatch out(out_schema_);
  size_t n = raw.num_rows();
  for (size_t i = 0; i < out_schema_.num_fields(); ++i) {
    if (output_from_data_[i] >= 0) {
      out.SetColumn(i, raw.column(output_from_data_[i]));
    } else if (output_from_record_id_[i] >= 0) {
      out.SetColumn(i, raw.column(raw.num_columns() - kNumAcidMetaCols +
                                  output_from_record_id_[i]));
    } else {
      const DataType& type = out_schema_.field(i).type;
      auto col = std::make_shared<ColumnVector>(type);
      // The column's own representation: a DECIMAL partition value
      // broadcasts its unscaled payload at the column's scale.
      HIVE_ASSIGN_OR_RETURN(Value v,
                            loc.partition_values[output_from_part_[i]].CastTo(type));
      col->Resize(n);
      if (v.is_null()) {
        std::fill(col->validity().begin(), col->validity().end(), 0);
      } else {
        std::fill(col->validity().begin(), col->validity().end(), 1);
        if (type.kind == TypeKind::kDouble)
          std::fill(col->f64_data().begin(), col->f64_data().end(), v.f64());
        else if (type.kind == TypeKind::kString)
          std::fill(col->str_data().begin(), col->str_data().end(), v.str());
        else
          std::fill(col->i64_data().begin(), col->i64_data().end(), v.i64());
      }
      out.SetColumn(i, std::move(col));
    }
  }
  out.set_num_rows(n);
  if (raw.has_selection()) out.SetSelection(raw.selection());
  // Residual predicate evaluation (sargs are row-group granularity only).
  for (const ExprPtr& f : filters_) {
    HIVE_ASSIGN_OR_RETURN(std::vector<int32_t> selection, FilterSelection(*f, out));
    out.SetSelection(std::move(selection));
  }
  // Row-level semijoin-reducer Bloom filtering, on per-row hashes of the
  // selected rows (equal to the Value::Hash() the filter was built from).
  std::vector<uint64_t> hashes;
  for (const auto& [column, bloom] : runtime_blooms_) {
    const ColumnVector& col = *out.column(column);
    HashColumn(col, out.has_selection() ? out.selection().data() : nullptr,
               out.SelectedSize(), &hashes);
    std::vector<int32_t> selection;
    selection.reserve(out.SelectedSize());
    for (size_t i = 0; i < out.SelectedSize(); ++i) {
      int32_t row = out.SelectedRow(i);
      if (!col.IsNull(row) && bloom->MightContainHash(hashes[i]))
        selection.push_back(row);
    }
    out.SetSelection(std::move(selection));
  }
  return out;
}

Result<RowBatch> ScanOperator::ReadMorsel(size_t index, bool* skipped) {
  *skipped = false;
  const Morsel& m = morsels_[index];
  const Location& loc = locations_[m.location];
  const LocationState& state = location_states_[m.location];
  const std::shared_ptr<CofReader>& reader = state.files[m.file];
  if (!reader->MightMatch(m.row_group, sarg_)) {
    row_groups_skipped_.fetch_add(1, std::memory_order_relaxed);
    *skipped = true;
    return RowBatch();
  }
  if (state.acid) {
    HIVE_ASSIGN_OR_RETURN(RowBatch raw,
                          state.acid->ReadFileRowGroup(reader, m.row_group));
    return PostProcess(std::move(raw), loc);
  }
  HIVE_ASSIGN_OR_RETURN(RowBatch raw,
                        ctx_->chunks->ReadChunks(reader, m.row_group, data_columns_));
  return PostProcess(std::move(raw), loc);
}

Result<RowBatch> ScanOperator::ReadMorselWithRetry(size_t index, bool* skipped) {
  return RunTaskAttempts(ctx_->config, ctx_->clock, ctx_->runtime_stats,
                         [&] { return ReadMorsel(index, skipped); });
}

void ScanOperator::PrefetchMorsel(size_t index) const {
  if (!ctx_->prefetch_chunk || index >= morsels_.size()) return;
  const Morsel& m = morsels_[index];
  const LocationState& state = location_states_[m.location];
  const std::shared_ptr<CofReader>& reader = state.files[m.file];
  if (!reader->MightMatch(m.row_group, sarg_)) return;
  if (state.acid) {
    for (size_t c : data_columns_)
      ctx_->prefetch_chunk(reader, m.row_group, c + kNumAcidMetaCols);
    for (size_t c = 0; c < kNumAcidMetaCols; ++c)
      ctx_->prefetch_chunk(reader, m.row_group, c);
  } else {
    for (size_t c : data_columns_)
      ctx_->prefetch_chunk(reader, m.row_group, c);
  }
}

Result<RowBatch> ScanOperator::Next(bool* done) {
  *done = false;
  for (;;) {
    HIVE_RETURN_IF_ERROR(CheckCancelled());
    if (next_morsel_ >= morsels_.size()) {
      *done = true;
      return RowBatch();
    }
    bool skipped = false;
    HIVE_ASSIGN_OR_RETURN(RowBatch batch,
                          ReadMorselWithRetry(next_morsel_++, &skipped));
    if (skipped) continue;
    // Serial scan: every row's modeled CPU cost lands on the critical path
    // (the parallel driver charges only its slowest worker instead).
    if (ctx_->clock)
      ctx_->clock->Charge(static_cast<int64_t>(batch.num_rows()) *
                          ctx_->config->scan_cpu_ns_per_row / 1000);
    return batch;
  }
}

}  // namespace hive
