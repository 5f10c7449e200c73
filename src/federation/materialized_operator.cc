#include "federation/materialized_operator.h"

#include "exec/vector_eval.h"

namespace hive {

MaterializedScanOperator::MaterializedScanOperator(ExecContext* ctx,
                                                   const RelNode& node, RowBatch rows)
    : Operator(ctx), schema_(node.schema), filters_(node.scan_filters) {
  // Cast/realign columns to the declared output types.
  RowBatch aligned(schema_);
  size_t out_rows = 0;
  for (size_t i = 0; i < rows.SelectedSize(); ++i) {
    int32_t row = rows.SelectedRow(i);
    ++out_rows;
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      Value v = c < rows.num_columns() ? rows.column(c)->GetValue(row) : Value::Null();
      if (!v.is_null() && v.kind() != schema_.field(c).type.kind) {
        auto cast = v.CastTo(schema_.field(c).type);
        v = cast.ok() ? *cast : Value::Null();
      }
      aligned.column(c)->AppendValue(v);
    }
  }
  aligned.set_num_rows(out_rows);
  rows_ = std::move(aligned);
}

Status MaterializedScanOperator::Open() { return Status::OK(); }

Result<RowBatch> MaterializedScanOperator::Next(bool* done) {
  if (emitted_ || rows_.num_rows() == 0) {
    *done = true;
    return RowBatch();
  }
  emitted_ = true;
  *done = false;
  RowBatch out = rows_;
  for (const ExprPtr& f : filters_) {
    HIVE_ASSIGN_OR_RETURN(std::vector<int32_t> selection, FilterSelection(*f, out));
    out.SetSelection(std::move(selection));
  }
  return out;
}

}  // namespace hive
