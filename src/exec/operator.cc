#include "exec/operator.h"

namespace hive {

Result<RowBatch> CollectAll(Operator* op) {
  HIVE_RETURN_IF_ERROR(op->Open());
  RowBatch out(op->schema());
  bool done = false;
  for (;;) {
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, op->Next(&done));
    if (done) break;
    out.AppendSelected(batch);
  }
  HIVE_RETURN_IF_ERROR(op->Close());
  return out;
}

Result<std::vector<std::vector<Value>>> CollectRows(Operator* op) {
  HIVE_ASSIGN_OR_RETURN(RowBatch batch, CollectAll(op));
  std::vector<std::vector<Value>> rows;
  rows.reserve(batch.num_rows());
  for (size_t i = 0; i < batch.num_rows(); ++i) rows.push_back(batch.GetRow(i));
  return rows;
}

}  // namespace hive
