#ifndef HIVE_EXEC_OPERATOR_H_
#define HIVE_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/column_vector.h"
#include "exec/exec_context.h"

namespace hive {

/// Pull-based vectorized physical operator: Open once, Next until `done`,
/// Close. Batches flow in columnar form with selection vectors; blocking
/// operators (hash build, aggregation, sort) report stage boundaries to the
/// context so the runtime simulation can charge MR-mode costs.
class Operator {
 public:
  explicit Operator(ExecContext* ctx) : ctx_(ctx) {}
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  /// Produces the next batch. Sets *done (and returns an empty batch) at
  /// end of stream. A returned batch may carry a selection vector.
  virtual Result<RowBatch> Next(bool* done) = 0;
  virtual Status Close() { return Status::OK(); }

  /// Output schema.
  virtual const Schema& schema() const = 0;

 protected:
  /// Interruption point: deadline evaluation + kill-flag check. Operators
  /// call this at batch boundaries inside blocking loops (sort, hash build,
  /// window materialization) so KILL triggers and query.timeout.ms take
  /// effect mid-pipeline, not just between pipelines.
  Status CheckCancelled() const { return ctx_->CheckInterrupted(); }

  ExecContext* ctx_;
};

/// Drains `op` into a single materialized batch (tests, DML, subplans).
Result<RowBatch> CollectAll(Operator* op);

/// Drains `op` into boxed rows.
Result<std::vector<std::vector<Value>>> CollectRows(Operator* op);

}  // namespace hive

#endif  // HIVE_EXEC_OPERATOR_H_
