#ifndef HIVE_EXEC_VECTOR_EVAL_H_
#define HIVE_EXEC_VECTOR_EVAL_H_

#include "common/column_vector.h"
#include "common/ast.h"

namespace hive {

/// Vectorized expression interpreter: evaluates a bound expression over all
/// *physical* rows of a batch (selection vectors are applied by the caller).
/// Every expression kind the binder emits has a column-at-a-time kernel. A
/// column reference aliases its input vector, as EvalExpr returns the row's
/// value as it is; any other expression equals a ColumnVector(e.type) filled
/// with AppendValue(EvalExpr(e, row)) for each physical row: same validity,
/// same payload on valid rows, and an error exactly when EvalExpr fails on
/// some row. Operands EvalExpr evaluates only on some rows (the right side
/// of AND/OR, CASE branches, IN items) run on just those rows when they can
/// fail. A function call evaluates its arguments as columns and applies
/// ApplyFunction to each row's arguments. This mirrors the vectorized
/// operator model of [39] that LLAP executes directly on its RLE data
/// (Section 5.1).
Result<ColumnVectorPtr> EvalVector(const Expr& e, const RowBatch& batch);

/// Evaluates a boolean predicate and intersects it with the batch's current
/// selection, returning the surviving physical row indexes.
Result<std::vector<int32_t>> FilterSelection(const Expr& predicate,
                                             const RowBatch& batch);

/// Value::Hash() of rows `rows[0..n)` of `col` (of its first n physical rows
/// when `rows` is null), computed on the typed buffers without boxing. A
/// NULL row gets the hash of NULL; callers that must skip NULLs check
/// validity themselves.
void HashColumn(const ColumnVector& col, const int32_t* rows, size_t n,
                std::vector<uint64_t>* hashes);

/// Column-wise key hashing for the join/aggregation hot path: hashes every
/// *physical* row of the evaluated key columns in one pass per column,
/// replacing the per-row boxed std::vector<Value> + Value::Hash() loop. The
/// output folds each column's HashColumn into HashCombine seeded with
/// 0x9e3779b97f4a7c15 — bit-identical to folding Value::Hash() of each key
/// (the HashKeys discipline), so flat tables built from either path agree.
///
/// `all_valid` (optional) gets 1 for rows where every key column is
/// non-null — equi-join keys with any NULL never match and are skipped by
/// the build/probe, while GROUP BY keeps NULL groups and ignores it.
void HashKeyColumns(const std::vector<ColumnVectorPtr>& key_cols, size_t num_rows,
                    std::vector<uint64_t>* hashes, std::vector<uint8_t>* all_valid);

}  // namespace hive

#endif  // HIVE_EXEC_VECTOR_EVAL_H_
