#ifndef HIVE_EXEC_VECTOR_EVAL_H_
#define HIVE_EXEC_VECTOR_EVAL_H_

#include "common/column_vector.h"
#include "common/ast.h"
#include "optimizer/expr_eval.h"

namespace hive {

/// The operators' uses of the expression evaluator (EvalVector, in
/// optimizer/expr_eval.h; the tests hold it to their row-at-a-time oracle):
/// filter selections, and key hashing on the typed buffers.

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
