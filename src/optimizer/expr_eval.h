#ifndef HIVE_OPTIMIZER_EXPR_EVAL_H_
#define HIVE_OPTIMIZER_EXPR_EVAL_H_

#include <string>
#include <vector>

#include "common/ast.h"
#include "common/column_vector.h"

namespace hive {

/// The expression evaluator: evaluates a bound expression over all
/// *physical* rows of a batch (selection vectors are applied by the caller),
/// one column-at-a-time kernel per expression kind the binder emits. It
/// serves the operators, constant folding, static partition pruning,
/// INSERT ... VALUES and the join residual. This mirrors the vectorized
/// operator model of [39] that LLAP executes directly on its RLE data
/// (Section 5.1).
///
/// Its contract is parity with SQL's row-at-a-time semantics, which the
/// tests hold it to with a boxed oracle (EvalRow in tests/expr_eval_test.cc).
/// A column reference aliases its input vector, as a row returns its value
/// as it is; any other expression equals a ColumnVector(e.type) filled with
/// AppendValue of the oracle's value for each physical row: same validity,
/// same payload on valid rows, and an error exactly when the oracle fails on
/// some row. Operands a row-at-a-time evaluation reaches only on some rows
/// (the right side of AND/OR, CASE branches, IN items) run on just those
/// rows when they can fail. A function call evaluates its arguments as
/// columns and applies ApplyFunction to each row's arguments.
Result<ColumnVectorPtr> EvalVector(const Expr& e, const RowBatch& batch);

/// `e`, which has no column references, evaluated by EvalVector on a
/// one-row batch: constant folding and INSERT ... VALUES.
Result<Value> EvalConstant(const Expr& e);

/// The built-in scalar function `name` (upper-cased, as bound) applied to its
/// evaluated arguments: the one definition of function semantics, which
/// EvalVector applies per row of the argument columns. The binder has
/// checked the name and the argument count.
Result<Value> ApplyFunction(const std::string& name, const std::vector<Value>& args);

/// `v` as a ColumnVector of type `t` stores it (AppendValue) and reads it
/// back: DOUBLE via AsDouble, STRING via its text, DECIMAL rescaled,
/// BOOLEAN as AsInt64() != 0, other kinds as AsInt64(). A NULL type passes
/// `v` through unchanged.
Value ConformToType(Value v, const DataType& t);

/// ColumnVector::AppendValue of every row of `in` into a column of type `to`:
/// ConformToType a column at a time, every row converted, valid or not.
/// Returns `in` itself when it already holds that storage.
ColumnVectorPtr ConformColumn(const ColumnVectorPtr& in, const DataType& to);

/// The text string operators (LIKE, ||, the string functions) see for a
/// non-NULL value: a STRING's bytes, anything else rendered as SQL.
std::string TextOf(const Value& v);

/// SQL LIKE with % and _ wildcards.
bool SqlLike(const std::string& text, const std::string& pattern);

/// a % d for d != 0, truncated toward zero; x % -1 is 0 for every x.
inline int64_t SqlMod(int64_t a, int64_t d) { return d == -1 ? 0 : a % d; }

/// SQL truth of a boxed value: NULL (unknown) and FALSE are not true.
inline bool IsTrue(const Value& v) { return !v.is_null() && v.bool_value(); }

}  // namespace hive

#endif  // HIVE_OPTIMIZER_EXPR_EVAL_H_
