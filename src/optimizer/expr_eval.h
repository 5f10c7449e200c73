#ifndef HIVE_OPTIMIZER_EXPR_EVAL_H_
#define HIVE_OPTIMIZER_EXPR_EVAL_H_

#include <string>
#include <vector>

#include "common/ast.h"

namespace hive {

/// Row-at-a-time evaluator for bound expressions. Used for constant folding,
/// static partition pruning, INSERT ... VALUES and the join residual; the
/// vectorized interpreter (exec/vector_eval.h) must agree with it row for row.
///
/// Every computed value is returned as a column of the node's bound type
/// would store it (ConformToType), so a parent sees the same value whether
/// its operand was evaluated here or read back from a batch.
///
/// `row` supplies the values for column bindings; a null pointer is only
/// valid for expressions without column references.
Result<Value> EvalExpr(const Expr& e, const std::vector<Value>* row);

/// The built-in scalar function `name` (upper-cased, as bound) applied to its
/// evaluated arguments. The one definition of function semantics: EvalExpr
/// calls it per row, and the vectorized interpreter per row of the argument
/// columns. The binder has checked the name and the argument count.
Result<Value> ApplyFunction(const std::string& name, const std::vector<Value>& args);

/// `v` as a ColumnVector of type `t` stores it (AppendValue) and reads it
/// back: DOUBLE via AsDouble, STRING via its text, DECIMAL rescaled,
/// BOOLEAN as AsInt64() != 0, other kinds as AsInt64(). A NULL type passes
/// `v` through unchanged.
Value ConformToType(Value v, const DataType& t);

/// The text string operators (LIKE, ||, the string functions) see for a
/// non-NULL value: a STRING's bytes, anything else rendered as SQL.
std::string TextOf(const Value& v);

/// SQL LIKE with % and _ wildcards.
bool SqlLike(const std::string& text, const std::string& pattern);

/// a % d for d != 0, truncated toward zero; x % -1 is 0 for every x.
inline int64_t SqlMod(int64_t a, int64_t d) { return d == -1 ? 0 : a % d; }

/// Three-valued-logic helpers: SQL comparisons return NULL when either side
/// is NULL; this evaluator models NULL as Value::Null() of boolean type.
inline bool IsTrue(const Value& v) { return !v.is_null() && v.bool_value(); }

}  // namespace hive

#endif  // HIVE_OPTIMIZER_EXPR_EVAL_H_
