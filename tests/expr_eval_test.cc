#include <gtest/gtest.h>

#include "exec/vector_eval.h"
#include "optimizer/expr_eval.h"
#include "sql/parser.h"

namespace hive {
namespace {

/// Parses a standalone expression by wrapping it into SELECT <expr>.
ExprPtr ParseExpr(const std::string& text) {
  auto stmt = Parser::Parse("SELECT " + text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto* select = dynamic_cast<SelectStatement*>(stmt->get());
  return select->select.body->core.items[0].expr;
}

/// Minimal manual type assignment for literal-only trees.
void TypeLiterals(const ExprPtr& e) {
  if (!e) return;
  for (const ExprPtr& c : e->children) TypeLiterals(c);
  if (e->kind == ExprKind::kLiteral) {
    e->type.kind = e->literal.kind();
  } else if (e->kind == ExprKind::kBinary) {
    switch (e->bin_op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul: {
        bool dbl = e->children[0]->type.kind == TypeKind::kDouble ||
                   e->children[1]->type.kind == TypeKind::kDouble;
        e->type = dbl ? DataType::Double() : DataType::Bigint();
        if (e->children[0]->type.kind == TypeKind::kDate) e->type = DataType::Date();
        break;
      }
      case BinaryOp::kDiv: e->type = DataType::Double(); break;
      case BinaryOp::kConcat: e->type = DataType::String(); break;
      default: e->type = DataType::Boolean(); break;
    }
  }
}

Value Eval(const std::string& text) {
  ExprPtr e = ParseExpr(text);
  TypeLiterals(e);
  auto v = EvalExpr(*e, nullptr);
  EXPECT_TRUE(v.ok()) << v.status().ToString() << " for " << text;
  return v.ok() ? *v : Value::Null();
}

TEST(ScalarEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3").i64(), 7);
  EXPECT_EQ(Eval("(1 + 2) * 3").i64(), 9);
  EXPECT_DOUBLE_EQ(Eval("7 / 2").f64(), 3.5);
  EXPECT_EQ(Eval("7 % 3").i64(), 1);
  EXPECT_DOUBLE_EQ(Eval("1.5 + 2.25").f64(), 3.75);
  EXPECT_EQ(Eval("-5 + 3").i64(), -2);
}

TEST(ScalarEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(Eval("1 / 0").is_null());
  EXPECT_TRUE(Eval("1 % 0").is_null());
}

TEST(ScalarEvalTest, ThreeValuedLogic) {
  EXPECT_TRUE(Eval("NULL AND TRUE").is_null());
  EXPECT_FALSE(Eval("NULL AND FALSE").bool_value());  // false dominates
  EXPECT_TRUE(Eval("NULL OR TRUE").bool_value());     // true dominates
  EXPECT_TRUE(Eval("NULL OR FALSE").is_null());
  EXPECT_TRUE(Eval("NOT NULL").is_null());
  EXPECT_TRUE(Eval("NULL = NULL").is_null()) << "NULL never equals NULL";
  EXPECT_TRUE(Eval("1 + NULL").is_null());
}

TEST(ScalarEvalTest, Comparisons) {
  EXPECT_TRUE(Eval("2 < 3").bool_value());
  EXPECT_TRUE(Eval("'abc' < 'abd'").bool_value());
  EXPECT_TRUE(Eval("2 BETWEEN 1 AND 3").bool_value());
  EXPECT_FALSE(Eval("2 NOT BETWEEN 1 AND 3").bool_value());
  EXPECT_TRUE(Eval("2 IN (1, 2, 3)").bool_value());
  EXPECT_FALSE(Eval("5 IN (1, 2, 3)").bool_value());
  EXPECT_TRUE(Eval("5 IN (1, NULL)").is_null()) << "unknown with null candidates";
  EXPECT_TRUE(Eval("NULL IS NULL").bool_value());
  EXPECT_TRUE(Eval("1 IS NOT NULL").bool_value());
}

TEST(ScalarEvalTest, LikePatterns) {
  EXPECT_TRUE(SqlLike("hello", "h%"));
  EXPECT_TRUE(SqlLike("hello", "%llo"));
  EXPECT_TRUE(SqlLike("hello", "h_llo"));
  EXPECT_TRUE(SqlLike("hello", "%"));
  EXPECT_FALSE(SqlLike("hello", "H%"));
  EXPECT_TRUE(SqlLike("", "%"));
  EXPECT_FALSE(SqlLike("", "_"));
  EXPECT_TRUE(SqlLike("abcabc", "%abc"));
  EXPECT_TRUE(SqlLike("a%b", "a%b"));
  EXPECT_TRUE(Eval("'Sports' LIKE 'S%'").bool_value());
  EXPECT_TRUE(Eval("'Sports' NOT LIKE 'B%'").bool_value());
}

TEST(ScalarEvalTest, CaseExpressions) {
  EXPECT_EQ(Eval("CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END").str(), "yes");
  EXPECT_EQ(Eval("CASE WHEN 1 > 2 THEN 'yes' ELSE 'no' END").str(), "no");
  EXPECT_TRUE(Eval("CASE WHEN 1 > 2 THEN 'yes' END").is_null());
  EXPECT_EQ(Eval("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END").str(), "two");
}

TEST(ScalarEvalTest, StringFunctions) {
  EXPECT_EQ(Eval("UPPER('abc')").str(), "ABC");
  EXPECT_EQ(Eval("LOWER('ABC')").str(), "abc");
  EXPECT_EQ(Eval("'a' || 'b' || 'c'").str(), "abc");
  EXPECT_EQ(Eval("CONCAT('x', 1, 'y')").str(), "x1y");
  EXPECT_EQ(Eval("SUBSTR('hello', 2, 3)").str(), "ell");
  EXPECT_EQ(Eval("SUBSTR('hello', 10)").str(), "");
  EXPECT_EQ(Eval("LENGTH('hello')").i64(), 5);
  EXPECT_EQ(Eval("TRIM('  x  ')").str(), "x");
}

TEST(ScalarEvalTest, NumericFunctions) {
  EXPECT_EQ(Eval("ABS(-7)").i64(), 7);
  EXPECT_DOUBLE_EQ(Eval("ROUND(3.456, 1)").f64(), 3.5);
  EXPECT_EQ(Eval("FLOOR(3.7)").i64(), 3);
  EXPECT_EQ(Eval("CEIL(3.2)").i64(), 4);
  EXPECT_EQ(Eval("GREATEST(1, 5, 3)").i64(), 5);
  EXPECT_EQ(Eval("LEAST(4, 2, 9)").i64(), 2);
  EXPECT_EQ(Eval("COALESCE(NULL, NULL, 7)").i64(), 7);
  EXPECT_TRUE(Eval("COALESCE(NULL, NULL)").is_null());
}

TEST(ScalarEvalTest, DateArithmetic) {
  EXPECT_EQ(Eval("DATE '2018-01-01' + INTERVAL 30 DAY").ToString(), "2018-01-31");
  EXPECT_EQ(Eval("DATE '2018-03-01' - INTERVAL 1 DAY").ToString(), "2018-02-28");
  EXPECT_EQ(Eval("EXTRACT(year FROM DATE '2017-11-05')").i64(), 2017);
  EXPECT_EQ(Eval("EXTRACT(month FROM TIMESTAMP '2017-11-05 10:30:00')").i64(), 11);
  EXPECT_EQ(Eval("EXTRACT(hour FROM TIMESTAMP '2017-11-05 10:30:00')").i64(), 10);
}

TEST(ScalarEvalTest, Casts) {
  EXPECT_EQ(Eval("CAST('42' AS BIGINT)").i64(), 42);
  EXPECT_EQ(Eval("CAST(3.9 AS BIGINT)").i64(), 3);
  EXPECT_EQ(Eval("CAST(1.5 AS DECIMAL(5,2))").ToString(), "1.50");
  EXPECT_EQ(Eval("CAST(42 AS STRING)").str(), "42");
  EXPECT_EQ(Eval("CAST('2018-05-04' AS DATE)").ToString(), "2018-05-04");
}

// --- vectorized interpreter parity ---

RowBatch MakeBatch() {
  Schema schema;
  schema.AddField("a", DataType::Bigint());
  schema.AddField("b", DataType::Double());
  schema.AddField("c", DataType::String());
  schema.AddField("d", DataType::Decimal(7, 2));
  RowBatch batch(schema);
  for (int i = 0; i < 100; ++i) {
    if (i % 10 == 0) {
      batch.column(0)->AppendNull();
    } else {
      batch.column(0)->AppendI64(i);
    }
    batch.column(1)->AppendF64(i * 0.5);
    batch.column(2)->AppendStr(i % 2 ? "odd" : "even");
    batch.column(3)->AppendI64(i * 25);  // i * 0.25 at scale 2
  }
  batch.set_num_rows(100);
  return batch;
}

ExprPtr Col(int binding, DataType type) {
  ExprPtr e = MakeColumnRef("", "c" + std::to_string(binding));
  e->binding = binding;
  e->type = type;
  return e;
}

ExprPtr Lit(Value v) {
  ExprPtr e = MakeLiteral(v);
  e->type.kind = v.kind();
  if (v.kind() == TypeKind::kDecimal) e->type = DataType::Decimal(18, v.scale());
  return e;
}

/// The core property: the vectorized interpreter must agree with the scalar
/// evaluator on every row, for every expression shape it accelerates.
void CheckParity(const ExprPtr& e, const RowBatch& batch) {
  auto vec = EvalVector(*e, batch);
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    std::vector<Value> row;
    for (size_t c = 0; c < batch.num_columns(); ++c)
      row.push_back(batch.column(c)->GetValue(i));
    auto scalar = EvalExpr(*e, &row);
    ASSERT_TRUE(scalar.ok());
    Value from_vec = (*vec)->GetValue(i);
    EXPECT_EQ(from_vec.is_null(), scalar->is_null()) << "row " << i;
    if (!scalar->is_null()) {
      EXPECT_EQ(Value::Compare(from_vec, *scalar), 0)
          << "row " << i << ": " << from_vec.ToString() << " vs "
          << scalar->ToString();
    }
  }
}

TEST(VectorEvalTest, ComparisonKernelsMatchScalar) {
  RowBatch batch = MakeBatch();
  ExprPtr a = Col(0, DataType::Bigint());
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt, BinaryOp::kLe,
                      BinaryOp::kGt, BinaryOp::kGe}) {
    ExprPtr e = MakeBinary(op, a, Lit(Value::Bigint(50)));
    e->type = DataType::Boolean();
    CheckParity(e, batch);
  }
}

TEST(VectorEvalTest, DecimalScaleAlignment) {
  RowBatch batch = MakeBatch();
  // d (scale 2) compared against a bigint literal: must rescale.
  ExprPtr e = MakeBinary(BinaryOp::kGt, Col(3, DataType::Decimal(7, 2)),
                         Lit(Value::Bigint(10)));
  e->type = DataType::Boolean();
  CheckParity(e, batch);
  // d + d keeps the scale.
  ExprPtr sum = MakeBinary(BinaryOp::kAdd, Col(3, DataType::Decimal(7, 2)),
                           Col(3, DataType::Decimal(7, 2)));
  sum->type = DataType::Decimal(18, 2);
  CheckParity(sum, batch);
}

TEST(VectorEvalTest, MixedNumericComparison) {
  RowBatch batch = MakeBatch();
  ExprPtr e = MakeBinary(BinaryOp::kLt, Col(0, DataType::Bigint()),
                         Col(1, DataType::Double()));
  e->type = DataType::Boolean();
  CheckParity(e, batch);
}

TEST(VectorEvalTest, DateTimeIntervalArithmetic) {
  // t (TIMESTAMP, micros) and d (DATE, days) plus or minus a day count, the
  // shape INTERVAL 'n' DAY binds to.
  Schema schema;
  schema.AddField("t", DataType::Timestamp());
  schema.AddField("d", DataType::Date());
  RowBatch batch(schema);
  for (int i = 0; i < 50; ++i) {
    if (i % 7 == 0) {
      batch.column(0)->AppendNull();
    } else {
      batch.column(0)->AppendI64((17532LL + i) * 86400000000LL + i * 3600000000LL);
    }
    batch.column(1)->AppendI64(17532 + i);
  }
  batch.set_num_rows(50);
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub}) {
    ExprPtr ts = MakeBinary(op, Col(0, DataType::Timestamp()), Lit(Value::Bigint(1)));
    ts->type = DataType::Timestamp();
    CheckParity(ts, batch);
    ExprPtr date = MakeBinary(op, Col(1, DataType::Date()), Lit(Value::Bigint(3)));
    date->type = DataType::Date();
    CheckParity(date, batch);
  }
}

TEST(VectorEvalTest, AndOrNullSemantics) {
  RowBatch batch = MakeBatch();
  ExprPtr lhs = MakeBinary(BinaryOp::kGt, Col(0, DataType::Bigint()),
                           Lit(Value::Bigint(30)));
  lhs->type = DataType::Boolean();
  ExprPtr rhs = MakeBinary(BinaryOp::kLt, Col(1, DataType::Double()),
                           Lit(Value::Double(40.0)));
  rhs->type = DataType::Boolean();
  for (BinaryOp op : {BinaryOp::kAnd, BinaryOp::kOr}) {
    ExprPtr e = MakeBinary(op, lhs, rhs);
    e->type = DataType::Boolean();
    CheckParity(e, batch);
  }
}

TEST(VectorEvalTest, RowWiseFallbackForComplexExprs) {
  RowBatch batch = MakeBatch();
  // CASE + LIKE exercise the fallback path.
  auto stmt = Parser::Parse(
      "SELECT CASE WHEN c LIKE 'e%' THEN 1 ELSE 0 END FROM t");
  ASSERT_TRUE(stmt.ok());
  ExprPtr e = dynamic_cast<SelectStatement*>(stmt->get())
                  ->select.body->core.items[0]
                  .expr;
  // Bind manually: c is column 2.
  std::function<void(const ExprPtr&)> bind = [&](const ExprPtr& x) {
    if (!x) return;
    if (x->kind == ExprKind::kColumnRef) {
      x->binding = 2;
      x->type = DataType::String();
    }
    if (x->kind == ExprKind::kLiteral) x->type.kind = x->literal.kind();
    for (const ExprPtr& child : x->children) bind(child);
  };
  bind(e);
  e->type = DataType::Bigint();
  CheckParity(e, batch);
}

TEST(VectorEvalTest, FilterSelectionIntersectsExisting) {
  RowBatch batch = MakeBatch();
  // Pre-select even physical rows.
  std::vector<int32_t> evens;
  for (int32_t i = 0; i < 100; i += 2) evens.push_back(i);
  batch.SetSelection(evens);
  ExprPtr e = MakeBinary(BinaryOp::kGt, Col(0, DataType::Bigint()),
                         Lit(Value::Bigint(50)));
  e->type = DataType::Boolean();
  auto sel = FilterSelection(*e, batch);
  ASSERT_TRUE(sel.ok());
  for (int32_t row : *sel) {
    EXPECT_EQ(row % 2, 0) << "must stay within the prior selection";
    EXPECT_GT(row, 50);
  }
  // 52..98 even, minus null rows (60, 70, 80, 90): 24 - 4 = 20.
  EXPECT_EQ(sel->size(), 20u);
}

}  // namespace
}  // namespace hive
