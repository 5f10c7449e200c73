#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "exec/vector_eval.h"
#include "optimizer/binder.h"
#include "optimizer/expr_eval.h"
#include "sql/parser.h"

namespace hive {
namespace {

// --- The oracle: SQL semantics one boxed row at a time ---------------------
//
// EvalVector must agree with this evaluator row for row (CheckParity). It
// shares ApplyFunction, ConformToType, TextOf and SqlLike with the engine,
// the one definition of those semantics, and walks the tree itself.

Result<Value> EvalRow(const Expr& e, const std::vector<Value>* row);

Result<Value> EvalBinary(const Expr& e, const std::vector<Value>* row) {
  // AND/OR use three-valued logic with short-circuiting.
  if (e.bin_op == BinaryOp::kAnd || e.bin_op == BinaryOp::kOr) {
    HIVE_ASSIGN_OR_RETURN(Value l, EvalRow(*e.children[0], row));
    bool is_and = e.bin_op == BinaryOp::kAnd;
    if (!l.is_null()) {
      if (is_and && !l.bool_value()) return Value::Boolean(false);
      if (!is_and && l.bool_value()) return Value::Boolean(true);
    }
    HIVE_ASSIGN_OR_RETURN(Value r, EvalRow(*e.children[1], row));
    if (!r.is_null()) {
      if (is_and && !r.bool_value()) return Value::Boolean(false);
      if (!is_and && r.bool_value()) return Value::Boolean(true);
    }
    if (l.is_null() || r.is_null()) return Value::Null();
    return Value::Boolean(is_and);
  }

  HIVE_ASSIGN_OR_RETURN(Value l, EvalRow(*e.children[0], row));
  HIVE_ASSIGN_OR_RETURN(Value r, EvalRow(*e.children[1], row));
  if (l.is_null() || r.is_null()) return Value::Null();
  switch (e.bin_op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      int cmp = Value::Compare(l, r);
      switch (e.bin_op) {
        case BinaryOp::kEq: return Value::Boolean(cmp == 0);
        case BinaryOp::kNe: return Value::Boolean(cmp != 0);
        case BinaryOp::kLt: return Value::Boolean(cmp < 0);
        case BinaryOp::kLe: return Value::Boolean(cmp <= 0);
        case BinaryOp::kGt: return Value::Boolean(cmp > 0);
        default: return Value::Boolean(cmp >= 0);
      }
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub: {
      bool minus = e.bin_op == BinaryOp::kSub;
      auto add = [minus](int64_t a, int64_t b) { return minus ? WrapSub(a, b) : WrapAdd(a, b); };
      // DATE/TIMESTAMP +/- interval (bigint days from INTERVAL_DAY).
      if (l.kind() == TypeKind::kDate) return Value::Date(add(l.i64(), r.AsInt64()));
      if (l.kind() == TypeKind::kTimestamp)
        return Value::Timestamp(add(l.i64(), WrapMul(r.AsInt64(), kMicrosPerDay)));
      if (e.type.kind == TypeKind::kDouble)
        return Value::Double(minus ? l.AsDouble() - r.AsDouble()
                                   : l.AsDouble() + r.AsDouble());
      if (e.type.kind == TypeKind::kDecimal) {
        auto lc = l.CastTo(e.type);
        auto rc = r.CastTo(e.type);
        if (!lc.ok() || !rc.ok()) return Value::Null();
        return Value::Decimal(add(lc->i64(), rc->i64()), e.type.scale);
      }
      return Value::Bigint(add(l.AsInt64(), r.AsInt64()));
    }
    case BinaryOp::kMul: {
      if (e.type.kind == TypeKind::kDouble)
        return Value::Double(l.AsDouble() * r.AsDouble());
      if (e.type.kind == TypeKind::kDecimal) {
        double v = l.AsDouble() * r.AsDouble();
        return Value::Decimal(static_cast<int64_t>(std::llround(v * Pow10(e.type.scale))),
                              e.type.scale);
      }
      return Value::Bigint(WrapMul(l.AsInt64(), r.AsInt64()));
    }
    case BinaryOp::kDiv: {
      double d = r.AsDouble();
      if (d == 0) return Value::Null();
      return Value::Double(l.AsDouble() / d);
    }
    case BinaryOp::kMod: {
      int64_t d = r.AsInt64();
      if (d == 0) return Value::Null();
      return Value::Bigint(SqlMod(l.AsInt64(), d));
    }
    case BinaryOp::kLike:
      return Value::Boolean(SqlLike(TextOf(l), TextOf(r)));
    case BinaryOp::kConcat:
      return Value::String(TextOf(l) + TextOf(r));
    default:
      return Status::ExecError("unhandled binary op");
  }
}

/// The value of `e` before ConformToType; column references never get here.
Result<Value> EvalNode(const Expr& e, const std::vector<Value>* row) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kBinary:
      return EvalBinary(e, row);
    case ExprKind::kUnary: {
      HIVE_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children[0], row));
      if (v.is_null()) return Value::Null();
      if (e.un_op == UnaryOp::kNot) return Value::Boolean(!v.bool_value());
      if (v.kind() == TypeKind::kDouble) return Value::Double(-v.f64());
      if (v.kind() == TypeKind::kDecimal) return Value::Decimal(WrapSub(0, v.i64()), v.scale());
      return Value::Bigint(WrapSub(0, v.i64()));
    }
    case ExprKind::kCase: {
      size_t pair_count = (e.children.size() - (e.has_else ? 1 : 0)) / 2;
      for (size_t p = 0; p < pair_count; ++p) {
        HIVE_ASSIGN_OR_RETURN(Value cond, EvalRow(*e.children[2 * p], row));
        if (IsTrue(cond)) return EvalRow(*e.children[2 * p + 1], row);
      }
      if (e.has_else) return EvalRow(*e.children.back(), row);
      return Value::Null();
    }
    case ExprKind::kCast: {
      HIVE_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children[0], row));
      return v.CastTo(e.cast_type);
    }
    case ExprKind::kInList: {
      HIVE_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children[0], row));
      if (v.is_null()) return Value::Null();
      bool any_null = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        HIVE_ASSIGN_OR_RETURN(Value candidate, EvalRow(*e.children[i], row));
        if (candidate.is_null()) {
          any_null = true;
          continue;
        }
        if (Value::Compare(v, candidate) == 0) return Value::Boolean(!e.negated);
      }
      if (any_null) return Value::Null();
      return Value::Boolean(e.negated);
    }
    case ExprKind::kBetween: {
      HIVE_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children[0], row));
      HIVE_ASSIGN_OR_RETURN(Value lo, EvalRow(*e.children[1], row));
      HIVE_ASSIGN_OR_RETURN(Value hi, EvalRow(*e.children[2], row));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in_range = Value::Compare(v, lo) >= 0 && Value::Compare(v, hi) <= 0;
      return Value::Boolean(e.negated ? !in_range : in_range);
    }
    case ExprKind::kIsNull: {
      HIVE_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children[0], row));
      return Value::Boolean(e.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(e.children.size());
      for (const ExprPtr& c : e.children) {
        HIVE_ASSIGN_OR_RETURN(Value v, EvalRow(*c, row));
        args.push_back(std::move(v));
      }
      return ApplyFunction(e.func_name, args);
    }
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
    case ExprKind::kSubquery:
    case ExprKind::kParam:
      break;
  }
  return Status::ExecError("cannot evaluate " + e.ToString());
}

Result<Value> EvalRow(const Expr& e, const std::vector<Value>* row) {
  if (e.kind == ExprKind::kColumnRef) {
    if (!row) return Status::ExecError("column reference without a row");
    if (e.binding < 0 || static_cast<size_t>(e.binding) >= row->size())
      return Status::ExecError("binding out of range: " + e.ToString());
    return (*row)[e.binding];
  }
  HIVE_ASSIGN_OR_RETURN(Value v, EvalNode(e, row));
  return ConformToType(std::move(v), e.type);
}

/// Parses a standalone expression by wrapping it into SELECT <expr>.
ExprPtr ParseExpr(const std::string& text) {
  auto stmt = Parser::Parse("SELECT " + text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto* select = dynamic_cast<SelectStatement*>(stmt->get());
  return select->select.body->core.items[0].expr;
}

void CheckParity(const ExprPtr& e, const RowBatch& batch);

/// `text` bound as a select-list item without FROM, evaluated by the
/// engine's EvalVector on a one-row batch and checked against the oracle.
Value Eval(const std::string& text) {
  SCOPED_TRACE(text);
  Config config;
  Binder binder(nullptr, &config);
  auto bound = binder.BindScalar(ParseExpr(text), Schema(), "");
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  if (!bound.ok()) return Value::Null();
  RowBatch one;
  one.set_num_rows(1);
  CheckParity(*bound, one);
  auto v = EvalVector(**bound, one);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? (*v)->GetValue(0) : Value::Null();
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

/// The core property: EvalVector equals a ColumnVector(e.type) filled with
/// AppendValue(EvalRow(row)) for every physical row (selection ignored):
/// same validity, same payload on every valid row, and it fails exactly
/// when EvalRow fails on some row.
void CheckParity(const ExprPtr& e, const RowBatch& batch) {
  SCOPED_TRACE(e->ToString());
  ColumnVector want(e->type);
  Status want_status = Status::OK();
  for (size_t i = 0; i < batch.num_rows() && want_status.ok(); ++i) {
    std::vector<Value> row;
    for (size_t c = 0; c < batch.num_columns(); ++c)
      row.push_back(batch.column(c)->GetValue(i));
    auto v = EvalRow(*e, &row);
    if (v.ok()) {
      want.AppendValue(*v);
    } else {
      want_status = v.status();
    }
  }
  auto got = EvalVector(*e, batch);
  ASSERT_EQ(got.ok(), want_status.ok())
      << (got.ok() ? want_status.ToString() : got.status().ToString());
  if (!got.ok()) return;
  const ColumnVector& vec = **got;
  ASSERT_EQ(vec.size(), batch.num_rows());
  ASSERT_EQ(vec.type().kind, e->type.kind);
  if (e->type.kind == TypeKind::kDecimal) {
    ASSERT_EQ(vec.type().scale, e->type.scale);
  }
  for (size_t i = 0; i < vec.size(); ++i) {
    ASSERT_EQ(vec.validity()[i], want.validity()[i]) << "row " << i;
    if (!want.validity()[i]) continue;
    switch (e->type.kind) {
      case TypeKind::kDouble: {
        const double a = vec.f64_data()[i], b = want.f64_data()[i];
        EXPECT_TRUE(std::memcmp(&a, &b, sizeof a) == 0 || (std::isnan(a) && std::isnan(b)))
            << "row " << i << ": " << a << " vs " << b;
        break;
      }
      case TypeKind::kString:
        EXPECT_EQ(vec.str_data()[i], want.str_data()[i]) << "row " << i;
        break;
      default:
        EXPECT_EQ(vec.i64_data()[i], want.i64_data()[i]) << "row " << i;
        break;
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

// --- every kernel against every operand kind, through the binder ---

/// Two columns of each kind (one DECIMAL per scale plus a second at scale
/// 2), NULLs at a different row offset per column. `sd` holds only date
/// text, `s2` date text and unparseable "nope"s.
RowBatch MakeKindBatch() {
  Schema schema;
  const std::vector<std::pair<std::string, DataType>> fields = {
      {"bo", DataType::Boolean()},      {"bo2", DataType::Boolean()},
      {"i1", DataType::Bigint()},       {"i2", DataType::Bigint()},
      {"f1", DataType::Double()},       {"f2", DataType::Double()},
      {"m2", DataType::Decimal(9, 2)},  {"mb", DataType::Decimal(9, 2)},
      {"m4", DataType::Decimal(18, 4)}, {"s1", DataType::String()},
      {"s2", DataType::String()},       {"sd", DataType::String()},
      {"d1", DataType::Date()},         {"d2", DataType::Date()},
      {"t1", DataType::Timestamp()},    {"t2", DataType::Timestamp()}};
  for (const auto& [name, type] : fields) schema.AddField(name, type);
  RowBatch batch(schema);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> ints = {kMin, kMax, -1, 0, 1, 7, -7, 42, 100000, 3, kMax - 1};
  const std::vector<double> doubles = {0.0, -0.0, 1.5, -2.25, 42.0, 1e6, 0.1, 3.0, -7.0};
  const std::vector<int64_t> cents = {0, 150, -275, 4200, 100, 99999, -1, 12345, 700};
  const std::vector<int64_t> units4 = {0, 15000, -27500, 420000, 1, 123456789, -70000};
  const std::vector<std::string> strings = {
      "", "abc", "Sports", "42", "  padded  ", "a string longer than fifteen chars",
      "2020-01-05", "x%y", "-7", "1.5", "ABC"};
  const std::vector<std::string> date_text = {"2020-01-05", "", "1999-12-31",
                                              "2018-05-04 10:30:00", "2020-01-05"};
  const std::vector<int64_t> days = {17532, 18000, 0, -365, 20000, 19000, 18000};
  const size_t kRows = 60;
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t c = 0; c < fields.size(); ++c) {
      ColumnVector& col = *batch.column(c);
      if ((i + 3 * c) % 11 == 0) {
        col.AppendNull();
        continue;
      }
      const size_t k = i + c;  // second columns of a kind see other values
      switch (fields[c].second.kind) {
        case TypeKind::kBoolean: col.AppendI64(k % 3 == 0); break;
        case TypeKind::kBigint: col.AppendI64(ints[k % ints.size()]); break;
        case TypeKind::kDouble: col.AppendF64(doubles[k % doubles.size()]); break;
        case TypeKind::kDecimal:
          col.AppendI64(fields[c].second.scale == 2 ? cents[k % cents.size()]
                                                    : units4[k % units4.size()]);
          break;
        case TypeKind::kDate: col.AppendI64(days[k % days.size()]); break;
        case TypeKind::kTimestamp:
          col.AppendI64(days[k % days.size()] * 86400000000LL + (k % 24) * 3600000000LL);
          break;
        default:
          if (fields[c].first == "s1") {
            col.AppendStr(strings[k % strings.size()]);
          } else if (fields[c].first == "s2") {
            col.AppendStr(k % 4 == 0 ? "nope" : date_text[k % date_text.size()]);
          } else {
            col.AppendStr(date_text[k % date_text.size()]);
          }
          break;
      }
    }
  }
  batch.set_num_rows(kRows);
  return batch;
}

/// Binds `sql` as the binder does a select-list item over the batch schema.
/// IF is a keyword to the parser, so an IF call is written as COALESCE and
/// renamed to `rename_call` before binding.
Result<ExprPtr> TryBind(const std::string& sql, const Schema& schema,
                        const std::string& rename_call = "") {
  HIVE_ASSIGN_OR_RETURN(StatementPtr stmt, Parser::Parse("SELECT " + sql + " FROM t"));
  ExprPtr e = dynamic_cast<SelectStatement*>(stmt.get())->select.body->core.items[0].expr;
  if (!rename_call.empty()) e->func_name = rename_call;
  Config config;
  Binder binder(nullptr, &config);
  return binder.BindScalar(e, schema, "t");
}

ExprPtr Bind(const std::string& sql, const Schema& schema, const std::string& rename_call = "") {
  auto bound = TryBind(sql, schema, rename_call);
  EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
  return bound.ok() ? *bound : nullptr;
}

void CheckParity(const std::string& sql, const RowBatch& batch) {
  SCOPED_TRACE(sql);
  ExprPtr e = Bind(sql, batch.schema());
  ASSERT_NE(e, nullptr);
  CheckParity(e, batch);
}

void CheckIfParity(const std::string& args, const RowBatch& batch) {
  SCOPED_TRACE("IF(" + args + ")");
  ExprPtr e = Bind("COALESCE(" + args + ")", batch.schema(), "IF");
  ASSERT_NE(e, nullptr);
  CheckParity(e, batch);
}

const std::vector<std::string> kKindCols = {"bo", "i1", "f1", "m2", "m4", "s1", "d1", "t1"};
const std::vector<std::string> kAllCols = {"bo", "bo2", "i1", "i2", "f1", "f2",
                                           "m2", "mb",  "m4", "s1", "s2", "d1",
                                           "d2", "t1",  "t2"};
const std::vector<std::string> kLiterals = {
    "0",    "-9000000000000000000", "1.5",  "'abc'", "DATE '2020-01-05'",
    "TIMESTAMP '2020-01-05 07:00:00'", "TRUE", "NULL", "CAST(1.50 AS DECIMAL(9,2))", "''"};

TEST(VectorParityTest, ComparisonsOverEveryKindPair) {
  RowBatch batch = MakeKindBatch();
  for (std::string op : {"=", "<>", "<", "<=", ">", ">="}) {
    for (const std::string& a : kKindCols) {
      for (const std::string& b : kAllCols) CheckParity(a + " " + op + " " + b, batch);
      for (const std::string& lit : kLiterals) {
        CheckParity(a + " " + op + " " + lit, batch);
        CheckParity(lit + " " + op + " " + a, batch);
      }
    }
  }
}

TEST(VectorParityTest, BetweenAndInList) {
  RowBatch batch = MakeKindBatch();
  for (const std::string& a : kKindCols) {
    for (const std::string& b : kAllCols) {
      for (std::string between : {" BETWEEN ", " NOT BETWEEN "}) {
        CheckParity(a + between + b + " AND " + a, batch);
        CheckParity(a + between + "NULL AND " + b, batch);
        CheckParity(a + between + b + " AND NULL", batch);
        CheckParity("NULL" + between + a + " AND " + b, batch);
      }
      CheckParity(a + " IN (" + b + ", " + a + ")", batch);
      CheckParity(a + " IN (" + b + ", NULL)", batch);
      CheckParity(a + " NOT IN (" + b + ", NULL)", batch);
      CheckParity(a + " NOT IN (" + b + ")", batch);
    }
    CheckParity(a + " BETWEEN -9000000000000000000 AND 9000000000000000000", batch);
    CheckParity(a + " IN (0, 1.5, 'abc', DATE '2020-01-05', TRUE)", batch);
    CheckParity(a + " NOT IN (42, 'Sports', NULL)", batch);
    CheckParity("NULL IN (" + a + ", 1)", batch);
  }
}

TEST(VectorParityTest, UnaryLogicAndNullTests) {
  RowBatch batch = MakeKindBatch();
  for (const std::string& a : kAllCols) {
    CheckParity("NOT " + a, batch);
    CheckParity("-" + a, batch);
    CheckParity(a + " IS NULL", batch);
    CheckParity(a + " IS NOT NULL", batch);
    for (const std::string& b : kKindCols) {
      CheckParity(a + " AND " + b, batch);
      CheckParity(a + " OR " + b, batch);
      CheckParity("NOT (" + a + " OR NULL) AND " + b, batch);
    }
  }
}

TEST(VectorParityTest, ArithmeticAndStringOperators) {
  RowBatch batch = MakeKindBatch();
  for (const std::string& a : kAllCols) {
    for (const std::string& b : kAllCols) {
      for (std::string op : {" + ", " - ", " * ", " / ", " % ", " || ", " LIKE "})
        CheckParity(a + op + b, batch);
    }
    for (std::string lit : {"0", "NULL", "3", "-1", "2.5", "'S%'", "'%a_c'"}) {
      CheckParity(a + " % " + lit, batch);
      CheckParity(a + " / " + lit, batch);
      CheckParity(a + " LIKE " + lit, batch);
      CheckParity(a + " NOT LIKE " + lit, batch);
    }
    CheckParity(a + " + INTERVAL 2 DAY", batch);
    CheckParity(a + " - INTERVAL 1 DAY", batch);
  }
}

TEST(VectorParityTest, CastsBetweenEveryKindPair) {
  RowBatch batch = MakeKindBatch();
  for (const std::string& a : kAllCols) {
    for (std::string type : {"BOOLEAN", "BIGINT", "DOUBLE", "DECIMAL(9,2)",
                                    "DECIMAL(18,4)", "DECIMAL(5,0)", "STRING", "DATE",
                                    "TIMESTAMP"})
      CheckParity("CAST(" + a + " AS " + type + ")", batch);
  }
  CheckParity("CAST(sd AS DATE)", batch);  // parses
  CheckParity("CAST(sd AS TIMESTAMP)", batch);
  CheckParity("CAST(s2 AS DATE)", batch);  // fails on "nope"
  CheckParity("CAST(NULL AS DATE)", batch);
}

TEST(VectorParityTest, CaseWithAndWithoutElse) {
  RowBatch batch = MakeKindBatch();
  for (const std::string& a : kAllCols) {
    for (const std::string& b : kKindCols) {
      CheckParity("CASE WHEN bo THEN " + a + " ELSE " + b + " END", batch);
      CheckParity("CASE WHEN " + a + " IS NULL THEN " + b + " WHEN i1 > 0 THEN " + a +
                      " END",
                  batch);
    }
    CheckParity("CASE WHEN " + a + " THEN 'yes' WHEN NOT " + a + " THEN 'no' END", batch);
    CheckParity("CASE " + a + " WHEN 0 THEN 'zero' WHEN 'abc' THEN 'abc' ELSE s1 END", batch);
    CheckParity("CASE WHEN bo THEN NULL WHEN i1 > 0 THEN " + a + " END", batch);
    CheckParity("CONCAT(CASE WHEN bo THEN i1 ELSE " + a + " END, '|')", batch);
  }
  CheckParity("CASE WHEN s1 LIKE 'S%' THEN 1 ELSE 0 END", batch);
  // MakeBatch's c alternates "odd" and "even", so the pattern splits the rows.
  CheckParity("CASE WHEN c LIKE 'e%' THEN 1 ELSE 0 END", MakeBatch());
}

TEST(VectorParityTest, FunctionsOverEveryKind) {
  RowBatch batch = MakeKindBatch();
  for (const std::string& a : kAllCols) {
    for (std::string f : {"UPPER", "LOWER", "LENGTH", "TRIM", "ABS"})
      CheckParity(f + std::string("(") + a + ")", batch);
    CheckParity("SUBSTR(" + a + ", 2)", batch);
    CheckParity("SUBSTRING(" + a + ", i2, 3)", batch);
    CheckParity("SUBSTR(s1, 2, " + a + ")", batch);
    CheckParity("SUBSTR(" + a + ", 1, NULL)", batch);
    CheckParity("CONCAT(" + a + ", '-', s1)", batch);
    for (const std::string& b : kKindCols) {
      CheckParity("COALESCE(" + a + ", " + b + ")", batch);
      CheckParity("NVL(NULL, " + a + ", " + b + ")", batch);
      CheckIfParity(a + ", " + b + ", i2", batch);
      CheckIfParity("bo, " + a + ", " + b, batch);
      CheckParity("GREATEST(" + a + ", " + b + ")", batch);
      CheckParity("LEAST(" + a + ", " + b + ", " + a + ")", batch);
    }
    CheckIfParity("bo, " + a, batch);
  }
  for (std::string a : {"f1", "f2", "m2", "m4", "s1", "bo"}) {
    CheckParity("ROUND(" + std::string(a) + ")", batch);
    CheckParity("ROUND(" + std::string(a) + ", 1)", batch);
    CheckParity("FLOOR(" + std::string(a) + ")", batch);
    CheckParity("CEIL(" + std::string(a) + ")", batch);
  }
  for (std::string a : {"d1", "d2", "t1", "t2"}) {
    for (std::string f : {"YEAR", "MONTH", "DAY"})
      CheckParity(f + "(" + std::string(a) + ")", batch);
    for (std::string field : {"year", "quarter", "hour", "minute", "second"})
      CheckParity("EXTRACT(" + field + " FROM " + std::string(a) + ")", batch);
  }
  CheckParity("CURRENT_DATE()", batch);
  CheckParity("d1 < CURRENT_TIMESTAMP()", batch);
  CheckParity("INTERVAL 3 MONTH", batch);
}

/// CheckParity, plus whether the evaluation should succeed at all.
void CheckParityAndOutcome(const std::string& sql, const RowBatch& batch, bool ok) {
  CheckParity(sql, batch);
  ExprPtr e = Bind(sql, batch.schema());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(EvalVector(*e, batch).ok(), ok) << sql;
}

TEST(VectorParityTest, FallibleCastsRunOnlyWhereTheOracleReachesThem) {
  RowBatch batch = MakeKindBatch();
  // Succeed: the cast never sees "nope".
  for (std::string sql :
       {"CASE WHEN s2 = 'nope' THEN NULL ELSE CAST(s2 AS DATE) END",
        "CASE WHEN s2 = 'nope' THEN 0 WHEN CAST(s2 AS DATE) > DATE '2019-01-01' THEN 1 "
        "ELSE 2 END",
        "s2 <> 'nope' AND CAST(s2 AS DATE) > DATE '2000-01-01'",
        "s2 = 'nope' OR CAST(s2 AS TIMESTAMP) IS NULL",
        "FALSE AND CAST(s1 AS DATE) IS NULL",
        "s2 IN ('nope', CAST(CAST(s2 AS DATE) AS STRING))"})
    CheckParityAndOutcome(sql, batch, true);
  // Fail: some reached row casts "nope".
  for (std::string sql :
       {"TRUE AND CAST(s2 AS DATE) IS NULL",
        "CASE WHEN s2 <> 'nope' THEN NULL ELSE CAST(s2 AS DATE) END",
        "s2 IN ('x', CAST(CAST(s2 AS DATE) AS STRING))",
        "COALESCE(s2, CAST(s2 AS DATE))"})
    CheckParityAndOutcome(sql, batch, false);
}

TEST(VectorParityTest, CallsWithTooFewArgumentsFailToBind) {
  const Schema schema = MakeKindBatch().schema();
  for (std::string sql : {"CASE WHEN FALSE THEN UPPER() END", "LENGTH()", "TRIM()", "ABS()",
                          "SUBSTR(s1)", "ROUND()", "FLOOR()", "YEAR()", "EXTRACT_DAY()"}) {
    auto bound = TryBind(sql, schema);
    ASSERT_FALSE(bound.ok()) << sql;
    EXPECT_NE(bound.status().ToString().find("needs at least"), std::string::npos)
        << bound.status().ToString();
  }
  EXPECT_FALSE(TryBind("COALESCE(bo)", schema, "IF").ok());
  EXPECT_TRUE(TryBind("COALESCE(bo, i1)", schema, "IF").ok());
  EXPECT_TRUE(TryBind("CONCAT()", schema).ok());
}

TEST(VectorParityTest, CaseAndIfTakeTheirResultTypeFromTheirBranches) {
  RowBatch batch = MakeKindBatch();
  EXPECT_EQ(Bind("CASE WHEN bo THEN NULL WHEN i1 > 0 THEN s1 END", batch.schema())->type.kind,
            TypeKind::kString);
  EXPECT_EQ(Bind("COALESCE(bo, 'a', 'b')", batch.schema(), "IF")->type.kind,
            TypeKind::kString);
}

TEST(VectorParityTest, SelectionIsIgnored) {
  RowBatch batch = MakeKindBatch();
  std::vector<int32_t> every_third;
  for (int32_t i = 0; i < static_cast<int32_t>(batch.num_rows()); i += 3)
    every_third.push_back(i);
  batch.SetSelection(every_third);
  CheckParity("i1 BETWEEN i2 AND 100", batch);
  CheckParity("CASE WHEN s1 LIKE '%a%' THEN UPPER(s1) ELSE CAST(d1 AS STRING) END", batch);
  CheckParity("CASE WHEN s2 = 'nope' THEN NULL ELSE CAST(s2 AS DATE) END", batch);
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
