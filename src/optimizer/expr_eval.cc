#include "optimizer/expr_eval.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace hive {

namespace {

ColumnVectorPtr NewColumn(const DataType& type, size_t n) {
  auto out = std::make_shared<ColumnVector>(type);
  out->Resize(n);
  return out;
}

/// True when columns of the two types hold identical payloads.
bool SameStorage(const DataType& a, const DataType& b) {
  return a.kind == b.kind && (a.kind != TypeKind::kDecimal || a.scale == b.scale);
}

// --- Row views: what a row's boxed Value reports, a column at a time. ---
// Each returns the column's own buffer when it already holds the view, and
// otherwise fills `buf`; every row is converted, valid or not.

/// Value::AsInt64.
const int64_t* Int64s(const ColumnVector& col, std::vector<int64_t>* buf) {
  const size_t n = col.size();
  const TypeKind kind = col.type().kind;
  if (kind == TypeKind::kBigint || kind == TypeKind::kDate ||
      kind == TypeKind::kTimestamp || kind == TypeKind::kNull)
    return col.i64_data().data();
  buf->resize(n);
  int64_t* out = buf->data();
  if (kind == TypeKind::kDouble) {
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<int64_t>(col.f64_data()[i]);
  } else if (kind == TypeKind::kString) {
    for (size_t i = 0; i < n; ++i) out[i] = std::strtoll(col.str_data()[i].c_str(), nullptr, 10);
  } else if (kind == TypeKind::kDecimal) {
    const int64_t pow = Pow10(col.type().scale);
    for (size_t i = 0; i < n; ++i) out[i] = col.i64_data()[i] / pow;
  } else {  // BOOLEAN boxes as 0 or 1
    for (size_t i = 0; i < n; ++i) out[i] = col.i64_data()[i] != 0;
  }
  return out;
}

/// Value::AsDouble.
const double* Doubles(const ColumnVector& col, std::vector<double>* buf) {
  const size_t n = col.size();
  const TypeKind kind = col.type().kind;
  if (kind == TypeKind::kDouble) return col.f64_data().data();
  buf->resize(n);
  double* out = buf->data();
  if (kind == TypeKind::kString) {
    for (size_t i = 0; i < n; ++i) out[i] = std::strtod(col.str_data()[i].c_str(), nullptr);
  } else if (kind == TypeKind::kDecimal) {
    const double pow = static_cast<double>(Pow10(col.type().scale));
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(col.i64_data()[i]) / pow;
  } else if (kind == TypeKind::kBoolean) {
    for (size_t i = 0; i < n; ++i) out[i] = col.i64_data()[i] != 0 ? 1.0 : 0.0;
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(col.i64_data()[i]);
  }
  return out;
}

/// Value::i64(), the raw payload: 0 for DOUBLE and STRING. It is what NOT,
/// AND/OR and CASE test for truth, and what unary minus negates.
const int64_t* Payloads(const ColumnVector& col, std::vector<int64_t>* buf) {
  const TypeKind kind = col.type().kind;
  if (kind == TypeKind::kDouble || kind == TypeKind::kString) {
    buf->assign(col.size(), 0);
    return buf->data();
  }
  if (kind == TypeKind::kBoolean) return Int64s(col, buf);
  return col.i64_data().data();
}

enum class Conversion {
  kStore,  // what ColumnVector::AppendValue stores (ConformToType)
  kCast,   // Value::CastTo
};

/// Converts every row of `in` to type `to`. The two conversions differ only
/// for DATE and TIMESTAMP targets, where a cast parses strings and converts
/// between days and microseconds (only that parse can fail), and for the
/// NULL type, which a cast makes NULL.
Result<ColumnVectorPtr> Convert(const ColumnVectorPtr& in, const DataType& to,
                                Conversion how) {
  const DataType& from = in->type();
  if (SameStorage(from, to)) return in;
  const size_t n = in->size();
  auto out = NewColumn(to, n);
  auto& valid = out->validity();
  valid = in->validity();
  std::vector<int64_t> i64s;
  std::vector<double> f64s;
  if (to.kind == TypeKind::kDouble) {
    const double* v = Doubles(*in, &f64s);
    std::copy(v, v + n, out->f64_data().begin());
    return out;
  }
  if (to.kind == TypeKind::kString) {
    for (size_t i = 0; i < n; ++i)
      if (valid[i]) out->str_data()[i] = TextOf(in->GetValue(i));
    return out;
  }
  int64_t* o = out->i64_data().data();
  const bool cast = how == Conversion::kCast;
  if (to.kind == TypeKind::kNull && cast) {
    std::fill(valid.begin(), valid.end(), 0);
  } else if (to.kind == TypeKind::kDecimal) {
    const int s = to.scale;
    if (from.kind == TypeKind::kDecimal && from.scale < s) {
      const int64_t factor = Pow10(s - from.scale);
      for (size_t i = 0; i < n; ++i) o[i] = WrapMul(in->i64_data()[i], factor);
    } else if (from.kind == TypeKind::kDecimal) {
      const int64_t divisor = Pow10(from.scale - s);
      for (size_t i = 0; i < n; ++i) o[i] = in->i64_data()[i] / divisor;
    } else if (from.kind == TypeKind::kDouble) {
      for (size_t i = 0; i < n; ++i)
        o[i] = static_cast<int64_t>(std::llround(in->f64_data()[i] * Pow10(s)));
    } else {
      const int64_t* v = Int64s(*in, &i64s);
      for (size_t i = 0; i < n; ++i) o[i] = WrapMul(v[i], Pow10(s));
    }
  } else if (cast && from.kind == TypeKind::kString &&
             (to.kind == TypeKind::kDate || to.kind == TypeKind::kTimestamp)) {
    for (size_t i = 0; i < n; ++i) {
      if (!valid[i]) continue;
      HIVE_ASSIGN_OR_RETURN(Value v, Value::Parse(in->str_data()[i], to));
      valid[i] = !v.is_null();
      o[i] = v.i64();
    }
  } else if (cast && from.kind == TypeKind::kTimestamp && to.kind == TypeKind::kDate) {
    for (size_t i = 0; i < n; ++i) o[i] = in->i64_data()[i] / kMicrosPerDay;
  } else if (cast && from.kind == TypeKind::kDate && to.kind == TypeKind::kTimestamp) {
    for (size_t i = 0; i < n; ++i) o[i] = WrapMul(in->i64_data()[i], kMicrosPerDay);
  } else {
    const int64_t* v = Int64s(*in, &i64s);
    if (to.kind == TypeKind::kBoolean) {
      for (size_t i = 0; i < n; ++i) o[i] = v[i] != 0;
    } else {
      std::copy(v, v + n, o);
    }
  }
  return out;
}

}  // namespace

ColumnVectorPtr ConformColumn(const ColumnVectorPtr& in, const DataType& to) {
  return Convert(in, to, Conversion::kStore).value();  // storing never fails
}

namespace {

/// A literal's value (ConformToType of it) on n rows.
ColumnVectorPtr Broadcast(const Value& literal, const DataType& type, size_t n) {
  ColumnVector one(type);
  one.AppendValue(ConformToType(literal, type));
  auto out = NewColumn(type, n);
  std::fill(out->validity().begin(), out->validity().end(), one.validity()[0]);
  if (type.kind == TypeKind::kDouble) {
    std::fill(out->f64_data().begin(), out->f64_data().end(), one.f64_data()[0]);
  } else if (type.kind == TypeKind::kString) {
    std::fill(out->str_data().begin(), out->str_data().end(), one.str_data()[0]);
  } else {
    std::fill(out->i64_data().begin(), out->i64_data().end(), one.i64_data()[0]);
  }
  return out;
}

/// Copies validity and payload of row src_rows[k] of `src` to row
/// dst_rows[k] of `dst` (same storage) for every k < n; a null index list
/// means the identity.
void CopyRows(ColumnVector* dst, const int32_t* dst_rows, const ColumnVector& src,
              const int32_t* src_rows, size_t n) {
  auto copy = [&](auto& out, const auto& in) {
    for (size_t k = 0; k < n; ++k) {
      const size_t d = dst_rows ? static_cast<size_t>(dst_rows[k]) : k;
      const size_t s = src_rows ? static_cast<size_t>(src_rows[k]) : k;
      dst->validity()[d] = src.validity()[s];
      out[d] = in[s];
    }
  };
  if (dst->type().kind == TypeKind::kDouble) {
    copy(dst->f64_data(), src.f64_data());
  } else if (dst->type().kind == TypeKind::kString) {
    copy(dst->str_data(), src.str_data());
  } else {
    copy(dst->i64_data(), src.i64_data());
  }
}

std::vector<int32_t> RowsWhere(const std::vector<uint8_t>& mask) {
  std::vector<int32_t> rows;
  for (size_t i = 0; i < mask.size(); ++i)
    if (mask[i]) rows.push_back(static_cast<int32_t>(i));
  return rows;
}

// --- Lazily evaluated operands ---------------------------------------------

/// True when `e` contains a CAST to DATE or TIMESTAMP: parsing a STRING is
/// the one thing that fails on some rows and not others, so such an operand
/// must run only on the rows a row-at-a-time evaluation reaches it on.
bool CanFail(const Expr& e) {
  if (e.kind == ExprKind::kCast &&
      (e.cast_type.kind == TypeKind::kDate || e.cast_type.kind == TypeKind::kTimestamp))
    return true;
  for (const ExprPtr& c : e.children)
    if (CanFail(*c)) return true;
  return false;
}

void CollectBindings(const Expr& e, std::vector<int>* out) {
  if (e.kind == ExprKind::kColumnRef) out->push_back(e.binding);
  for (const ExprPtr& c : e.children) CollectBindings(*c, out);
}

/// Evaluates `e` on the rows a row-at-a-time evaluation would: every row
/// where reached(i).
/// Operands that cannot fail run on the whole batch (other rows' values are
/// never read); others run on a batch gathered from the reached rows, with
/// NULL on the rest.
template <typename Reached>
Result<ColumnVectorPtr> EvalWhere(const Expr& e, const RowBatch& batch, Reached reached) {
  if (!CanFail(e)) return EvalVector(e, batch);
  const size_t n = batch.num_rows();
  std::vector<int32_t> rows;
  for (size_t i = 0; i < n; ++i)
    if (reached(i)) rows.push_back(static_cast<int32_t>(i));
  RowBatch sub(batch.schema());
  std::vector<int> bindings;
  CollectBindings(e, &bindings);
  for (int b : bindings) {
    if (b < 0 || static_cast<size_t>(b) >= batch.num_columns()) continue;
    auto col = std::make_shared<ColumnVector>(batch.column(b)->type());
    col->AppendGather(*batch.column(b), rows.data(), rows.size());
    sub.SetColumn(b, std::move(col));
  }
  sub.set_num_rows(rows.size());
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr dense, EvalVector(e, sub));
  auto out = NewColumn(dense->type(), n);
  CopyRows(out.get(), rows.data(), *dense, nullptr, rows.size());
  return out;
}

// --- Comparison: Value::Compare, column at a time --------------------------

/// Calls fn(cmp), where cmp(i) is Value::Compare's sign for row i of two
/// operands (meaningful where both are valid). Integer-backed kinds of
/// different families and STRING against non-STRING order by kind id, so
/// their result is one constant per kind pair.
template <typename Fn>
void WithRowCompare(const ColumnVector& l, const ColumnVector& r, Fn fn) {
  const TypeKind lk = l.type().kind, rk = r.type().kind;
  const bool numeric = l.type().IsNumeric() && r.type().IsNumeric();
  if (lk == TypeKind::kString && rk == TypeKind::kString) {
    const auto& a = l.str_data();
    const auto& b = r.str_data();
    fn([&](size_t i) { return ThreeWay(a[i].compare(b[i]), 0); });
  } else if (lk == TypeKind::kDouble && rk == TypeKind::kDouble) {
    const auto& a = l.f64_data();
    const auto& b = r.f64_data();
    fn([&](size_t i) { return ThreeWay(a[i], b[i]); });
  } else if (numeric && (lk == TypeKind::kDouble || rk == TypeKind::kDouble)) {
    // As Value::Compare: both sides as long double, DECIMAL descaled.
    auto widen = [](const ColumnVector& c) {
      std::vector<long double> out(c.size());
      const int64_t pow = c.type().kind == TypeKind::kDecimal ? Pow10(c.type().scale) : 1;
      for (size_t i = 0; i < out.size(); ++i)
        out[i] = c.type().kind == TypeKind::kDouble
                     ? static_cast<long double>(c.f64_data()[i])
                     : static_cast<long double>(c.i64_data()[i]) / pow;
      return out;
    };
    const std::vector<long double> a = widen(l), b = widen(r);
    fn([&](size_t i) { return ThreeWay(a[i], b[i]); });
  } else if (numeric) {  // BIGINT/DECIMAL, exact
    const int ls = lk == TypeKind::kDecimal ? l.type().scale : 0;
    const int rs = rk == TypeKind::kDecimal ? r.type().scale : 0;
    const int64_t* a = l.i64_data().data();
    const int64_t* b = r.i64_data().data();
    fn([=](size_t i) { return CompareScaled(a[i], ls, b[i], rs); });
  } else if (lk == rk) {  // BOOLEAN, DATE, TIMESTAMP
    std::vector<int64_t> sa, sb;
    const int64_t* a = Payloads(l, &sa);
    const int64_t* b = Payloads(r, &sb);
    fn([=](size_t i) { return ThreeWay(a[i], b[i]); });
  } else {
    const int by_kind = ThreeWay(static_cast<int>(lk), static_cast<int>(rk));
    fn([=](size_t) { return by_kind; });
  }
}

/// `l op r` for a comparison op; NULL where either side is NULL.
ColumnVectorPtr CompareColumns(const ColumnVector& l, const ColumnVector& r, BinaryOp op) {
  const size_t n = l.size();
  auto out = NewColumn(DataType::Boolean(), n);
  int64_t* o = out->i64_data().data();
  for (size_t i = 0; i < n; ++i) out->validity()[i] = l.validity()[i] & r.validity()[i];
  WithRowCompare(l, r, [&](auto cmp) {
    auto store = [&](auto holds) {
      for (size_t i = 0; i < n; ++i) o[i] = holds(cmp(i));
    };
    switch (op) {
      case BinaryOp::kEq: store([](int c) { return c == 0; }); break;
      case BinaryOp::kNe: store([](int c) { return c != 0; }); break;
      case BinaryOp::kLt: store([](int c) { return c < 0; }); break;
      case BinaryOp::kLe: store([](int c) { return c <= 0; }); break;
      case BinaryOp::kGt: store([](int c) { return c > 0; }); break;
      default: store([](int c) { return c >= 0; }); break;
    }
  });
  return out;
}

// --- Kernels, one per expression kind ---------------------------------------

/// A column of `type` holding fn(i) on rows where both operands are valid.
template <typename Fn>
ColumnVectorPtr BinaryI64(const DataType& type, const ColumnVector& l,
                          const ColumnVector& r, Fn fn) {
  const size_t n = l.size();
  auto out = NewColumn(type, n);
  int64_t* o = out->i64_data().data();
  for (size_t i = 0; i < n; ++i) {
    out->validity()[i] = l.validity()[i] & r.validity()[i];
    o[i] = fn(i);
  }
  return out;
}

template <typename Fn>
ColumnVectorPtr BinaryF64(const ColumnVector& l, const ColumnVector& r, Fn fn) {
  const size_t n = l.size();
  auto out = NewColumn(DataType::Double(), n);
  double* o = out->f64_data().data();
  for (size_t i = 0; i < n; ++i) {
    out->validity()[i] = l.validity()[i] & r.validity()[i];
    o[i] = fn(i);
  }
  return out;
}

/// AND/OR with SQL three-valued logic. The right side is evaluated only
/// where the left one does not decide (FALSE under AND, TRUE under OR).
Result<ColumnVectorPtr> EvalLogic(const Expr& e, const RowBatch& batch) {
  const bool is_and = e.bin_op == BinaryOp::kAnd;
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr l, EvalVector(*e.children[0], batch));
  std::vector<int64_t> ls, rs;
  const int64_t* lp = Payloads(*l, &ls);
  const auto& lv = l->validity();
  auto decides = [is_and](uint8_t valid, int64_t payload) {
    return valid && (payload != 0) != is_and;
  };
  HIVE_ASSIGN_OR_RETURN(
      ColumnVectorPtr r, EvalWhere(*e.children[1], batch,
                                   [&](size_t i) { return !decides(lv[i], lp[i]); }));
  const int64_t* rp = Payloads(*r, &rs);
  const auto& rv = r->validity();
  const size_t n = batch.num_rows();
  auto out = NewColumn(DataType::Boolean(), n);
  for (size_t i = 0; i < n; ++i) {
    const bool decided = decides(lv[i], lp[i]) || decides(rv[i], rp[i]);
    out->validity()[i] = decided || (lv[i] && rv[i]);
    out->i64_data()[i] = decided ? !is_and : is_and;
  }
  return out;
}

Result<ColumnVectorPtr> EvalBinary(const Expr& e, const RowBatch& batch) {
  if (e.bin_op == BinaryOp::kAnd || e.bin_op == BinaryOp::kOr) return EvalLogic(e, batch);
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr l, EvalVector(*e.children[0], batch));
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr r, EvalVector(*e.children[1], batch));
  const size_t n = batch.num_rows();
  std::vector<int64_t> li, ri;
  std::vector<double> lf, rf;
  switch (e.bin_op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return CompareColumns(*l, *r, e.bin_op);
    case BinaryOp::kAdd:
    case BinaryOp::kSub: {
      const bool minus = e.bin_op == BinaryOp::kSub;
      auto add = [minus](int64_t a, int64_t b) { return minus ? WrapSub(a, b) : WrapAdd(a, b); };
      const TypeKind lk = l->type().kind;
      if (lk == TypeKind::kDate || lk == TypeKind::kTimestamp) {
        // DATE/TIMESTAMP +/- a day count (INTERVAL n DAY binds to BIGINT).
        const int64_t unit = lk == TypeKind::kTimestamp ? kMicrosPerDay : 1;
        const int64_t* a = l->i64_data().data();
        const int64_t* b = Int64s(*r, &ri);
        return BinaryI64(l->type(), *l, *r,
                         [&](size_t i) { return add(a[i], WrapMul(b[i], unit)); });
      }
      if (e.type.kind == TypeKind::kDouble) {
        const double* a = Doubles(*l, &lf);
        const double* b = Doubles(*r, &rf);
        return BinaryF64(*l, *r, [&](size_t i) { return minus ? a[i] - b[i] : a[i] + b[i]; });
      }
      if (e.type.kind == TypeKind::kDecimal) {
        ColumnVectorPtr lc = ConformColumn(l, e.type), rc = ConformColumn(r, e.type);
        const int64_t* a = lc->i64_data().data();
        const int64_t* b = rc->i64_data().data();
        return BinaryI64(e.type, *l, *r, [&](size_t i) { return add(a[i], b[i]); });
      }
      const int64_t* a = Int64s(*l, &li);
      const int64_t* b = Int64s(*r, &ri);
      return BinaryI64(DataType::Bigint(), *l, *r, [&](size_t i) { return add(a[i], b[i]); });
    }
    case BinaryOp::kMul: {
      if (e.type.kind == TypeKind::kDouble || e.type.kind == TypeKind::kDecimal) {
        const double* a = Doubles(*l, &lf);
        const double* b = Doubles(*r, &rf);
        if (e.type.kind == TypeKind::kDouble)
          return BinaryF64(*l, *r, [&](size_t i) { return a[i] * b[i]; });
        const int64_t pow = Pow10(e.type.scale);
        return BinaryI64(e.type, *l, *r, [&](size_t i) {
          const double v = a[i] * b[i];
          return static_cast<int64_t>(std::llround(v * pow));
        });
      }
      const int64_t* a = Int64s(*l, &li);
      const int64_t* b = Int64s(*r, &ri);
      return BinaryI64(DataType::Bigint(), *l, *r,
                       [&](size_t i) { return WrapMul(a[i], b[i]); });
    }
    case BinaryOp::kDiv: {
      // NULL on a zero divisor.
      const double* a = Doubles(*l, &lf);
      const double* b = Doubles(*r, &rf);
      auto out = BinaryF64(*l, *r, [&](size_t i) { return b[i] == 0 ? 0.0 : a[i] / b[i]; });
      for (size_t i = 0; i < n; ++i) out->validity()[i] &= b[i] != 0;
      return out;
    }
    case BinaryOp::kMod: {
      const int64_t* a = Int64s(*l, &li);
      const int64_t* b = Int64s(*r, &ri);
      auto out = BinaryI64(DataType::Bigint(), *l, *r,
                           [&](size_t i) { return b[i] == 0 ? 0 : SqlMod(a[i], b[i]); });
      for (size_t i = 0; i < n; ++i) out->validity()[i] &= b[i] != 0;
      return out;
    }
    case BinaryOp::kLike:
    case BinaryOp::kConcat: {
      const bool like = e.bin_op == BinaryOp::kLike;
      ColumnVectorPtr lt = ConformColumn(l, DataType::String());
      ColumnVectorPtr rt = ConformColumn(r, DataType::String());
      auto out = NewColumn(like ? DataType::Boolean() : DataType::String(), n);
      for (size_t i = 0; i < n; ++i) {
        out->validity()[i] = l->validity()[i] & r->validity()[i];
        if (!out->validity()[i]) continue;
        const std::string& a = lt->str_data()[i];
        const std::string& b = rt->str_data()[i];
        if (like) {
          out->i64_data()[i] = SqlLike(a, b);
        } else {
          out->str_data()[i] = a + b;
        }
      }
      return out;
    }
    default:
      return Status::ExecError("unhandled binary op");
  }
}

Result<ColumnVectorPtr> EvalUnary(const Expr& e, const RowBatch& batch) {
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v, EvalVector(*e.children[0], batch));
  const size_t n = batch.num_rows();
  const TypeKind kind = v->type().kind;
  if (e.un_op == UnaryOp::kNegate && kind == TypeKind::kDouble) {
    auto out = NewColumn(DataType::Double(), n);
    out->validity() = v->validity();
    for (size_t i = 0; i < n; ++i) out->f64_data()[i] = -v->f64_data()[i];
    return out;
  }
  // NOT tests the payload for truth; minus negates it (a DECIMAL keeps its
  // scale, other kinds become BIGINT).
  const bool negate = e.un_op == UnaryOp::kNegate;
  std::vector<int64_t> buf;
  const int64_t* p = Payloads(*v, &buf);
  auto out = NewColumn(!negate ? DataType::Boolean()
                       : kind == TypeKind::kDecimal ? v->type()
                                                    : DataType::Bigint(),
                       n);
  out->validity() = v->validity();
  int64_t* o = out->i64_data().data();
  for (size_t i = 0; i < n; ++i) o[i] = negate ? WrapSub(0, p[i]) : p[i] == 0;
  return out;
}

/// CASE: each WHEN runs only on rows no earlier WHEN took, each THEN only
/// on its own rows, the ELSE on the rest.
Result<ColumnVectorPtr> EvalCase(const Expr& e, const RowBatch& batch) {
  const size_t n = batch.num_rows();
  const size_t pairs = (e.children.size() - (e.has_else ? 1 : 0)) / 2;
  auto out = NewColumn(e.type, n);
  std::vector<uint8_t> open(n, 1), taken(n);
  std::vector<int64_t> buf;
  size_t remaining = n;
  for (size_t p = 0; p < pairs && remaining > 0; ++p) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr when,
                          EvalWhere(*e.children[2 * p], batch,
                                    [&](size_t i) { return open[i] != 0; }));
    const int64_t* truth = Payloads(*when, &buf);
    for (size_t i = 0; i < n; ++i) {
      taken[i] = open[i] && when->validity()[i] && truth[i] != 0;
      open[i] &= !taken[i];
      remaining -= taken[i];
    }
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr then,
                          EvalWhere(*e.children[2 * p + 1], batch,
                                    [&](size_t i) { return taken[i] != 0; }));
    const std::vector<int32_t> rows = RowsWhere(taken);
    CopyRows(out.get(), rows.data(), *ConformColumn(then, e.type), rows.data(), rows.size());
  }
  if (e.has_else && remaining > 0) {
    HIVE_ASSIGN_OR_RETURN(
        ColumnVectorPtr other,
        EvalWhere(*e.children.back(), batch, [&](size_t i) { return open[i] != 0; }));
    const std::vector<int32_t> rows = RowsWhere(open);
    CopyRows(out.get(), rows.data(), *ConformColumn(other, e.type), rows.data(), rows.size());
  }
  return out;
}

/// IN / NOT IN: item k runs only on rows with a non-NULL operand that no
/// earlier item matched. No match and a NULL item give NULL.
Result<ColumnVectorPtr> EvalInList(const Expr& e, const RowBatch& batch) {
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v, EvalVector(*e.children[0], batch));
  const size_t n = batch.num_rows();
  auto out = NewColumn(DataType::Boolean(), n);
  std::vector<uint8_t> open = v->validity(), saw_null(n, 0);
  for (size_t k = 1; k < e.children.size(); ++k) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr item,
                          EvalWhere(*e.children[k], batch,
                                    [&](size_t i) { return open[i] != 0; }));
    ColumnVectorPtr eq = CompareColumns(*v, *item, BinaryOp::kEq);
    for (size_t i = 0; i < n; ++i) {
      if (!open[i]) continue;
      if (!item->validity()[i]) {
        saw_null[i] = 1;
      } else if (eq->i64_data()[i]) {
        open[i] = 0;
        out->validity()[i] = 1;
        out->i64_data()[i] = !e.negated;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!open[i] || saw_null[i]) continue;
    out->validity()[i] = 1;
    out->i64_data()[i] = e.negated;
  }
  return out;
}

/// [NOT] BETWEEN: two comparisons; NULL if any operand is NULL.
Result<ColumnVectorPtr> EvalBetween(const Expr& e, const RowBatch& batch) {
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v, EvalVector(*e.children[0], batch));
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr lo, EvalVector(*e.children[1], batch));
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr hi, EvalVector(*e.children[2], batch));
  ColumnVectorPtr out = CompareColumns(*v, *lo, BinaryOp::kGe);
  ColumnVectorPtr le = CompareColumns(*v, *hi, BinaryOp::kLe);
  for (size_t i = 0; i < out->size(); ++i) {
    out->validity()[i] &= le->validity()[i];
    out->i64_data()[i] = (out->i64_data()[i] & le->i64_data()[i]) != e.negated;
  }
  return out;
}

/// A function call: ApplyFunction on each row's arguments.
Result<ColumnVectorPtr> EvalFunction(const Expr& e, const RowBatch& batch) {
  std::vector<ColumnVectorPtr> args;
  for (const ExprPtr& c : e.children) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*c, batch));
    args.push_back(std::move(col));
  }
  auto out = std::make_shared<ColumnVector>(e.type);
  std::vector<Value> row_args(args.size());
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    for (size_t a = 0; a < args.size(); ++a) row_args[a] = args[a]->GetValue(i);
    HIVE_ASSIGN_OR_RETURN(Value v, ApplyFunction(e.func_name, row_args));
    out->AppendValue(ConformToType(std::move(v), e.type));
  }
  return out;
}

/// The value of `e` on every row, before EvalVector stores it as e.type.
Result<ColumnVectorPtr> EvalNode(const Expr& e, const RowBatch& batch) {
  const size_t n = batch.num_rows();
  switch (e.kind) {
    case ExprKind::kColumnRef:
      if (e.binding < 0 || static_cast<size_t>(e.binding) >= batch.num_columns())
        return Status::ExecError("vector binding out of range: " + e.ToString());
      return batch.column(e.binding);
    case ExprKind::kLiteral:
      return Broadcast(e.literal, e.type, n);
    case ExprKind::kBinary:
      return EvalBinary(e, batch);
    case ExprKind::kUnary:
      return EvalUnary(e, batch);
    case ExprKind::kCase:
      return EvalCase(e, batch);
    case ExprKind::kCast: {
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v, EvalVector(*e.children[0], batch));
      return Convert(v, e.cast_type, Conversion::kCast);
    }
    case ExprKind::kInList:
      return EvalInList(e, batch);
    case ExprKind::kBetween:
      return EvalBetween(e, batch);
    case ExprKind::kIsNull: {
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v, EvalVector(*e.children[0], batch));
      auto out = NewColumn(DataType::Boolean(), n);
      std::fill(out->validity().begin(), out->validity().end(), 1);
      for (size_t i = 0; i < n; ++i) out->i64_data()[i] = (v->validity()[i] != 0) == e.negated;
      return out;
    }
    case ExprKind::kFunction:
      return EvalFunction(e, batch);
    case ExprKind::kStar:
    case ExprKind::kSubquery:
    case ExprKind::kParam:
      break;
  }
  return Status::ExecError("cannot evaluate " + e.ToString());
}

}  // namespace

Result<ColumnVectorPtr> EvalVector(const Expr& e, const RowBatch& batch) {
  // No row reaches `e`, so nothing can fail.
  if (batch.num_rows() == 0) return std::make_shared<ColumnVector>(e.type);
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v, EvalNode(e, batch));
  // A column reference yields its input as it is; computed values are
  // stored as e.type.
  if (e.kind == ExprKind::kColumnRef) return v;
  return ConformColumn(v, e.type);
}

Result<Value> EvalConstant(const Expr& e) {
  RowBatch one;
  one.set_num_rows(1);
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v, EvalVector(e, one));
  return v->GetValue(0);
}

}  // namespace hive
