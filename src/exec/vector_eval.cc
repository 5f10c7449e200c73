#include "exec/vector_eval.h"

#include <algorithm>

#include "common/hash.h"
#include "optimizer/expr_eval.h"

namespace hive {

namespace {

/// Row-wise fallback: boxes one physical row of the batch.
std::vector<Value> BoxRow(const RowBatch& batch, size_t row) {
  std::vector<Value> out;
  out.reserve(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c)
    out.push_back(batch.column(c)->GetValue(row));
  return out;
}

Result<ColumnVectorPtr> RowWiseEval(const Expr& e, const RowBatch& batch) {
  auto out = std::make_shared<ColumnVector>(e.type);
  const size_t n = batch.num_rows();
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row = BoxRow(batch, i);
    HIVE_ASSIGN_OR_RETURN(Value v, EvalExpr(e, &row));
    out->AppendValue(v);
  }
  return out;
}

bool IsI64Backed(const DataType& t) {
  return t.IsIntegerBacked();
}

/// Vectorized comparison kernel over i64-backed columns.
template <typename Cmp>
ColumnVectorPtr CompareI64(const ColumnVector& l, const ColumnVector& r, Cmp cmp) {
  auto out = std::make_shared<ColumnVector>(DataType::Boolean());
  const size_t n = l.size();
  out->Resize(n);
  const auto& lv = l.i64_data();
  const auto& rv = r.i64_data();
  const auto& ln = l.validity();
  const auto& rn = r.validity();
  auto& ov = out->i64_data();
  auto& on = out->validity();
  for (size_t i = 0; i < n; ++i) {
    on[i] = ln[i] & rn[i];
    ov[i] = cmp(lv[i], rv[i]) ? 1 : 0;
  }
  return out;
}

template <typename OpFn>
ColumnVectorPtr ArithI64(const ColumnVector& l, const ColumnVector& r, DataType type,
                         OpFn fn) {
  auto out = std::make_shared<ColumnVector>(type);
  const size_t n = l.size();
  out->Resize(n);
  const auto& lv = l.i64_data();
  const auto& rv = r.i64_data();
  const auto& ln = l.validity();
  const auto& rn = r.validity();
  auto& ov = out->i64_data();
  auto& on = out->validity();
  for (size_t i = 0; i < n; ++i) {
    on[i] = ln[i] & rn[i];
    ov[i] = fn(lv[i], rv[i]);
  }
  return out;
}

template <typename OpFn>
ColumnVectorPtr ArithF64(const ColumnVector& l, const ColumnVector& r, OpFn fn) {
  auto out = std::make_shared<ColumnVector>(DataType::Double());
  const size_t n = l.size();
  out->Resize(n);
  auto& ov = out->f64_data();
  auto& on = out->validity();
  const auto& ln = l.validity();
  const auto& rn = r.validity();
  auto get_l = [&](size_t i) {
    return l.type().kind == TypeKind::kDouble
               ? l.f64_data()[i]
               : static_cast<double>(l.i64_data()[i]) /
                     static_cast<double>(Pow10(l.type().scale));
  };
  auto get_r = [&](size_t i) {
    return r.type().kind == TypeKind::kDouble
               ? r.f64_data()[i]
               : static_cast<double>(r.i64_data()[i]) /
                     static_cast<double>(Pow10(r.type().scale));
  };
  for (size_t i = 0; i < n; ++i) {
    on[i] = ln[i] & rn[i];
    ov[i] = fn(get_l(i), get_r(i));
  }
  return out;
}

/// Broadcast a literal to a vector of length n.
ColumnVectorPtr Broadcast(const Value& v, DataType type, size_t n) {
  auto out = std::make_shared<ColumnVector>(type);
  out->Resize(n);
  if (v.is_null()) {
    std::fill(out->validity().begin(), out->validity().end(), 0);
    return out;
  }
  std::fill(out->validity().begin(), out->validity().end(), 1);
  switch (type.kind) {
    case TypeKind::kDouble:
      std::fill(out->f64_data().begin(), out->f64_data().end(), v.AsDouble());
      break;
    case TypeKind::kString:
      std::fill(out->str_data().begin(), out->str_data().end(), v.str());
      break;
    case TypeKind::kDecimal: {
      auto cast = v.CastTo(type);
      int64_t unscaled = cast.ok() && !cast->is_null() ? cast->i64() : 0;
      std::fill(out->i64_data().begin(), out->i64_data().end(), unscaled);
      break;
    }
    default:
      std::fill(out->i64_data().begin(), out->i64_data().end(), v.AsInt64());
      break;
  }
  return out;
}

/// Rescales an i64-backed (decimal) column so both comparison sides share a
/// scale; returns the input when no rescale is needed.
ColumnVectorPtr AlignScale(const ColumnVectorPtr& col, int target_scale) {
  int scale = col->type().kind == TypeKind::kDecimal ? col->type().scale : 0;
  if (scale == target_scale) return col;
  auto out = std::make_shared<ColumnVector>(DataType::Decimal(18, target_scale));
  const size_t n = col->size();
  out->Resize(n);
  out->validity() = col->validity();
  int64_t factor = Pow10(target_scale - scale);
  for (size_t i = 0; i < n; ++i) out->i64_data()[i] = col->i64_data()[i] * factor;
  return out;
}

}  // namespace

Result<ColumnVectorPtr> EvalVector(const Expr& e, const RowBatch& batch) {
  const size_t n = batch.num_rows();
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      if (e.binding < 0 || static_cast<size_t>(e.binding) >= batch.num_columns())
        return Status::ExecError("vector binding out of range: " + e.ToString());
      return batch.column(e.binding);
    }
    case ExprKind::kLiteral:
      return Broadcast(e.literal, e.type, n);
    case ExprKind::kBinary: {
      bool comparison = e.bin_op == BinaryOp::kEq || e.bin_op == BinaryOp::kNe ||
                        e.bin_op == BinaryOp::kLt || e.bin_op == BinaryOp::kLe ||
                        e.bin_op == BinaryOp::kGt || e.bin_op == BinaryOp::kGe;
      bool arithmetic = e.bin_op == BinaryOp::kAdd || e.bin_op == BinaryOp::kSub ||
                        e.bin_op == BinaryOp::kMul;
      if (comparison || arithmetic) {
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr l, EvalVector(*e.children[0], batch));
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr r, EvalVector(*e.children[1], batch));
        if (IsI64Backed(l->type()) && IsI64Backed(r->type())) {
          // Align decimal scales, then run the i64 kernel.
          int ls = l->type().kind == TypeKind::kDecimal ? l->type().scale : 0;
          int rs = r->type().kind == TypeKind::kDecimal ? r->type().scale : 0;
          int target = std::max(ls, rs);
          ColumnVectorPtr la = AlignScale(l, target);
          ColumnVectorPtr ra = AlignScale(r, target);
          if (comparison) {
            switch (e.bin_op) {
              case BinaryOp::kEq: return CompareI64(*la, *ra, [](int64_t a, int64_t b) { return a == b; });
              case BinaryOp::kNe: return CompareI64(*la, *ra, [](int64_t a, int64_t b) { return a != b; });
              case BinaryOp::kLt: return CompareI64(*la, *ra, [](int64_t a, int64_t b) { return a < b; });
              case BinaryOp::kLe: return CompareI64(*la, *ra, [](int64_t a, int64_t b) { return a <= b; });
              case BinaryOp::kGt: return CompareI64(*la, *ra, [](int64_t a, int64_t b) { return a > b; });
              default: return CompareI64(*la, *ra, [](int64_t a, int64_t b) { return a >= b; });
            }
          }
          // i64 arithmetic stays integer-backed only when the result type
          // agrees (decimal scales already aligned).
          if (e.type.kind == TypeKind::kBigint ||
              (e.type.kind == TypeKind::kDecimal && e.type.scale == target) ||
              e.type.kind == TypeKind::kDate || e.type.kind == TypeKind::kTimestamp) {
            // DATE/TIMESTAMP +/- INTERVAL adds days; a timestamp counts them
            // in microseconds.
            const int64_t unit = e.type.kind == TypeKind::kTimestamp ? 86400000000LL : 1;
            switch (e.bin_op) {
              case BinaryOp::kAdd:
                return ArithI64(*la, *ra, e.type,
                                [unit](int64_t a, int64_t b) { return a + b * unit; });
              case BinaryOp::kSub:
                return ArithI64(*la, *ra, e.type,
                                [unit](int64_t a, int64_t b) { return a - b * unit; });
              default:
                if (e.type.kind == TypeKind::kBigint)
                  return ArithI64(*la, *ra, e.type, [](int64_t a, int64_t b) { return a * b; });
                break;  // decimal multiply changes scale: fall through
            }
          }
        }
        bool numeric = l->type().IsNumeric() && r->type().IsNumeric();
        if (numeric && comparison) {
          // Double compare producing booleans.
          auto out = std::make_shared<ColumnVector>(DataType::Boolean());
          out->Resize(n);
          const auto& ln = l->validity();
          const auto& rn = r->validity();
          auto getd = [](const ColumnVector& c, size_t i) {
            if (c.type().kind == TypeKind::kDouble) return c.f64_data()[i];
            return static_cast<double>(c.i64_data()[i]) /
                   static_cast<double>(Pow10(c.type().kind == TypeKind::kDecimal
                                                 ? c.type().scale
                                                 : 0));
          };
          for (size_t i = 0; i < n; ++i) {
            out->validity()[i] = ln[i] & rn[i];
            double a = getd(*l, i), b = getd(*r, i);
            bool v = false;
            switch (e.bin_op) {
              case BinaryOp::kEq: v = a == b; break;
              case BinaryOp::kNe: v = a != b; break;
              case BinaryOp::kLt: v = a < b; break;
              case BinaryOp::kLe: v = a <= b; break;
              case BinaryOp::kGt: v = a > b; break;
              default: v = a >= b; break;
            }
            out->i64_data()[i] = v ? 1 : 0;
          }
          return out;
        }
        if (numeric && arithmetic && e.type.kind == TypeKind::kDouble) {
          switch (e.bin_op) {
            case BinaryOp::kAdd: return ArithF64(*l, *r, [](double a, double b) { return a + b; });
            case BinaryOp::kSub: return ArithF64(*l, *r, [](double a, double b) { return a - b; });
            default: return ArithF64(*l, *r, [](double a, double b) { return a * b; });
          }
        }
      }
      if (e.bin_op == BinaryOp::kAnd || e.bin_op == BinaryOp::kOr) {
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr l, EvalVector(*e.children[0], batch));
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr r, EvalVector(*e.children[1], batch));
        auto out = std::make_shared<ColumnVector>(DataType::Boolean());
        out->Resize(n);
        bool is_and = e.bin_op == BinaryOp::kAnd;
        for (size_t i = 0; i < n; ++i) {
          bool lnull = l->IsNull(i), rnull = r->IsNull(i);
          bool lv = !lnull && l->GetI64(i) != 0;
          bool rv = !rnull && r->GetI64(i) != 0;
          if (is_and) {
            if ((!lnull && !lv) || (!rnull && !rv)) {
              out->validity()[i] = 1;
              out->i64_data()[i] = 0;
            } else if (lnull || rnull) {
              out->validity()[i] = 0;
            } else {
              out->validity()[i] = 1;
              out->i64_data()[i] = 1;
            }
          } else {
            if (lv || rv) {
              out->validity()[i] = 1;
              out->i64_data()[i] = 1;
            } else if (lnull || rnull) {
              out->validity()[i] = 0;
            } else {
              out->validity()[i] = 1;
              out->i64_data()[i] = 0;
            }
          }
        }
        return out;
      }
      return RowWiseEval(e, batch);
    }
    default:
      return RowWiseEval(e, batch);
  }
}

namespace {

constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;  // Value::Hash() of NULL

/// One column's contribution, folded into the running combined hashes. Each
/// kind mirrors the corresponding Value::Hash() case exactly.
void FoldColumnHash(const ColumnVector& col, size_t n, std::vector<uint64_t>* hashes) {
  const auto& valid = col.validity();
  auto fold = [&](size_t i, uint64_t h) {
    (*hashes)[i] = HashCombine((*hashes)[i], h);
  };
  switch (col.type().kind) {
    case TypeKind::kString: {
      const auto& data = col.str_data();
      for (size_t i = 0; i < n; ++i)
        fold(i, valid[i] ? Murmur64(data[i].data(), data[i].size(), 0x5eed)
                         : kNullHash);
      break;
    }
    case TypeKind::kDouble: {
      const auto& data = col.f64_data();
      for (size_t i = 0; i < n; ++i) {
        if (!valid[i]) {
          fold(i, kNullHash);
          continue;
        }
        // Integral doubles hash equal with bigints (Value::Hash contract).
        double d = data[i];
        int64_t asint = static_cast<int64_t>(d);
        if (static_cast<double>(asint) == d) {
          fold(i, Murmur64(&asint, sizeof asint, 0x5eed));
        } else {
          fold(i, Murmur64(&d, sizeof d, 0x5eed));
        }
      }
      break;
    }
    case TypeKind::kDecimal: {
      const auto& data = col.i64_data();
      int64_t pow = Pow10(col.type().scale);
      for (size_t i = 0; i < n; ++i) {
        if (!valid[i]) {
          fold(i, kNullHash);
          continue;
        }
        if (data[i] % pow == 0) {
          int64_t whole = data[i] / pow;
          fold(i, Murmur64(&whole, sizeof whole, 0x5eed));
        } else {
          double d = static_cast<double>(data[i]) / static_cast<double>(pow);
          fold(i, Murmur64(&d, sizeof d, 0x5eed));
        }
      }
      break;
    }
    default: {  // bigint / date / timestamp / boolean share the i64 buffer
      const auto& data = col.i64_data();
      for (size_t i = 0; i < n; ++i)
        fold(i, valid[i] ? Murmur64(&data[i], sizeof data[i], 0x5eed) : kNullHash);
      break;
    }
  }
}

}  // namespace

void HashKeyColumns(const std::vector<ColumnVectorPtr>& key_cols, size_t num_rows,
                    std::vector<uint64_t>* hashes, std::vector<uint8_t>* all_valid) {
  hashes->assign(num_rows, kNullHash);
  if (all_valid) all_valid->assign(num_rows, 1);
  for (const ColumnVectorPtr& col : key_cols) {
    FoldColumnHash(*col, num_rows, hashes);
    if (all_valid) {
      const auto& valid = col->validity();
      for (size_t i = 0; i < num_rows; ++i) (*all_valid)[i] &= valid[i];
    }
  }
}

Result<std::vector<int32_t>> FilterSelection(const Expr& predicate,
                                             const RowBatch& batch) {
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr mask, EvalVector(predicate, batch));
  std::vector<int32_t> out;
  out.reserve(batch.SelectedSize());
  for (size_t i = 0; i < batch.SelectedSize(); ++i) {
    int32_t row = batch.SelectedRow(i);
    if (!mask->IsNull(row) && mask->GetI64(row) != 0) out.push_back(row);
  }
  return out;
}

}  // namespace hive
