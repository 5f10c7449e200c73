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

uint64_t HashI64(int64_t v) { return Murmur64(&v, sizeof v, 0x5eed); }
uint64_t HashBits(double d) { return Murmur64(&d, sizeof d, 0x5eed); }

/// Integral doubles hash equal with bigints (the Value::Hash contract).
uint64_t HashF64(double d) {
  int64_t asint = static_cast<int64_t>(d);
  return static_cast<double>(asint) == d ? HashI64(asint) : HashBits(d);
}

/// Calls sink(i, hash) with the hash of row `row_at(i)` of `col` for i < n.
/// Each kind mirrors the corresponding Value::Hash() case exactly.
template <typename RowAt, typename Sink>
void HashRows(const ColumnVector& col, size_t n, RowAt row_at, Sink sink) {
  const auto& valid = col.validity();
  auto each = [&](auto hash_row) {
    for (size_t i = 0; i < n; ++i) {
      const size_t r = row_at(i);
      sink(i, valid[r] ? hash_row(r) : kNullHash);
    }
  };
  const auto& i64 = col.i64_data();
  switch (col.type().kind) {
    case TypeKind::kString: {
      const auto& str = col.str_data();
      each([&](size_t r) { return Murmur64(str[r].data(), str[r].size(), 0x5eed); });
      break;
    }
    case TypeKind::kDouble: {
      const auto& f64 = col.f64_data();
      each([&](size_t r) { return HashF64(f64[r]); });
      break;
    }
    case TypeKind::kDecimal: {
      // Whole decimals hash as their integer, fractional ones as the double.
      const int64_t pow = Pow10(col.type().scale);
      each([&](size_t r) {
        return i64[r] % pow == 0
                   ? HashI64(i64[r] / pow)
                   : HashBits(static_cast<double>(i64[r]) / static_cast<double>(pow));
      });
      break;
    }
    case TypeKind::kBoolean:  // boxes as 0 or 1
      each([&](size_t r) { return HashI64(i64[r] != 0); });
      break;
    default:  // bigint / date / timestamp
      each([&](size_t r) { return HashI64(i64[r]); });
      break;
  }
}

}  // namespace

void HashColumn(const ColumnVector& col, const int32_t* rows, size_t n,
                std::vector<uint64_t>* hashes) {
  hashes->resize(n);
  uint64_t* out = hashes->data();
  auto store = [out](size_t i, uint64_t h) { out[i] = h; };
  if (rows) {
    HashRows(col, n, [rows](size_t i) { return static_cast<size_t>(rows[i]); }, store);
  } else {
    HashRows(col, n, [](size_t i) { return i; }, store);
  }
}

void HashKeyColumns(const std::vector<ColumnVectorPtr>& key_cols, size_t num_rows,
                    std::vector<uint64_t>* hashes, std::vector<uint8_t>* all_valid) {
  hashes->assign(num_rows, kNullHash);
  if (all_valid) all_valid->assign(num_rows, 1);
  uint64_t* out = hashes->data();
  for (const ColumnVectorPtr& col : key_cols) {
    // The per-column HashColumn hashes, folded in place.
    HashRows(*col, num_rows, [](size_t i) { return i; },
             [out](size_t i, uint64_t h) { out[i] = HashCombine(out[i], h); });
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
