#include "common/column_vector.h"

#include <numeric>

namespace hive {

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_.kind) {
    case TypeKind::kBoolean: return Value::Boolean(i64_[i] != 0);
    case TypeKind::kBigint: return Value::Bigint(i64_[i]);
    case TypeKind::kDouble: return Value::Double(f64_[i]);
    case TypeKind::kDecimal: return Value::Decimal(i64_[i], type_.scale);
    case TypeKind::kString: return Value::String(str_[i]);
    case TypeKind::kDate: return Value::Date(i64_[i]);
    case TypeKind::kTimestamp: return Value::Timestamp(i64_[i]);
    case TypeKind::kNull: return Value::Null();
  }
  return Value::Null();
}

void ColumnVector::Resize(size_t n) {
  nulls_.resize(n, 0);
  if (type_.kind == TypeKind::kDouble) {
    f64_.resize(n, 0);
  } else if (type_.kind == TypeKind::kString) {
    str_.resize(n);
  } else {
    i64_.resize(n, 0);
  }
}

void ColumnVector::AppendNull() {
  nulls_.push_back(0);
  if (type_.kind == TypeKind::kDouble) {
    f64_.push_back(0);
  } else if (type_.kind == TypeKind::kString) {
    str_.emplace_back();
  } else {
    i64_.push_back(0);
  }
}

void ColumnVector::AppendI64(int64_t v) {
  nulls_.push_back(1);
  i64_.push_back(v);
}

void ColumnVector::AppendF64(double v) {
  nulls_.push_back(1);
  f64_.push_back(v);
}

void ColumnVector::AppendStr(std::string v) {
  nulls_.push_back(1);
  str_.push_back(std::move(v));
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_.kind) {
    case TypeKind::kDouble:
      AppendF64(v.AsDouble());
      break;
    case TypeKind::kString:
      AppendStr(v.kind() == TypeKind::kString ? v.str() : v.ToString());
      break;
    case TypeKind::kDecimal: {
      if (v.kind() == TypeKind::kDecimal && v.scale() == type_.scale) {
        AppendI64(v.i64());
      } else {
        auto cast = v.CastTo(type_);
        if (cast.ok() && !cast->is_null()) {
          AppendI64(cast->i64());
        } else {
          AppendNull();
        }
      }
      break;
    }
    default:
      AppendI64(v.AsInt64());
      break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_.kind) {
    case TypeKind::kDouble: AppendF64(src.f64_[i]); break;
    case TypeKind::kString: AppendStr(src.str_[i]); break;
    default: AppendI64(src.i64_[i]); break;
  }
}

void ColumnVector::AppendGather(const ColumnVector& src, const int32_t* rows,
                                size_t n) {
  const size_t base = nulls_.size();
  nulls_.resize(base + n);
  uint8_t* valid = nulls_.data() + base;
  const uint8_t* src_valid = src.nulls_.data();
  // Validity and payload in one pass over the indexes; a NULL writes what
  // AppendNull writes (validity 0, payload 0 or the empty string).
  auto gather = [&](auto& out, const auto& in, const auto& null_payload) {
    const size_t at = out.size();
    out.resize(at + n);
    for (size_t k = 0; k < n; ++k) {
      const int32_t r = rows[k];
      const bool v = r >= 0 && src_valid[r] != 0;
      valid[k] = v;
      out[at + k] = v ? in[static_cast<size_t>(r)] : null_payload;
    }
  };
  switch (type_.kind) {
    case TypeKind::kDouble: gather(f64_, src.f64_, 0.0); break;
    case TypeKind::kString: gather(str_, src.str_, std::string()); break;
    default: gather(i64_, src.i64_, int64_t{0}); break;
  }
}

size_t ColumnVector::ByteSize() const {
  size_t n = nulls_.size() + i64_.size() * 8 + f64_.size() * 8;
  for (const auto& s : str_) n += s.size() + 16;
  return n;
}

RowBatch::RowBatch(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_fields());
  for (size_t i = 0; i < schema_.num_fields(); ++i)
    columns_[i] = std::make_shared<ColumnVector>(schema_.field(i).type);
}

void RowBatch::AddColumn(Field field, ColumnVectorPtr col) {
  schema_.AddField(field.name, field.type);
  columns_.push_back(std::move(col));
}

void RowBatch::SetSelection(std::vector<int32_t> sel) {
  selection_ = std::move(sel);
  has_selection_ = true;
}

void RowBatch::ClearSelection() {
  selection_.clear();
  has_selection_ = false;
}

void RowBatch::Flatten() {
  if (!has_selection_) return;
  for (ColumnVectorPtr& col : columns_) {
    auto dense = std::make_shared<ColumnVector>(col->type());
    dense->AppendGather(*col, selection_.data(), selection_.size());
    col = std::move(dense);
  }
  num_rows_ = selection_.size();
  ClearSelection();
}

void RowBatch::AppendRows(const RowBatch& src, const std::vector<int32_t>& rows) {
  for (size_t c = 0; c < columns_.size() && c < src.columns_.size(); ++c)
    columns_[c]->AppendGather(*src.columns_[c], rows.data(), rows.size());
  num_rows_ += rows.size();
}

void RowBatch::AppendSelected(const RowBatch& src) {
  if (src.has_selection_) {
    AppendRows(src, src.selection_);
    return;
  }
  std::vector<int32_t> all(src.num_rows_);
  std::iota(all.begin(), all.end(), 0);
  AppendRows(src, all);
}

std::vector<Value> RowBatch::GetRow(size_t i) const {
  int32_t row = SelectedRow(i);
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col->GetValue(row));
  return out;
}

size_t RowBatch::ByteSize() const {
  size_t n = selection_.size() * 4;
  for (const auto& col : columns_) n += col ? col->ByteSize() : 0;
  return n;
}

}  // namespace hive
