#include "exec/vector_eval.h"

#include "common/hash.h"

namespace hive {

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
