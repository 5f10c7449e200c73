#ifndef HIVE_COMMON_COLUMN_VECTOR_H_
#define HIVE_COMMON_COLUMN_VECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/types.h"

namespace hive {

/// A typed columnar vector of values, the unit of data flow between the COF
/// reader, the LLAP cache and the vectorized operators. Integer-backed kinds
/// (BIGINT, DATE, TIMESTAMP, DECIMAL, BOOLEAN) share the i64 buffer; DOUBLE
/// uses the f64 buffer; STRING owns a string vector. Validity is a byte per
/// row (1 = non-null).
class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(DataType type) : type_(type) {}

  const DataType& type() const { return type_; }
  void set_type(DataType t) { type_ = t; }
  size_t size() const { return nulls_.size(); }

  bool IsNull(size_t i) const { return nulls_[i] == 0; }
  void SetNull(size_t i) { nulls_[i] = 0; }

  int64_t GetI64(size_t i) const { return i64_[i]; }
  double GetF64(size_t i) const { return f64_[i]; }
  const std::string& GetStr(size_t i) const { return str_[i]; }

  /// Boxed accessor; prefer the typed ones on hot paths.
  Value GetValue(size_t i) const;

  void Resize(size_t n);
  void AppendNull();
  void AppendI64(int64_t v);
  void AppendF64(double v);
  void AppendStr(std::string v);
  void AppendValue(const Value& v);

  /// Appends row `i` of `src` (same type) to this vector.
  void AppendFrom(const ColumnVector& src, size_t i);
  /// Appends rows `rows[0..n)` of `src` (same type, not this vector) in
  /// order; a negative index appends NULL. Byte-identical to a loop of
  /// AppendFrom/AppendNull, with one type switch per call instead of per cell.
  void AppendGather(const ColumnVector& src, const int32_t* rows, size_t n);

  /// Raw buffers for the vectorized kernels.
  std::vector<int64_t>& i64_data() { return i64_; }
  const std::vector<int64_t>& i64_data() const { return i64_; }
  std::vector<double>& f64_data() { return f64_; }
  const std::vector<double>& f64_data() const { return f64_; }
  std::vector<std::string>& str_data() { return str_; }
  const std::vector<std::string>& str_data() const { return str_; }
  std::vector<uint8_t>& validity() { return nulls_; }
  const std::vector<uint8_t>& validity() const { return nulls_; }

  /// Approximate memory footprint; drives LLAP cache accounting.
  size_t ByteSize() const;

 private:
  DataType type_;
  std::vector<uint8_t> nulls_;  // 1 = valid
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
};

using ColumnVectorPtr = std::shared_ptr<ColumnVector>;

/// A batch of rows in columnar layout with an optional selection vector.
/// Filters mark surviving rows in the selection instead of copying, the
/// vectorized-execution idiom the paper inherits from [39].
class RowBatch {
 public:
  RowBatch() = default;
  explicit RowBatch(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnVectorPtr& column(size_t i) const { return columns_[i]; }
  void SetColumn(size_t i, ColumnVectorPtr col) { columns_[i] = std::move(col); }
  void AddColumn(Field field, ColumnVectorPtr col);

  /// Physical row count of the underlying vectors.
  size_t num_rows() const { return num_rows_; }
  void set_num_rows(size_t n) { num_rows_ = n; }

  bool has_selection() const { return has_selection_; }
  const std::vector<int32_t>& selection() const { return selection_; }
  void SetSelection(std::vector<int32_t> sel);
  void ClearSelection();

  /// Logical row count after selection.
  size_t SelectedSize() const { return has_selection_ ? selection_.size() : num_rows_; }
  /// Maps logical row index to physical index.
  int32_t SelectedRow(size_t i) const {
    return has_selection_ ? selection_[i] : static_cast<int32_t>(i);
  }

  /// Materializes the selection into dense vectors (copying survivors).
  void Flatten();

  /// Appends rows `rows` of `src` to this batch's columns, one
  /// ColumnVector::AppendGather per column, and grows num_rows to match.
  void AppendRows(const RowBatch& src, const std::vector<int32_t>& rows);
  /// AppendRows over the selected rows of `src`.
  void AppendSelected(const RowBatch& src);

  /// Row `i` (logical) as boxed values, for tests and result fetch.
  std::vector<Value> GetRow(size_t i) const;

  size_t ByteSize() const;

 private:
  Schema schema_;
  std::vector<ColumnVectorPtr> columns_;
  size_t num_rows_ = 0;
  bool has_selection_ = false;
  std::vector<int32_t> selection_;
};

}  // namespace hive

#endif  // HIVE_COMMON_COLUMN_VECTOR_H_
