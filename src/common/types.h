#ifndef HIVE_COMMON_TYPES_H_
#define HIVE_COMMON_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hive {

/// Physical/logical type kinds supported by the engine. Mirrors the atomic
/// SQL types the paper's SQL dialect exercises. BIGINT is the only integer
/// width (Hive INT/BIGINT both map here); DECIMAL is a scaled int64.
enum class TypeKind : uint8_t {
  kNull = 0,
  kBoolean,
  kBigint,
  kDouble,
  kDecimal,    // unscaled int64 payload + (precision, scale)
  kString,
  kDate,       // int64 days since 1970-01-01
  kTimestamp,  // int64 microseconds since epoch
};

/// A SQL data type: kind plus decimal precision/scale when applicable.
struct DataType {
  TypeKind kind = TypeKind::kNull;
  int16_t precision = 0;
  int16_t scale = 0;

  static DataType Null() { return {TypeKind::kNull, 0, 0}; }
  static DataType Boolean() { return {TypeKind::kBoolean, 0, 0}; }
  static DataType Bigint() { return {TypeKind::kBigint, 0, 0}; }
  static DataType Double() { return {TypeKind::kDouble, 0, 0}; }
  static DataType Decimal(int p, int s) {
    return {TypeKind::kDecimal, static_cast<int16_t>(p), static_cast<int16_t>(s)};
  }
  static DataType String() { return {TypeKind::kString, 0, 0}; }
  static DataType Date() { return {TypeKind::kDate, 0, 0}; }
  static DataType Timestamp() { return {TypeKind::kTimestamp, 0, 0}; }

  bool IsNumeric() const {
    return kind == TypeKind::kBigint || kind == TypeKind::kDouble ||
           kind == TypeKind::kDecimal;
  }
  bool IsIntegerBacked() const {
    return kind == TypeKind::kBigint || kind == TypeKind::kDate ||
           kind == TypeKind::kTimestamp || kind == TypeKind::kDecimal ||
           kind == TypeKind::kBoolean;
  }

  bool operator==(const DataType& o) const {
    return kind == o.kind && precision == o.precision && scale == o.scale;
  }
  bool operator!=(const DataType& o) const { return !(*this == o); }

  /// SQL-ish rendering, e.g. "DECIMAL(7,2)".
  std::string ToString() const;
};

/// A nullable scalar value. Strings own their bytes; integer-backed kinds
/// share the i64 payload (decimal stores the unscaled value with the scale
/// recorded alongside so cross-scale comparison works).
class Value {
 public:
  Value() : kind_(TypeKind::kNull), null_(true) {}

  static Value Null() { return Value(); }
  static Value Boolean(bool v) { Value x(TypeKind::kBoolean); x.i64_ = v ? 1 : 0; return x; }
  static Value Bigint(int64_t v) { Value x(TypeKind::kBigint); x.i64_ = v; return x; }
  static Value Double(double v) { Value x(TypeKind::kDouble); x.f64_ = v; return x; }
  static Value Decimal(int64_t unscaled, int scale) {
    Value x(TypeKind::kDecimal); x.i64_ = unscaled; x.scale_ = static_cast<int16_t>(scale); return x;
  }
  static Value String(std::string v) { Value x(TypeKind::kString); x.str_ = std::move(v); return x; }
  static Value Date(int64_t days) { Value x(TypeKind::kDate); x.i64_ = days; return x; }
  static Value Timestamp(int64_t micros) { Value x(TypeKind::kTimestamp); x.i64_ = micros; return x; }

  bool is_null() const { return null_; }
  TypeKind kind() const { return kind_; }
  int scale() const { return scale_; }

  bool bool_value() const { return i64_ != 0; }
  int64_t i64() const { return i64_; }
  double f64() const { return f64_; }
  const std::string& str() const { return str_; }

  /// Numeric view regardless of backing kind (decimal is descaled).
  double AsDouble() const;
  /// Integer view; doubles are truncated.
  int64_t AsInt64() const;

  /// Total ordering used by ORDER BY / min-max indexes: nulls first, then by
  /// value. Comparing numeric kinds cross-kind is allowed; other cross-kind
  /// comparisons order by kind id. Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  /// Hash for group-by / join keys. Equal values (incl. cross numeric kind
  /// integral equality) hash equal by first normalizing.
  uint64_t Hash() const;

  bool operator==(const Value& o) const { return Compare(*this, o) == 0; }
  bool operator!=(const Value& o) const { return Compare(*this, o) != 0; }
  bool operator<(const Value& o) const { return Compare(*this, o) < 0; }

  /// SQL literal rendering ("NULL", quoted strings, ISO dates...).
  std::string ToString() const;

  /// Parses text into a value of the requested type. Empty/"\\N" -> NULL.
  static Result<Value> Parse(const std::string& text, const DataType& type);

  /// Best-effort cast between kinds (numeric widen/narrow, string parse).
  Result<Value> CastTo(const DataType& type) const;

 private:
  explicit Value(TypeKind k) : kind_(k), null_(false) {}

  TypeKind kind_;
  bool null_ = true;
  int16_t scale_ = 0;
  int64_t i64_ = 0;
  double f64_ = 0;
  std::string str_;
};

/// Hash functor for unordered containers of Value (DISTINCT accumulators).
/// Pairs with the default std::equal_to<Value> (Value::Compare equality), so
/// cross-kind numeric equality groups together just as the ordered set did.
struct ValueHasher {
  size_t operator()(const Value& v) const { return static_cast<size_t>(v.Hash()); }
};

/// --- Civil date/time helpers (Howard Hinnant's algorithms) ---

/// days since 1970-01-01 for a proleptic Gregorian date.
int64_t DaysFromCivil(int y, unsigned m, unsigned d);
/// Inverse of DaysFromCivil.
void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d);
/// Parse "YYYY-MM-DD" into days-since-epoch.
Result<int64_t> ParseDate(const std::string& s);
/// Parse "YYYY-MM-DD[ HH:MM:SS]" into micros-since-epoch.
Result<int64_t> ParseTimestamp(const std::string& s);
/// Render days-since-epoch as "YYYY-MM-DD".
std::string FormatDate(int64_t days);
/// Render micros-since-epoch as "YYYY-MM-DD HH:MM:SS".
std::string FormatTimestamp(int64_t micros);

/// Extract a field (YEAR, MONTH, DAY, HOUR...) from a date/timestamp value.
enum class DateField { kYear, kQuarter, kMonth, kDay, kHour, kMinute, kSecond };
int64_t ExtractDateField(DateField f, const Value& v);

/// Power-of-ten table for decimal rescaling (10^0 .. 10^18).
int64_t Pow10(int n);

/// Sign of a - b (-1, 0 or 1) without subtracting, so operands more than
/// INT64_MAX apart still order correctly.
template <typename T>
int ThreeWay(T a, T b) {
  return (a > b) - (a < b);
}

/// Value::Compare of two non-NULL DECIMAL/BIGINT payloads at the given scales
/// (0 for BIGINT): exact, both sides at the larger scale in 128 bits
/// (10^18 * 2^63 fits).
inline int CompareScaled(int64_t a, int a_scale, int64_t b, int b_scale) {
  if (a_scale == b_scale) return ThreeWay(a, b);
  const int scale = a_scale > b_scale ? a_scale : b_scale;
  return ThreeWay(static_cast<__int128>(a) * Pow10(scale - a_scale),
                  static_cast<__int128>(b) * Pow10(scale - b_scale));
}

/// Two's-complement int64 arithmetic: SQL BIGINT overflow wraps instead of
/// being undefined behaviour.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}

/// A TIMESTAMP counts microseconds; DATE arithmetic and casts convert days.
constexpr int64_t kMicrosPerDay = 86400LL * 1000000LL;

}  // namespace hive

#endif  // HIVE_COMMON_TYPES_H_
