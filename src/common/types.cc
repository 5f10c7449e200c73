#include "common/types.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/hash.h"

namespace hive {

std::string DataType::ToString() const {
  switch (kind) {
    case TypeKind::kNull: return "NULL";
    case TypeKind::kBoolean: return "BOOLEAN";
    case TypeKind::kBigint: return "BIGINT";
    case TypeKind::kDouble: return "DOUBLE";
    case TypeKind::kDecimal: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "DECIMAL(%d,%d)", precision, scale);
      return buf;
    }
    case TypeKind::kString: return "STRING";
    case TypeKind::kDate: return "DATE";
    case TypeKind::kTimestamp: return "TIMESTAMP";
  }
  return "?";
}

int64_t Pow10(int n) {
  static const int64_t kPow10[19] = {
      1LL, 10LL, 100LL, 1000LL, 10000LL, 100000LL, 1000000LL, 10000000LL,
      100000000LL, 1000000000LL, 10000000000LL, 100000000000LL,
      1000000000000LL, 10000000000000LL, 100000000000000LL,
      1000000000000000LL, 10000000000000000LL, 100000000000000000LL,
      1000000000000000000LL};
  if (n < 0) return 1;
  if (n > 18) return kPow10[18];
  return kPow10[n];
}

double Value::AsDouble() const {
  switch (kind_) {
    case TypeKind::kDouble: return f64_;
    case TypeKind::kDecimal: return static_cast<double>(i64_) / static_cast<double>(Pow10(scale_));
    case TypeKind::kString: return std::strtod(str_.c_str(), nullptr);
    default: return static_cast<double>(i64_);
  }
}

int64_t Value::AsInt64() const {
  switch (kind_) {
    case TypeKind::kDouble: return static_cast<int64_t>(f64_);
    case TypeKind::kDecimal: return i64_ / Pow10(scale_);
    case TypeKind::kString: return std::strtoll(str_.c_str(), nullptr, 10);
    default: return i64_;
  }
}

namespace {
bool IsNumericKind(TypeKind k) {
  return k == TypeKind::kBigint || k == TypeKind::kDouble || k == TypeKind::kDecimal;
}
}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  if (a.null_ || b.null_) {
    if (a.null_ && b.null_) return 0;
    return a.null_ ? -1 : 1;
  }
  if (a.kind_ == b.kind_) {
    switch (a.kind_) {
      case TypeKind::kString: return a.str_.compare(b.str_) < 0 ? -1 : (a.str_ == b.str_ ? 0 : 1);
      case TypeKind::kDouble: {
        if (a.f64_ < b.f64_) return -1;
        if (a.f64_ > b.f64_) return 1;
        return 0;
      }
      case TypeKind::kDecimal: return CompareScaled(a.i64_, a.scale_, b.i64_, b.scale_);
      default: return ThreeWay(a.i64_, b.i64_);
    }
  }
  if (IsNumericKind(a.kind_) && IsNumericKind(b.kind_)) {
    // BIGINT and DECIMAL compare exactly; a DOUBLE side goes through long double.
    if (a.kind_ != TypeKind::kDouble && b.kind_ != TypeKind::kDouble)
      return CompareScaled(a.i64_, a.kind_ == TypeKind::kDecimal ? a.scale_ : 0, b.i64_,
                           b.kind_ == TypeKind::kDecimal ? b.scale_ : 0);
    long double x = a.kind_ == TypeKind::kDouble ? a.f64_
                  : a.kind_ == TypeKind::kDecimal
                        ? static_cast<long double>(a.i64_) / Pow10(a.scale_)
                        : static_cast<long double>(a.i64_);
    long double y = b.kind_ == TypeKind::kDouble ? b.f64_
                  : b.kind_ == TypeKind::kDecimal
                        ? static_cast<long double>(b.i64_) / Pow10(b.scale_)
                        : static_cast<long double>(b.i64_);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  // Strings vs numerics etc: order by kind id for a stable total order.
  return static_cast<int>(a.kind_) - static_cast<int>(b.kind_);
}

uint64_t Value::Hash() const {
  if (null_) return 0x9e3779b97f4a7c15ULL;
  switch (kind_) {
    case TypeKind::kString:
      return Murmur64(str_.data(), str_.size(), 0x5eed);
    case TypeKind::kDouble: {
      // Normalize integral doubles to hash equal with bigints.
      double d = f64_;
      int64_t asint = static_cast<int64_t>(d);
      if (static_cast<double>(asint) == d) return Murmur64(&asint, sizeof asint, 0x5eed);
      return Murmur64(&d, sizeof d, 0x5eed);
    }
    case TypeKind::kDecimal: {
      if (i64_ % Pow10(scale_) == 0) {
        int64_t whole = i64_ / Pow10(scale_);
        return Murmur64(&whole, sizeof whole, 0x5eed);
      }
      double d = AsDouble();
      return Murmur64(&d, sizeof d, 0x5eed);
    }
    default:
      return Murmur64(&i64_, sizeof i64_, 0x5eed);
  }
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (kind_) {
    case TypeKind::kNull: return "NULL";
    case TypeKind::kBoolean: return i64_ ? "true" : "false";
    case TypeKind::kBigint: return std::to_string(i64_);
    case TypeKind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", f64_);
      return buf;
    }
    case TypeKind::kDecimal: {
      int64_t p = Pow10(scale_);
      int64_t whole = i64_ / p;
      int64_t frac = std::llabs(i64_ % p);
      if (scale_ == 0) return std::to_string(whole);
      std::string out;
      if (i64_ < 0 && whole == 0) out += "-";
      out += std::to_string(whole);
      out += ".";
      std::string frac_digits = std::to_string(frac);
      int width = scale_ > 18 ? 18 : static_cast<int>(scale_);
      if (static_cast<int>(frac_digits.size()) < width)
        out.append(width - frac_digits.size(), '0');
      out += frac_digits;
      return out;
    }
    case TypeKind::kString: return str_;
    case TypeKind::kDate: return FormatDate(i64_);
    case TypeKind::kTimestamp: return FormatTimestamp(i64_);
  }
  return "?";
}

Result<Value> Value::Parse(const std::string& text, const DataType& type) {
  if (text.empty() || text == "\\N" || text == "NULL") return Value::Null();
  switch (type.kind) {
    case TypeKind::kBoolean:
      return Value::Boolean(text == "true" || text == "TRUE" || text == "1");
    case TypeKind::kBigint: {
      char* end = nullptr;
      int64_t v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str()) return Status::InvalidArgument("bad BIGINT: " + text);
      return Value::Bigint(v);
    }
    case TypeKind::kDouble: {
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str()) return Status::InvalidArgument("bad DOUBLE: " + text);
      return Value::Double(v);
    }
    case TypeKind::kDecimal: {
      // Parse [-]digits[.digits] at the declared scale.
      const char* p = text.c_str();
      bool neg = *p == '-';
      if (neg || *p == '+') ++p;
      int64_t whole = 0;
      while (*p >= '0' && *p <= '9') whole = whole * 10 + (*p++ - '0');
      int64_t frac = 0;
      int fdigits = 0;
      if (*p == '.') {
        ++p;
        while (*p >= '0' && *p <= '9' && fdigits < type.scale) {
          frac = frac * 10 + (*p++ - '0');
          ++fdigits;
        }
        while (*p >= '0' && *p <= '9') ++p;  // truncate extra digits
      }
      int64_t unscaled = whole * Pow10(type.scale) + frac * Pow10(type.scale - fdigits);
      return Value::Decimal(neg ? -unscaled : unscaled, type.scale);
    }
    case TypeKind::kString:
      return Value::String(text);
    case TypeKind::kDate: {
      HIVE_ASSIGN_OR_RETURN(int64_t days, ParseDate(text));
      return Value::Date(days);
    }
    case TypeKind::kTimestamp: {
      HIVE_ASSIGN_OR_RETURN(int64_t us, ParseTimestamp(text));
      return Value::Timestamp(us);
    }
    case TypeKind::kNull:
      return Value::Null();
  }
  return Status::InvalidArgument("unknown type");
}

Result<Value> Value::CastTo(const DataType& type) const {
  if (null_) return Value::Null();
  if (type.kind == kind_ && type.kind != TypeKind::kDecimal) return *this;
  switch (type.kind) {
    case TypeKind::kBoolean: return Value::Boolean(AsInt64() != 0);
    case TypeKind::kBigint: return Value::Bigint(AsInt64());
    case TypeKind::kDouble: return Value::Double(AsDouble());
    case TypeKind::kDecimal: {
      if (kind_ == TypeKind::kDecimal) {
        if (scale_ == type.scale) return *this;
        if (scale_ < type.scale)
          return Value::Decimal(WrapMul(i64_, Pow10(type.scale - scale_)), type.scale);
        return Value::Decimal(i64_ / Pow10(scale_ - type.scale), type.scale);
      }
      if (kind_ == TypeKind::kDouble)
        return Value::Decimal(static_cast<int64_t>(std::llround(f64_ * Pow10(type.scale))), type.scale);
      return Value::Decimal(WrapMul(AsInt64(), Pow10(type.scale)), type.scale);
    }
    case TypeKind::kString: return Value::String(ToString());
    case TypeKind::kDate:
      if (kind_ == TypeKind::kString) return Parse(str_, type);
      if (kind_ == TypeKind::kTimestamp) return Value::Date(i64_ / kMicrosPerDay);
      return Value::Date(AsInt64());
    case TypeKind::kTimestamp:
      if (kind_ == TypeKind::kString) return Parse(str_, type);
      if (kind_ == TypeKind::kDate) return Value::Timestamp(WrapMul(i64_, kMicrosPerDay));
      return Value::Timestamp(AsInt64());
    case TypeKind::kNull: return Value::Null();
  }
  return Status::InvalidArgument("bad cast");
}

// --- Civil date/time (algorithms by Howard Hinnant, public domain) ---

int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}

Result<int64_t> ParseDate(const std::string& s) {
  int y;
  unsigned m, d;
  if (std::sscanf(s.c_str(), "%d-%u-%u", &y, &m, &d) != 3)
    return Status::InvalidArgument("bad DATE: " + s);
  return DaysFromCivil(y, m, d);
}

Result<int64_t> ParseTimestamp(const std::string& s) {
  int y;
  unsigned m, d, hh = 0, mm = 0, ss = 0;
  int n = std::sscanf(s.c_str(), "%d-%u-%u %u:%u:%u", &y, &m, &d, &hh, &mm, &ss);
  if (n < 3) return Status::InvalidArgument("bad TIMESTAMP: " + s);
  int64_t days = DaysFromCivil(y, m, d);
  return ((days * 86400LL) + hh * 3600LL + mm * 60LL + ss) * 1000000LL;
}

std::string FormatDate(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04d-%02u-%02u", y, m, d);
  return buf;
}

std::string FormatTimestamp(int64_t micros) {
  int64_t secs = micros / 1000000LL;
  int64_t days = secs / 86400;
  int64_t rem = secs % 86400;
  if (rem < 0) {
    rem += 86400;
    days -= 1;
  }
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%04d-%02u-%02u %02lld:%02lld:%02lld", y, m, d,
                static_cast<long long>(rem / 3600),
                static_cast<long long>((rem % 3600) / 60),
                static_cast<long long>(rem % 60));
  return buf;
}

int64_t ExtractDateField(DateField f, const Value& v) {
  int64_t days;
  int64_t rem_secs = 0;
  if (v.kind() == TypeKind::kTimestamp) {
    int64_t secs = v.i64() / 1000000LL;
    days = secs / 86400;
    rem_secs = secs % 86400;
    if (rem_secs < 0) {
      rem_secs += 86400;
      days -= 1;
    }
  } else {
    days = v.i64();
  }
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  switch (f) {
    case DateField::kYear: return y;
    case DateField::kQuarter: return (m - 1) / 3 + 1;
    case DateField::kMonth: return m;
    case DateField::kDay: return d;
    case DateField::kHour: return rem_secs / 3600;
    case DateField::kMinute: return (rem_secs % 3600) / 60;
    case DateField::kSecond: return rem_secs % 60;
  }
  return 0;
}

}  // namespace hive
