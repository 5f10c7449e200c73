// The SQL semantics declared in expr_eval.h that EvalVector applies per row:
// function application, the stored form of a value, a value's text and LIKE.
// They are kept apart from the kernels in expr_eval.cc: compiled in one
// translation unit with them, GCC 12 stops inlining ApplyFunction's
// function-name comparisons, and a filter on UPPER or SUBSTR costs about a
// third more per row.
#include "optimizer/expr_eval.h"

#include <cctype>
#include <cmath>

namespace hive {

bool SqlLike(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

std::string TextOf(const Value& v) {
  return v.kind() == TypeKind::kString ? v.str() : v.ToString();
}

Value ConformToType(Value v, const DataType& t) {
  if (v.is_null() || t.kind == TypeKind::kNull) return v;
  if (v.kind() == t.kind && (t.kind != TypeKind::kDecimal || v.scale() == t.scale))
    return v;
  switch (t.kind) {
    case TypeKind::kDouble: return Value::Double(v.AsDouble());
    case TypeKind::kString: return Value::String(v.ToString());
    case TypeKind::kDecimal: {
      auto cast = v.CastTo(t);  // cannot fail for a DECIMAL target
      return cast.ok() ? *cast : Value::Null();
    }
    case TypeKind::kBoolean: return Value::Boolean(v.AsInt64() != 0);
    case TypeKind::kDate: return Value::Date(v.AsInt64());
    case TypeKind::kTimestamp: return Value::Timestamp(v.AsInt64());
    default: return Value::Bigint(v.AsInt64());
  }
}

Result<Value> ApplyFunction(const std::string& f, const std::vector<Value>& args) {
  auto arg_null = [&](size_t i) { return i < args.size() && args[i].is_null(); };

  if (f.rfind("EXTRACT_", 0) == 0 || f == "YEAR" || f == "MONTH" || f == "DAY") {
    if (arg_null(0)) return Value::Null();
    DateField field = DateField::kYear;
    std::string name = f.rfind("EXTRACT_", 0) == 0 ? f.substr(8) : f;
    if (name == "YEAR") field = DateField::kYear;
    else if (name == "QUARTER") field = DateField::kQuarter;
    else if (name == "MONTH") field = DateField::kMonth;
    else if (name == "DAY") field = DateField::kDay;
    else if (name == "HOUR") field = DateField::kHour;
    else if (name == "MINUTE") field = DateField::kMinute;
    else if (name == "SECOND") field = DateField::kSecond;
    return Value::Bigint(ExtractDateField(field, args[0]));
  }
  if (f.rfind("INTERVAL_", 0) == 0) {
    if (arg_null(0)) return Value::Null();
    std::string unit = f.substr(9);
    int64_t n = args[0].AsInt64();
    if (unit == "MONTH") return Value::Bigint(WrapMul(n, 30));
    if (unit == "YEAR") return Value::Bigint(WrapMul(n, 365));
    return Value::Bigint(n);  // DAY
  }
  if (f == "UPPER" || f == "LOWER") {
    if (arg_null(0)) return Value::Null();
    std::string s = TextOf(args[0]);
    for (char& c : s)
      c = f == "UPPER" ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                       : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return Value::String(std::move(s));
  }
  if (f == "LENGTH") {
    if (arg_null(0)) return Value::Null();
    return Value::Bigint(static_cast<int64_t>(TextOf(args[0]).size()));
  }
  if (f == "CONCAT") {
    std::string out;
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null();
      out += TextOf(v);
    }
    return Value::String(std::move(out));
  }
  if (f == "SUBSTR" || f == "SUBSTRING") {
    if (arg_null(0) || arg_null(1)) return Value::Null();
    const std::string s = TextOf(args[0]);
    // 1-based; a start below 1 starts at 1, a NULL length reads as 0.
    const int64_t start = std::max<int64_t>(1, args[1].AsInt64());
    const int64_t len = args.size() > 2 ? args[2].AsInt64() : static_cast<int64_t>(s.size());
    if (static_cast<uint64_t>(start) > s.size()) return Value::String("");
    return Value::String(s.substr(static_cast<size_t>(start - 1),
                                  static_cast<size_t>(std::max<int64_t>(0, len))));
  }
  if (f == "TRIM") {
    if (arg_null(0)) return Value::Null();
    const std::string s = TextOf(args[0]);
    const size_t b = s.find_first_not_of(' ');
    if (b == std::string::npos) return Value::String("");
    return Value::String(s.substr(b, s.find_last_not_of(' ') - b + 1));
  }
  if (f == "ABS") {
    if (arg_null(0)) return Value::Null();
    if (args[0].kind() == TypeKind::kDouble) return Value::Double(std::fabs(args[0].f64()));
    // INT64_MIN wraps to itself; a DECIMAL keeps its scale.
    const int64_t v = args[0].i64() < 0 ? WrapSub(0, args[0].i64()) : args[0].i64();
    if (args[0].kind() == TypeKind::kDecimal) return Value::Decimal(v, args[0].scale());
    return Value::Bigint(v);
  }
  if (f == "ROUND") {
    if (arg_null(0)) return Value::Null();
    int64_t digits = args.size() > 1 && !args[1].is_null() ? args[1].AsInt64() : 0;
    double scale = std::pow(10.0, static_cast<double>(digits));
    return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (f == "FLOOR") {
    if (arg_null(0)) return Value::Null();
    return Value::Bigint(static_cast<int64_t>(std::floor(args[0].AsDouble())));
  }
  if (f == "CEIL" || f == "CEILING") {
    if (arg_null(0)) return Value::Null();
    return Value::Bigint(static_cast<int64_t>(std::ceil(args[0].AsDouble())));
  }
  if (f == "COALESCE" || f == "NVL") {
    for (const Value& v : args)
      if (!v.is_null()) return v;
    return Value::Null();
  }
  if (f == "IF") {
    if (IsTrue(args[0])) return args[1];
    return args.size() > 2 ? args[2] : Value::Null();
  }
  if (f == "GREATEST" || f == "LEAST") {
    Value best;
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null();
      if (best.is_null() || (f == "GREATEST" ? Value::Compare(v, best) > 0
                                             : Value::Compare(v, best) < 0))
        best = v;
    }
    return best;
  }
  if (f == "RAND") {
    // Deterministic per-process pseudo-random; marked non-cacheable upstream.
    static thread_local uint64_t state = 0x2545F4914F6CDD1DULL;
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return Value::Double(static_cast<double>(state >> 11) / 9007199254740992.0);
  }
  if (f == "CURRENT_DATE") return Value::Date(20000);  // fixed epoch for tests
  if (f == "CURRENT_TIMESTAMP") return Value::Timestamp(20000LL * kMicrosPerDay);
  return Status::ExecError("unknown function in evaluator: " + f);
}

}  // namespace hive
