#include <algorithm>
#include <type_traits>

#include "exec/operators.h"
#include "exec/vector_eval.h"
#include "optimizer/expr_eval.h"
#include "obs/metric_names.h"

namespace hive {

namespace {

/// Approximate heap overhead of one unordered_set node (hash + next pointer
/// + allocator header).
constexpr uint64_t kDistinctNodeBytes = 32;

uint64_t ValueBytes(const Value& v) {
  uint64_t bytes = sizeof(Value);
  if (v.kind() == TypeKind::kString) bytes += v.str().capacity();
  return bytes;
}

/// The bytes a column's buffers hold; the heap bytes of its strings are
/// tallied apart, as they arrive.
uint64_t ColumnBytes(const ColumnVector& col) {
  return col.validity().capacity() + col.i64_data().capacity() * sizeof(int64_t) +
         col.f64_data().capacity() * sizeof(double) +
         col.str_data().capacity() * sizeof(std::string);
}

/// How two valid key cells of one type compare.
enum class KeyCmp : uint8_t { kI64, kBool, kF64, kStr };

/// One key column's buffers, for the chain walk.
struct KeyView {
  explicit KeyView(const ColumnVector& col)
      : valid(col.validity().data()),
        i64(col.i64_data().data()),
        f64(col.f64_data().data()),
        str(col.str_data().data()) {
    switch (col.type().kind) {
      case TypeKind::kDouble: cmp = KeyCmp::kF64; break;
      case TypeKind::kString: cmp = KeyCmp::kStr; break;
      case TypeKind::kBoolean: cmp = KeyCmp::kBool; break;
      default: cmp = KeyCmp::kI64; break;
    }
  }
  const uint8_t* valid;
  const int64_t* i64;
  const double* f64;
  const std::string* str;
  KeyCmp cmp;
};

/// GROUP BY equality of cell i of `a` and cell j of `b` (same type), as
/// Value::Compare == 0: NULLs are equal, a BOOLEAN is its truth, and two
/// DOUBLEs are equal when neither is less, so -0.0 meets 0.0.
inline bool CellsEqual(const KeyView& a, size_t i, const KeyView& b, size_t j) {
  const bool va = a.valid[i] != 0, vb = b.valid[j] != 0;
  if (!va || !vb) return va == vb;
  switch (a.cmp) {
    case KeyCmp::kI64: return a.i64[i] == b.i64[j];
    case KeyCmp::kBool: return (a.i64[i] != 0) == (b.i64[j] != 0);
    case KeyCmp::kF64: return !(a.f64[i] < b.f64[j]) && !(a.f64[i] > b.f64[j]);
    case KeyCmp::kStr: return a.str[i] == b.str[j];
  }
  return false;
}

/// COUNT: +1 per row (`in` null: COUNT(*)), +1 per valid row, or, merging
/// partials, + each row's count.
void AddCounts(int64_t* count, const ColumnVector* in, const int32_t* rows,
               const uint32_t* ords, size_t n, bool merge) {
  if (merge) {
    const int64_t* c = in->i64_data().data();
    for (size_t i = 0; i < n; ++i) count[ords[i]] += c[rows[i]];
  } else if (!in) {
    for (size_t i = 0; i < n; ++i) ++count[ords[i]];
  } else {
    const uint8_t* valid = in->validity().data();
    for (size_t i = 0; i < n; ++i) count[ords[i]] += valid[rows[i]];
  }
}

/// SUM (and AVG's sum) over an input of the accumulator's type; validity
/// is the accumulator's "saw a value" flag. Integer sums wrap, and DOUBLE
/// sums add per group in row order.
void FoldSum(ColumnVector* acc, const ColumnVector& in, const int32_t* rows,
             const uint32_t* ords, size_t n) {
  uint8_t* any = acc->validity().data();
  const uint8_t* valid = in.validity().data();
  auto fold = [&](auto* sum, const auto* x, auto add) {
    for (size_t i = 0; i < n; ++i) {
      const int32_t r = rows[i];
      if (!valid[r]) continue;
      const uint32_t o = ords[i];
      sum[o] = add(sum[o], x[r]);
      any[o] = 1;
    }
  };
  if (acc->type().kind == TypeKind::kDouble) {
    fold(acc->f64_data().data(), in.f64_data().data(), [](double a, double b) { return a + b; });
  } else {
    fold(acc->i64_data().data(), in.i64_data().data(), WrapAdd);
  }
}

/// MIN/MAX: a value replaces the group's best only when strictly better,
/// so the first of equal values stays. Returns the string bytes it added.
template <typename T, typename Better>
uint64_t FoldBest(T* best, uint8_t* any, const T* x, const uint8_t* valid,
                  const int32_t* rows, const uint32_t* ords, size_t n, Better better) {
  uint64_t grown = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t r = rows[i];
    if (!valid[r]) continue;
    const uint32_t o = ords[i];
    if (any[o] && !better(x[r], best[o])) continue;
    if constexpr (std::is_same_v<T, std::string>)
      grown += x[r].size() > best[o].size() ? x[r].size() - best[o].size() : 0;
    best[o] = x[r];
    any[o] = 1;
  }
  return grown;
}

template <bool kMin>
uint64_t FoldMinMax(ColumnVector* acc, const ColumnVector& in, const int32_t* rows,
                    const uint32_t* ords, size_t n) {
  auto better = [](const auto& a, const auto& b) { return kMin ? a < b : b < a; };
  uint8_t* any = acc->validity().data();
  const uint8_t* valid = in.validity().data();
  switch (acc->type().kind) {
    case TypeKind::kDouble:
      return FoldBest(acc->f64_data().data(), any, in.f64_data().data(), valid, rows, ords,
                      n, better);
    case TypeKind::kString:
      return FoldBest(acc->str_data().data(), any, in.str_data().data(), valid, rows, ords,
                      n, better);
    case TypeKind::kBoolean:  // ordered by truth, as it boxes
      return FoldBest(acc->i64_data().data(), any, in.i64_data().data(), valid, rows, ords,
                      n, [&](int64_t a, int64_t b) { return better(a != 0, b != 0); });
    default:  // one scale per column, so DECIMAL payloads order as values
      return FoldBest(acc->i64_data().data(), any, in.i64_data().data(), valid, rows, ords,
                      n, better);
  }
}

/// 0..n-1, the rows of a batch without a selection.
const int32_t* AllRows(size_t n, std::vector<int32_t>* buf) {
  if (buf->size() < n) {
    const size_t from = buf->size();
    buf->resize(n);
    for (size_t i = from; i < n; ++i) (*buf)[i] = static_cast<int32_t>(i);
  }
  return buf->data();
}

}  // namespace

// --- GroupedAggState ---

GroupedAggState::GroupedAggState(const std::vector<ExprPtr>* keys,
                                 const std::vector<AggCall>* aggs)
    : keys_(keys), aggs_(aggs) {
  for (size_t k = 0; k < keys->size(); ++k) {
    const DataType& type = (*keys)[k]->type;
    partial_schema_.AddField("k" + std::to_string(k), type);
    key_cols_.push_back(std::make_shared<ColumnVector>(type));
  }
  // A DISTINCT call's slot holds no column: its values live in distinct_.
  auto add = [this](const std::string& name, const DataType& type, bool values) {
    partial_schema_.AddField(name, type);
    acc_.push_back(values ? nullptr : std::make_shared<ColumnVector>(type));
    distinct_.emplace_back();
  };
  for (size_t a = 0; a < aggs->size(); ++a) {
    const AggCall& agg = (*aggs)[a];
    const std::string name = "a" + std::to_string(a);
    Kernel k;
    // The binder admits exactly these five functions.
    k.fn = agg.func == "COUNT" ? AggFn::kCount
           : agg.func == "SUM" ? AggFn::kSum
           : agg.func == "AVG" ? AggFn::kAvg
           : agg.func == "MIN" ? AggFn::kMin
                               : AggFn::kMax;
    k.distinct = agg.distinct && agg.arg;
    k.col = acc_.size();
    if (k.distinct) {
      k.type = agg.arg->type;
      add(name, k.type, true);
    } else if (k.fn == AggFn::kCount) {
      k.type = DataType::Bigint();
      add(name, k.type, false);
    } else if (k.fn == AggFn::kAvg) {
      k.type = DataType::Double();
      add(name + "_sum", k.type, false);
      add(name + "_count", DataType::Bigint(), false);
    } else if (k.fn == AggFn::kSum) {
      const TypeKind kind = agg.result_type.kind;
      k.type = kind == TypeKind::kDouble || kind == TypeKind::kDecimal ? agg.result_type
                                                                       : DataType::Bigint();
      add(name, k.type, false);
    } else {
      k.type = agg.result_type;
      add(name, k.type, false);
    }
    kernels_.push_back(k);
  }
  index_.Reset(0);
}

uint64_t GroupedAggState::approx_bytes() const {
  uint64_t bytes = index_.ApproxBytes() + first_seq_.capacity() * sizeof(uint64_t) +
                   ordered_.capacity() * sizeof(uint32_t) + string_bytes_ + distinct_bytes_;
  for (const ColumnVectorPtr& col : key_cols_) bytes += ColumnBytes(*col);
  for (size_t c = 0; c < acc_.size(); ++c) {
    if (acc_[c]) bytes += ColumnBytes(*acc_[c]);
    bytes += distinct_[c].capacity() * sizeof(DistinctSet);
  }
  return bytes;
}

void GroupedAggState::GrowAccumulators() {
  const size_t groups = first_seq_.size();
  for (const Kernel& k : kernels_) {
    if (k.distinct) {
      distinct_[k.col].resize(groups);
      continue;
    }
    for (size_t c = k.col; c < k.col + (k.fn == AggFn::kAvg ? 2 : 1); ++c) {
      ColumnVector& col = *acc_[c];
      const size_t from = col.size();
      col.Resize(groups);  // new cells: NULL (nothing seen) with a zero payload
      // A count (COUNT's column, AVG's second) is never NULL.
      if (k.fn == AggFn::kCount || c > k.col)
        std::fill(col.validity().begin() + static_cast<std::ptrdiff_t>(from),
                  col.validity().end(), 1);
    }
  }
}

template <typename SeqOf>
void GroupedAggState::MapGroups(const std::vector<ColumnVectorPtr>& key_cols,
                                size_t num_rows, const int32_t* rows, size_t n,
                                SeqOf seq_of, bool merge) {
  ords_.assign(n, 0);
  if (key_cols.empty()) {  // a global aggregate: one group
    if (n == 0) return;
    if (first_seq_.empty()) {
      first_seq_.push_back(seq_of(0));
      GrowAccumulators();
    }
    if (merge)
      for (size_t i = 0; i < n; ++i) first_seq_[0] = std::min(first_seq_[0], seq_of(i));
    return;
  }
  HashKeyColumns(key_cols, num_rows, &hashes_, nullptr);
  std::vector<KeyView> in, stored;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    in.emplace_back(*key_cols[k]);
    stored.emplace_back(*key_cols_[k]);
  }
  // Groups first seen in this batch still live in the batch's columns, at
  // new_rows_[ordinal - base], until the batch is mapped.
  const uint32_t base = static_cast<uint32_t>(first_seq_.size());
  new_rows_.clear();
  for (size_t i = 0; i < n; ++i) {
    const int32_t row = rows[i];
    const uint64_t h = hashes_[static_cast<size_t>(row)];
    uint32_t ord = UINT32_MAX;
    for (int32_t e = index_.Find(h); e != FlatHashIndex::kInvalid; e = index_.NextOf(e)) {
      const uint32_t cand = static_cast<uint32_t>(index_.PayloadOf(e));
      const bool is_stored = cand < base;
      const std::vector<KeyView>& other = is_stored ? stored : in;
      const size_t at = is_stored ? cand : static_cast<size_t>(new_rows_[cand - base]);
      bool equal = true;
      for (size_t k = 0; k < in.size() && equal; ++k)
        equal = CellsEqual(in[k], static_cast<size_t>(row), other[k], at);
      if (equal) {
        ord = cand;
        break;
      }
    }
    if (ord == UINT32_MAX) {
      ord = base + static_cast<uint32_t>(new_rows_.size());
      new_rows_.push_back(row);
      first_seq_.push_back(seq_of(i));
      index_.Insert(h, static_cast<int32_t>(ord));
    } else if (merge) {
      first_seq_[ord] = std::min(first_seq_[ord], seq_of(i));
    }
    ords_[i] = ord;
  }
  if (new_rows_.empty()) return;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    ColumnVector& store = *key_cols_[k];
    store.AppendGather(*key_cols[k], new_rows_.data(), new_rows_.size());
    if (store.type().kind != TypeKind::kString) continue;
    for (size_t g = base; g < store.size(); ++g) string_bytes_ += store.str_data()[g].size();
  }
  GrowAccumulators();
}

void GroupedAggState::Accumulate(const std::vector<ColumnVectorPtr>& in, const int32_t* rows,
                                 size_t n, bool merge) {
  const uint32_t* ords = ords_.data();
  for (const Kernel& k : kernels_) {
    const ColumnVector* arg = in[k.col].get();
    if (k.distinct) {
      const uint8_t* valid = arg->validity().data();
      std::vector<DistinctSet>& sets = distinct_[k.col];
      for (size_t i = 0; i < n; ++i) {
        const int32_t r = rows[i];
        if (!valid[r]) continue;
        auto inserted = sets[ords[i]].insert(arg->GetValue(static_cast<size_t>(r)));
        if (inserted.second) distinct_bytes_ += kDistinctNodeBytes + ValueBytes(*inserted.first);
      }
      continue;
    }
    ColumnVector* acc = acc_[k.col].get();
    switch (k.fn) {
      case AggFn::kCount:
        AddCounts(acc->i64_data().data(), arg, rows, ords, n, merge);
        break;
      case AggFn::kAvg:
        AddCounts(acc_[k.col + 1]->i64_data().data(), merge ? in[k.col + 1].get() : arg,
                  rows, ords, n, merge);
        FoldSum(acc, *arg, rows, ords, n);
        break;
      case AggFn::kSum:
        FoldSum(acc, *arg, rows, ords, n);
        break;
      case AggFn::kMin:
        string_bytes_ += FoldMinMax<true>(acc, *arg, rows, ords, n);
        break;
      case AggFn::kMax:
        string_bytes_ += FoldMinMax<false>(acc, *arg, rows, ords, n);
        break;
    }
  }
}

Status GroupedAggState::Consume(const RowBatch& batch, uint64_t seq_base) {
  // Keys and arguments evaluate once per batch. Keys conform to the key
  // store's type; COUNT and DISTINCT read an argument as it is, the other
  // calls as their accumulator's type (Value::CastTo's conversions).
  std::vector<ColumnVectorPtr> key_cols;
  for (size_t k = 0; k < keys_->size(); ++k) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*(*keys_)[k], batch));
    key_cols.push_back(ConformColumn(col, key_cols_[k]->type()));
  }
  std::vector<ColumnVectorPtr> in(acc_.size());
  for (size_t a = 0; a < kernels_.size(); ++a) {
    const AggCall& agg = (*aggs_)[a];
    if (!agg.arg) continue;
    const Kernel& k = kernels_[a];
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr arg, EvalVector(*agg.arg, batch));
    in[k.col] = k.distinct || k.fn == AggFn::kCount ? arg : ConformColumn(arg, k.type);
  }
  const size_t n = batch.SelectedSize();
  const int32_t* rows =
      batch.has_selection() ? batch.selection().data() : AllRows(n, &all_rows_);
  MapGroups(key_cols, batch.num_rows(), rows, n,
            [seq_base](size_t i) { return seq_base + i; }, /*merge=*/false);
  Accumulate(in, rows, n, /*merge=*/false);
  return Status::OK();
}

RowBatch GroupedAggState::Partial(std::vector<uint64_t>* seqs) const {
  RowBatch out(partial_schema_);
  const size_t num_keys = key_cols_.size();
  const size_t groups = first_seq_.size();
  const bool has_distinct =
      std::any_of(kernels_.begin(), kernels_.end(), [](const Kernel& k) { return k.distinct; });
  if (!has_distinct) {  // one row a group: the state's own columns
    for (size_t k = 0; k < num_keys; ++k) out.SetColumn(k, key_cols_[k]);
    for (size_t c = 0; c < acc_.size(); ++c) out.SetColumn(num_keys + c, acc_[c]);
    *seqs = first_seq_;
    out.set_num_rows(groups);
    return out;
  }
  // A group spans its largest DISTINCT set; its other accumulators ride on
  // its first row, and the rows after carry NULL (no value, count 0).
  std::vector<size_t> span(groups, 1);
  for (const Kernel& k : kernels_)
    if (k.distinct)
      for (size_t g = 0; g < groups; ++g)
        span[g] = std::max(span[g], distinct_[k.col][g].size());
  std::vector<int32_t> group_of, first_of;
  seqs->clear();
  for (size_t g = 0; g < groups; ++g) {
    for (size_t r = 0; r < span[g]; ++r) {
      group_of.push_back(static_cast<int32_t>(g));
      first_of.push_back(r == 0 ? static_cast<int32_t>(g) : -1);
      seqs->push_back(first_seq_[g]);
    }
  }
  for (size_t k = 0; k < num_keys; ++k)
    out.column(k)->AppendGather(*key_cols_[k], group_of.data(), group_of.size());
  for (size_t c = 0; c < acc_.size(); ++c) {
    ColumnVector& col = *out.column(num_keys + c);
    if (acc_[c]) {
      col.AppendGather(*acc_[c], first_of.data(), first_of.size());
      continue;
    }
    for (size_t g = 0; g < groups; ++g) {
      for (const Value& v : distinct_[c][g]) col.AppendValue(v);
      for (size_t r = distinct_[c][g].size(); r < span[g]; ++r) col.AppendNull();
    }
  }
  out.set_num_rows(group_of.size());
  return out;
}

void GroupedAggState::MergePartial(const RowBatch& partial,
                                   const std::vector<uint64_t>& seqs) {
  const size_t num_keys = key_cols_.size();
  std::vector<ColumnVectorPtr> key_cols, in;
  for (size_t c = 0; c < partial.num_columns(); ++c)
    (c < num_keys ? key_cols : in).push_back(partial.column(c));
  const size_t n = partial.SelectedSize();
  const int32_t* rows =
      partial.has_selection() ? partial.selection().data() : AllRows(n, &all_rows_);
  MapGroups(key_cols, partial.num_rows(), rows, n,
            [&](size_t i) { return seqs[static_cast<size_t>(rows[i])]; }, /*merge=*/true);
  Accumulate(in, rows, n, /*merge=*/true);
}

void GroupedAggState::Merge(GroupedAggState&& other) {
  std::vector<uint64_t> seqs;
  const RowBatch partial = other.Partial(&seqs);
  MergePartial(partial, seqs);
  other.Reset();
}

void GroupedAggState::Reset() {
  for (ColumnVectorPtr& col : key_cols_) col = std::make_shared<ColumnVector>(col->type());
  for (ColumnVectorPtr& col : acc_)
    if (col) col = std::make_shared<ColumnVector>(col->type());
  for (std::vector<DistinctSet>& sets : distinct_) std::vector<DistinctSet>().swap(sets);
  std::vector<uint64_t>().swap(first_seq_);
  index_.Reset(0);
  ordered_.clear();
  string_bytes_ = 0;
  distinct_bytes_ = 0;
}

void GroupedAggState::Seal() {
  // Global aggregates produce one row even with empty input.
  if (keys_->empty() && first_seq_.empty()) {
    first_seq_.push_back(0);
    GrowAccumulators();
  }
  ordered_.resize(first_seq_.size());
  for (uint32_t i = 0; i < ordered_.size(); ++i) ordered_[i] = i;
  // First-seen input order: deterministic however rows were partitioned.
  std::sort(ordered_.begin(), ordered_.end(),
            [this](uint32_t a, uint32_t b) { return first_seq_[a] < first_seq_[b]; });
}

Value GroupedAggState::FinalizeDistinct(const Kernel& k, const AggCall& agg,
                                        const DistinctSet& set) const {
  if (k.fn == AggFn::kCount) return Value::Bigint(static_cast<int64_t>(set.size()));
  if (set.empty()) return Value::Null();
  if (k.fn == AggFn::kMin || k.fn == AggFn::kMax) {
    const Value* best = nullptr;
    for (const Value& v : set) {
      const int cmp = best ? Value::Compare(v, *best) : 0;
      if (!best || (k.fn == AggFn::kMin ? cmp < 0 : cmp > 0)) best = &v;
    }
    return *best;
  }
  if (k.fn == AggFn::kAvg || agg.result_type.kind == TypeKind::kDouble) {
    // The set iterates in an order that depends on insertion history, and
    // FP addition is not associative: add in sorted order, so the result is
    // the same at any worker count and merge order.
    std::vector<const Value*> sorted;
    sorted.reserve(set.size());
    for (const Value& v : set) sorted.push_back(&v);
    std::sort(sorted.begin(), sorted.end(),
              [](const Value* a, const Value* b) { return Value::Compare(*a, *b) < 0; });
    double total = 0;
    for (const Value* v : sorted) total += v->AsDouble();
    if (k.fn == AggFn::kAvg) total /= static_cast<double>(set.size());
    return Value::Double(total);
  }
  int64_t total = 0;  // wrapping integer addition commutes; no sort needed
  const bool decimal = agg.result_type.kind == TypeKind::kDecimal;
  for (const Value& v : set) {
    if (decimal) {
      auto cast = v.CastTo(agg.result_type);
      total = WrapAdd(total, cast.ok() && !cast->is_null() ? cast->i64() : 0);
    } else {
      total = WrapAdd(total, v.AsInt64());
    }
  }
  return decimal ? Value::Decimal(total, agg.result_type.scale) : Value::Bigint(total);
}

Result<RowBatch> GroupedAggState::Emit(size_t begin, size_t end, const Schema& schema) const {
  end = std::min(end, ordered_.size());
  std::vector<int32_t> rows;
  for (size_t i = begin; i < end; ++i) rows.push_back(static_cast<int32_t>(ordered_[i]));
  RowBatch out(schema);
  // Column c of the output: `col`, conformed to the schema's type.
  auto place = [&](size_t c, ColumnVectorPtr col) {
    const DataType& type = schema.field(c).type;
    col = ConformColumn(col, type);
    col->set_type(type);
    out.SetColumn(c, std::move(col));
  };
  auto gather = [&](const ColumnVector& src) {
    auto col = std::make_shared<ColumnVector>(src.type());
    col->AppendGather(src, rows.data(), rows.size());
    return col;
  };
  const size_t num_keys = key_cols_.size();
  for (size_t k = 0; k < num_keys; ++k) place(k, gather(*key_cols_[k]));
  for (size_t a = 0; a < kernels_.size(); ++a) {
    const Kernel& k = kernels_[a];
    if (k.distinct) {
      ColumnVector& col = *out.column(num_keys + a);
      for (int32_t g : rows)
        col.AppendValue(FinalizeDistinct(k, (*aggs_)[a], distinct_[k.col][static_cast<size_t>(g)]));
    } else if (k.fn == AggFn::kAvg) {
      const ColumnVector& sum = *acc_[k.col];
      const int64_t* count = acc_[k.col + 1]->i64_data().data();
      auto col = std::make_shared<ColumnVector>(DataType::Double());
      for (int32_t g : rows) {
        if (sum.IsNull(static_cast<size_t>(g))) {
          col->AppendNull();
        } else {
          col->AppendF64(sum.GetF64(static_cast<size_t>(g)) / static_cast<double>(count[g]));
        }
      }
      place(num_keys + a, std::move(col));
    } else {
      place(num_keys + a, gather(*acc_[k.col]));
    }
  }
  out.set_num_rows(rows.size());
  return out;
}

// --- AggSpillSet ---

AggSpillSet::AggSpillSet(ExecContext* ctx, std::string prefix,
                         const std::vector<ExprPtr>* keys,
                         const std::vector<AggCall>* aggs, int partitions,
                         int workers)
    : ctx_(ctx),
      prefix_(std::move(prefix)),
      keys_(keys),
      aggs_(aggs),
      partitions_(std::max(1, partitions)),
      writers_(static_cast<size_t>(std::max(1, workers))) {
  for (auto& streams : writers_)
    streams.resize(static_cast<size_t>(partitions_));
}

std::vector<uint32_t> AggSpillSet::PartitionsOf(const RowBatch& partial) const {
  std::vector<ColumnVectorPtr> key_cols;
  for (size_t k = 0; k < keys_->size(); ++k) key_cols.push_back(partial.column(k));
  std::vector<uint64_t> hashes;
  HashKeyColumns(key_cols, partial.num_rows(), &hashes, nullptr);
  std::vector<uint32_t> parts(hashes.size());
  for (size_t r = 0; r < hashes.size(); ++r)
    parts[r] = SpillPartitionOf(hashes[r], 0, partitions_);
  return parts;
}

Status AggSpillSet::Flush(int worker, GroupedAggState* state) {
  spilled_.store(true, std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::unique_ptr<SpillBatchWriter>>& streams =
      writers_[static_cast<size_t>(worker)];
  std::vector<uint64_t> seqs;
  const RowBatch partial = state->Partial(&seqs);
  const std::vector<uint32_t> parts = PartitionsOf(partial);
  for (size_t r = 0; r < partial.num_rows(); ++r) {
    const uint32_t p = parts[r];
    std::unique_ptr<SpillBatchWriter>& w = streams[p];
    if (!w) {
      w = std::make_unique<SpillBatchWriter>(
          ctx_, prefix_ + ".w" + std::to_string(worker) + ".p" + std::to_string(p),
          state->partial_schema(), /*with_seqs=*/true);
      CountSpillMetric(ctx_, obs::metric::kSpillPartitions, 1);
    }
    HIVE_RETURN_IF_ERROR(w->AppendRow(partial, static_cast<int32_t>(r), seqs[r]));
  }
  state->Reset();
  return Status::OK();
}

Status AggSpillSet::RefillCursor(Cursor* c) {
  c->pos = 0;
  HIVE_ASSIGN_OR_RETURN(bool more, c->reader->NextBatch(&c->batch, &c->seqs));
  if (!more) c->done = true;
  return Status::OK();
}

Status AggSpillSet::PrepareEmit(GroupedAggState* remainder, const Schema& schema) {
  out_schema_ = schema;
  for (auto& streams : writers_)
    for (std::unique_ptr<SpillBatchWriter>& w : streams)
      if (w) HIVE_RETURN_IF_ERROR(w->Finish());
  const size_t batch_rows =
      ctx_->config ? static_cast<size_t>(ctx_->config->vector_batch_size) : 1024;
  RowBatch rest;
  std::vector<uint64_t> rest_seqs;
  std::vector<uint32_t> rest_parts;
  if (remainder) {
    rest = remainder->Partial(&rest_seqs);
    rest_parts = PartitionsOf(rest);
  }
  // Rebuild one hash partition at a time: a group's rows always land in one
  // partition, so the transient footprint is ~1/partitions of the full
  // state. Merge order is fixed — remainder, then each worker's batches in
  // worker order — so the rebuild is deterministic.
  for (int p = 0; p < partitions_; ++p) {
    GroupedAggState part(keys_, aggs_);
    std::vector<int32_t> rows;
    for (size_t r = 0; r < rest_parts.size(); ++r)
      if (rest_parts[r] == static_cast<uint32_t>(p)) rows.push_back(static_cast<int32_t>(r));
    if (!rows.empty()) {
      RowBatch slice = rest;
      slice.SetSelection(std::move(rows));
      part.MergePartial(slice, rest_seqs);
    }
    for (auto& streams : writers_) {
      SpillBatchWriter* w = streams[static_cast<size_t>(p)].get();
      if (!w) continue;
      SpillBatchReader reader(ctx_, *w);
      RowBatch batch;
      std::vector<uint64_t> seqs;
      for (;;) {
        HIVE_RETURN_IF_ERROR(ctx_->CheckInterrupted());
        HIVE_ASSIGN_OR_RETURN(bool more, reader.NextBatch(&batch, &seqs));
        if (!more) break;
        part.MergePartial(batch, seqs);
      }
    }
    if (part.num_raw_groups() == 0) continue;
    // keys_ is never empty here (scalar aggregates fail instead of spilling),
    // so Seal adds no phantom global group to non-originating partitions.
    part.Seal();
    auto run = std::make_unique<SpillBatchWriter>(
        ctx_, prefix_ + ".run" + std::to_string(p), schema, true);
    const size_t groups = part.num_groups();
    for (size_t begin = 0; begin < groups; begin += batch_rows) {
      size_t end = std::min(groups, begin + batch_rows);
      HIVE_ASSIGN_OR_RETURN(RowBatch out, part.Emit(begin, end, schema));
      for (size_t r = 0; r < out.num_rows(); ++r)
        HIVE_RETURN_IF_ERROR(
            run->AppendBatchRow(out, r, part.ordered_first_seq(begin + r)));
    }
    HIVE_RETURN_IF_ERROR(run->Finish());
    runs_.push_back(std::move(run));
  }
  cursors_.clear();
  for (std::unique_ptr<SpillBatchWriter>& run : runs_) {
    if (run->num_rows() == 0) continue;
    cursors_.emplace_back();
    Cursor& c = cursors_.back();
    c.batch = RowBatch(schema);
    c.reader = std::make_unique<SpillBatchReader>(ctx_, *run);
    HIVE_RETURN_IF_ERROR(RefillCursor(&c));
  }
  if (!cursors_.empty()) CountSpillMetric(ctx_, obs::metric::kSpillMergePasses, 1);
  return Status::OK();
}

Result<RowBatch> AggSpillSet::NextOutput(bool* done) {
  *done = false;
  const size_t limit =
      ctx_->config ? static_cast<size_t>(ctx_->config->vector_batch_size) : 1024;
  RowBatch out(out_schema_);
  size_t out_rows = 0;
  // K-way merge by first-seen sequence: each group lives in exactly one
  // partition run, and every run is ascending, so the merged stream is the
  // exact first-seen order the in-memory Seal produces.
  while (out_rows < limit) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors_) {
      if (c.done) continue;
      if (!best || c.seqs[c.pos] < best->seqs[best->pos]) best = &c;
    }
    if (!best) break;
    for (size_t col = 0; col < out.num_columns(); ++col)
      out.column(col)->AppendFrom(*best->batch.column(col), best->pos);
    ++out_rows;
    ++best->pos;
    if (best->pos >= best->batch.num_rows()) HIVE_RETURN_IF_ERROR(RefillCursor(best));
  }
  out.set_num_rows(out_rows);
  if (out_rows == 0) *done = true;
  return out;
}

uint64_t AggSpillSet::bytes_spilled() const {
  uint64_t total = 0;
  for (const auto& streams : writers_)
    for (const std::unique_ptr<SpillBatchWriter>& w : streams)
      if (w) total += w->bytes_written();
  for (const std::unique_ptr<SpillBatchWriter>& r : runs_)
    total += r->bytes_written();
  return total;
}

// --- HashAggregateOperator ---

HashAggregateOperator::HashAggregateOperator(ExecContext* ctx, OperatorPtr child,
                                             std::vector<ExprPtr> keys,
                                             std::vector<AggCall> aggs, Schema schema)
    : Operator(ctx),
      child_(std::move(child)),
      keys_(std::move(keys)),
      aggs_(std::move(aggs)),
      schema_(std::move(schema)),
      state_(&keys_, &aggs_) {}

Status HashAggregateOperator::Open() { return child_->Open(); }

Status HashAggregateOperator::Consume() {
  bool done = false;
  uint64_t seq = 0;
  reservation_.Attach(ctx_->query_memory);
  for (;;) {
    HIVE_RETURN_IF_ERROR(CheckCancelled());
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, child_->Next(&done));
    if (done) break;
    HIVE_RETURN_IF_ERROR(state_.Consume(batch, seq));
    seq += batch.SelectedSize();
    if (!reservation_.GrowTo(static_cast<int64_t>(state_.approx_bytes()))) {
      CountSpillMetric(ctx_, obs::metric::kSpillDeniedReservations, 1);
      // Scalar aggregates (no keys) hold a single group; spilling cannot
      // shrink them.
      if (!ctx_->CanSpill() || keys_.empty())
        return BudgetExceededStatus(
            "hash aggregate", static_cast<int64_t>(state_.approx_bytes()), ctx_);
      if (!spill_)
        spill_ = std::make_unique<AggSpillSet>(
            ctx_, ctx_->spill_dir + "/a" + std::to_string(NextSpillStreamId()),
            &keys_, &aggs_, std::max(2, ctx_->config->spill_partitions),
            /*workers=*/1);
      HIVE_RETURN_IF_ERROR(spill_->Flush(0, &state_));
      reservation_.Release();
    }
  }
  if (spill_ && spill_->spilled()) {
    HIVE_RETURN_IF_ERROR(spill_->PrepareEmit(&state_, schema_));
    state_.Reset();
    reservation_.Release();
    HIVE_RETURN_IF_ERROR(ctx_->OnStageBoundary(spill_->bytes_spilled()));
  } else {
    state_.Seal();
    HIVE_RETURN_IF_ERROR(ctx_->OnStageBoundary(state_.approx_bytes()));
  }
  consumed_ = true;
  return Status::OK();
}

Result<RowBatch> HashAggregateOperator::Next(bool* done) {
  if (!consumed_) HIVE_RETURN_IF_ERROR(Consume());
  if (spill_ && spill_->spilled()) {
    return spill_->NextOutput(done);
  }
  size_t batch_size = static_cast<size_t>(ctx_->config->vector_batch_size);
  if (emit_index_ >= state_.num_groups()) {
    *done = true;
    return RowBatch();
  }
  *done = false;
  size_t end = std::min(state_.num_groups(), emit_index_ + batch_size);
  HIVE_ASSIGN_OR_RETURN(RowBatch out, state_.Emit(emit_index_, end, schema_));
  emit_index_ = end;
  return out;
}

Status HashAggregateOperator::Close() {
  if (profile_node_ && spill_ && spill_->spilled()) {
    std::string& d = profile_node_->detail;
    if (!d.empty()) d += ", ";
    d += "spill=agg flushes=" + std::to_string(spill_->flushes()) +
         " spill_bytes=" + std::to_string(spill_->bytes_spilled());
  }
  return child_->Close();
}

}  // namespace hive
