#include "core/split.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sql/printer.h"
#include "util/check.h"

namespace joinboost {
namespace core {

ChildPredicates SplitPredicates(const std::string& feature, bool categorical,
                                double threshold, const std::string& category,
                                bool holds_null) {
  ChildPredicates out;
  if (categorical) {
    out.left = feature + " = " + sql::QuoteString(category);
    out.right = feature + " <> " + sql::QuoteString(category);
  } else {
    out.left = feature + " <= " + sql::DoubleLiteral(threshold);
    out.right = feature + " > " + sql::DoubleLiteral(threshold);
  }
  if (holds_null) out.right = "(" + out.right + " OR " + feature + " IS NULL)";
  return out;
}

namespace {

/// A c or s cell as a double; an int NULL reads as NaN.
double CellAsDouble(const exec::VectorData& col, size_t row) {
  if (col.type == TypeId::kFloat64) return (*col.dbls)[row];
  const int64_t v = (*col.ints)[row];
  return v == kNullInt64 ? NullFloat64() : static_cast<double>(v);
}

/// A numeric cell as the double its threshold becomes.
double NumericCell(const exec::VectorData& col, size_t row) {
  return col.type == TypeId::kFloat64 ? (*col.dbls)[row]
                                      : static_cast<double>((*col.ints)[row]);
}

/// Sum of two bins sharing a slot, a NaN adding nothing.
double AddSkippingNull(double a, double b) {
  if (IsNullFloat64(a)) return b;
  return IsNullFloat64(b) ? a : a + b;
}

/// Division where a zero divisor yields NaN (a NULL criterion).
double NullDiv(double x, double y) {
  return y == 0.0 ? NullFloat64() : x / y;
}

/// Each set id's rows of a histogram result, rows (set_id, attrs..., c, s).
std::vector<std::vector<uint32_t>> RowsBySet(const exec::ExecTable& result,
                                             size_t num_attrs) {
  JB_CHECK_MSG(result.cols.size() == num_attrs + 3,
               "histogram result has " << result.cols.size()
                                       << " columns for " << num_attrs
                                       << " attributes");
  const std::vector<int64_t>& set_id = result.Col(0).Ints();
  std::vector<size_t> count(num_attrs, 0);
  for (size_t r = 0; r < result.rows; ++r) {
    const size_t sid = static_cast<size_t>(set_id[r]);
    JB_CHECK_MSG(sid < num_attrs, "histogram set id " << sid
                                      << " out of range for " << num_attrs
                                      << " attributes");
    ++count[sid];
  }
  std::vector<std::vector<uint32_t>> rows(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) rows[a].reserve(count[a]);
  for (size_t r = 0; r < result.rows; ++r) {
    rows[static_cast<size_t>(set_id[r])].push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

/// The histogram of `col`'s non-NULL bins at `rows`, with their c and s
/// cells, in ascending slot order of `order`. A presence bitmap over the
/// slots ranks them; bins that share a slot are summed.
Histogram SlotHistogram(const exec::VectorData& col,
                        const std::vector<uint32_t>& rows,
                        const exec::VectorData& c, const exec::VectorData& s,
                        const FeatureOrder& order) {
  // A NULL has no slot: the NULL rule.
  const std::vector<uint32_t> slot_of = order.SlotsOf(col, rows);
  std::vector<uint64_t> present((order.num_slots() + 63) / 64, 0);
  for (const uint32_t slot : slot_of) {
    if (slot != FeatureOrder::kNoSlot) {
      present[slot >> 6] |= 1ULL << (slot & 63);
    }
  }
  // rank[w]: the number of present slots below word w.
  std::vector<uint32_t> rank(present.size());
  uint32_t n = 0;
  for (size_t w = 0; w < present.size(); ++w) {
    rank[w] = n;
    n += static_cast<uint32_t>(__builtin_popcountll(present[w]));
  }
  Histogram out;
  out.slot.assign(n, FeatureOrder::kNoSlot);
  out.c.resize(n);
  out.s.resize(n);
  for (size_t k = 0; k < rows.size(); ++k) {
    const uint32_t slot = slot_of[k];
    if (slot == FeatureOrder::kNoSlot) continue;
    const uint64_t below = present[slot >> 6] & ((1ULL << (slot & 63)) - 1);
    const uint32_t pos =
        rank[slot >> 6] + static_cast<uint32_t>(__builtin_popcountll(below));
    const double bin_c = CellAsDouble(c, rows[k]);
    const double bin_s = CellAsDouble(s, rows[k]);
    if (out.slot[pos] == FeatureOrder::kNoSlot) {
      out.slot[pos] = slot;
      out.c[pos] = bin_c;
      out.s[pos] = bin_s;
    } else {
      out.c[pos] = AddSkippingNull(out.c[pos], bin_c);
      out.s[pos] = AddSkippingNull(out.s[pos], bin_s);
    }
  }
  return out;
}

}  // namespace

FeatureOrder::FeatureOrder(const exec::VectorData& col,
                           const std::vector<uint32_t>& rows)
    : type_(col.type), dict_(col.dict) {
  if (categorical()) {
    int64_t max_code = -1;
    for (const uint32_t r : rows) {
      if (!col.IsNull(r)) max_code = std::max(max_code, (*col.ints)[r]);
    }
    num_slots_ = static_cast<uint32_t>(max_code + 1);
    index_.assign((num_slots_ + 31) / 32, 0);
    for (const uint32_t r : rows) {
      if (col.IsNull(r)) continue;
      const auto code = static_cast<uint32_t>((*col.ints)[r]);
      index_[code >> 5] |= 1U << (code & 31);
    }
    return;
  }
  values_.reserve(rows.size());
  for (const uint32_t r : rows) {
    if (!col.IsNull(r)) values_.push_back(NumericCell(col, r));
  }
  std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  for (double& v : values_) {
    if (v == 0.0) v = 0.0;  // the slot of -0.0 and 0.0 holds 0.0
  }
  values_.shrink_to_fit();
  num_slots_ = static_cast<uint32_t>(values_.size());
  size_t capacity = 2;
  shift_ = 63;
  while (capacity < 2 * values_.size()) {
    capacity *= 2;
    --shift_;
  }
  index_.assign(capacity, kNoSlot);
  for (uint32_t slot = 0; slot < num_slots_; ++slot) {
    size_t at = HashAt(values_[slot]);
    while (index_[at] != kNoSlot) at = (at + 1) & (capacity - 1);
    index_[at] = slot;
  }
}

size_t FeatureOrder::HashAt(double v) const {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return static_cast<size_t>((bits * 0x9E3779B97F4A7C15ULL) >> shift_);
}

uint32_t FeatureOrder::Find(const exec::VectorData& col, size_t row) const {
  if (categorical()) {
    const int64_t code = (*col.ints)[row];
    const bool held = code >= 0 && code < static_cast<int64_t>(num_slots_) &&
                      ((index_[static_cast<size_t>(code) >> 5] >>
                        (static_cast<size_t>(code) & 31)) & 1U);
    return held ? static_cast<uint32_t>(code) : kNoSlot;
  }
  if (index_.empty()) return kNoSlot;
  const double v = NumericCell(col, row);
  const size_t mask = index_.size() - 1;
  size_t at = HashAt(v);
  while (index_[at] != kNoSlot && values_[index_[at]] != v) {
    at = (at + 1) & mask;
  }
  return index_[at];
}

bool FeatureOrder::Reads(const exec::VectorData& col) const {
  return categorical() ? col.type == TypeId::kString && col.dict == dict_
                       : col.type != TypeId::kString;
}

std::vector<uint32_t> FeatureOrder::SlotsOf(
    const exec::VectorData& col, const std::vector<uint32_t>& rows) const {
  JB_CHECK_MSG(Reads(col), "a histogram's values are not of its root's kind "
                           "or dictionary");
  std::vector<uint32_t> out(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    if (col.IsNull(rows[k])) {
      out[k] = kNoSlot;
      continue;
    }
    out[k] = Find(col, rows[k]);
    JB_CHECK_MSG(out[k] != kNoSlot, "value " << NumericCell(col, rows[k])
                                             << " is not in the tree root's "
                                                "order");
  }
  return out;
}

bool FeatureOrder::Holds(const exec::VectorData& col,
                         const std::vector<uint32_t>& rows) const {
  if (!Reads(col)) return false;
  for (const uint32_t r : rows) {
    if (!col.IsNull(r) && Find(col, r) == kNoSlot) return false;
  }
  return true;
}

Value FeatureOrder::ValueAt(uint32_t slot) const {
  if (!categorical()) return Value::Double(values_.at(slot));
  Value out = Value::Str(dict_->At(slot));
  out.i = slot;
  return out;
}

std::vector<FeatureOrder> OrdersFromResult(const exec::ExecTable& result,
                                           std::vector<FeatureOrder> last) {
  const std::vector<std::vector<uint32_t>> rows =
      RowsBySet(result, last.size());
  std::vector<FeatureOrder> out;
  out.reserve(last.size());
  for (size_t a = 0; a < last.size(); ++a) {
    const exec::VectorData& col = result.Col(1 + a);
    if (last[a].Holds(col, rows[a])) {
      out.push_back(std::move(last[a]));
    } else {
      out.emplace_back(col, rows[a]);
    }
  }
  return out;
}

std::vector<Histogram> HistogramsFromResult(
    const exec::ExecTable& result, const std::vector<FeatureOrder>& orders) {
  const std::vector<std::vector<uint32_t>> rows =
      RowsBySet(result, orders.size());
  const exec::VectorData& c = result.Col(1 + orders.size());
  const exec::VectorData& s = result.Col(2 + orders.size());
  std::vector<Histogram> out;
  out.reserve(orders.size());
  for (size_t a = 0; a < orders.size(); ++a) {
    out.push_back(SlotHistogram(result.Col(1 + a), rows[a], c, s, orders[a]));
  }
  return out;
}

Histogram SubtractHistogram(const Histogram& parent,
                            const Histogram& smaller) {
  // The smaller child's rows are some of the parent's, so its slots are a
  // subset of the parent's and one step of `j` per match merges them.
  Histogram out;
  out.slot.resize(parent.size());
  out.c.resize(parent.size());
  out.s.resize(parent.size());
  size_t n = 0, j = 0;
  for (size_t i = 0; i < parent.size(); ++i) {
    const uint32_t slot = parent.slot[i];
    const bool match = j < smaller.size() && smaller.slot[j] == slot;
    // x - 0.0 has the bits of x, so an unmatched bin keeps its own.
    const double c = parent.c[i] - (match ? smaller.c[j] : 0.0);
    const double s = parent.s[i] - (match ? smaller.s[j] : 0.0);
    j += match;
    out.slot[n] = slot;
    out.c[n] = c;
    out.s[n] = s;
    n += c != 0.0;  // a bin whose c reaches 0 is dropped
  }
  JB_CHECK_MSG(j == smaller.size(),
               "a child's histogram holds a slot its parent's does not");
  // A leaf may retain it.
  for (auto* v : {&out.c, &out.s}) {
    v->resize(n);
    v->shrink_to_fit();
  }
  out.slot.resize(n);
  out.slot.shrink_to_fit();
  return out;
}

double CriterionValue(double c, double s, const CriterionParams& p) {
  // One statement per operation, in this order: keeping them separate stops
  // the compiler from contracting or reassociating them, so gains keep
  // their bits.
  const double S = p.s_total;
  const double C = p.c_total;
  const double lam = p.lambda;
  if (IsNullFloat64(c) || IsNullFloat64(s)) return NullFloat64();
  double denom_l = c + lam;
  double ratio_l = NullDiv(s, denom_l);
  double left = ratio_l * s;
  double s_r = S - s;
  double c_r = C - c;
  double denom_r = c_r + lam;
  double ratio_r = NullDiv(s_r, denom_r);
  double right = ratio_r * s_r;
  double denom_t = C + lam;
  double ratio_t = NullDiv(S, denom_t);
  double total = ratio_t * S;
  double gain = left + right;
  gain = gain - total;
  if (p.halved) gain = 0.5 * gain;
  return gain;
}

HistogramSplit BestSplitFromHistogram(const Histogram& hist,
                                      const FeatureOrder& order,
                                      const CriterionParams& p) {
  // A categorical bin stands alone (`f = v`); a numeric one takes the
  // running sums through its slot (`f <= v`). c and s accumulate
  // independently. A later slot wins only with a strictly greater
  // criterion, and the first slot with a NULL criterion wins over every
  // finite one.
  const bool categorical = order.categorical();
  const double c_lo = p.min_leaf;
  const double c_hi = p.c_total - p.min_leaf;
  HistogramSplit best;
  uint32_t best_slot = 0;
  bool win_null = false;
  double run_c = 0.0, run_s = 0.0;
  for (size_t i = 0; i < hist.size(); ++i) {
    double c = hist.c[i];
    double s = hist.s[i];
    if (!categorical) {
      if (!IsNullFloat64(c)) run_c += c;
      if (!IsNullFloat64(s)) run_s += s;
      c = run_c;
      s = run_s;
    }
    if (!(c >= c_lo && c <= c_hi)) continue;  // a NaN c fails too
    const double crit = CriterionValue(c, s, p);
    const bool is_null = IsNullFloat64(crit);
    if (best.valid) {
      if (win_null) continue;
      if (!is_null && !(crit > best.criteria)) continue;  // ties keep first
    }
    win_null = is_null;
    best.valid = true;
    best_slot = hist.slot[i];
    best.c = c;
    best.s = s;
    best.criteria = crit;
  }
  if (best.valid) best.val = order.ValueAt(best_slot);
  return best;
}

}  // namespace core
}  // namespace joinboost
