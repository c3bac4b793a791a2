#include "core/split.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "exec/hash_table.h"
#include "sql/printer.h"
#include "util/check.h"
#include "util/rng.h"

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

double DoubleFromBits(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

int64_t BitsOfDouble(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// A c or s cell as a double; an int NULL reads as NaN.
double CellAsDouble(const exec::VectorData& col, size_t row) {
  if (col.type == TypeId::kFloat64) return (*col.dbls)[row];
  const int64_t v = (*col.ints)[row];
  return v == kNullInt64 ? NullFloat64() : static_cast<double>(v);
}

/// Sort key of bin i's value: the double, or the int cast to double.
double OrderKey(const Histogram& hist, size_t i) {
  const int64_t v = hist.bins[i].value;
  return hist.type == TypeId::kFloat64 ? DoubleFromBits(v)
                                       : static_cast<double>(v);
}

/// Bin i's value; a string Value carries its code in `i`.
Value BinValue(const Histogram& hist, size_t i) {
  const int64_t v = hist.bins[i].value;
  switch (hist.type) {
    case TypeId::kInt64:
      return Value::Int(v);
    case TypeId::kFloat64:
      return Value::Double(DoubleFromBits(v));
    case TypeId::kString: {
      Value out = Value::Str(hist.dict->At(v));
      out.i = v;
      return out;
    }
  }
  return Value::Null(hist.type);
}

/// Division where a zero divisor yields NaN (a NULL criterion).
double NullDiv(double x, double y) {
  return y == 0.0 ? NullFloat64() : x / y;
}

}  // namespace

std::vector<Histogram> HistogramsFromResult(const exec::ExecTable& result,
                                            size_t num_attrs) {
  JB_CHECK_MSG(result.cols.size() == num_attrs + 3,
               "histogram result has " << result.cols.size()
                                       << " columns for " << num_attrs
                                       << " attributes");
  const std::vector<int64_t>& set_id = result.Col(0).Ints();
  const exec::VectorData& c = result.Col(1 + num_attrs);
  const exec::VectorData& s = result.Col(2 + num_attrs);
  // Count each set's rows first, so every histogram is allocated once.
  std::vector<size_t> rows_of(num_attrs, 0);
  for (size_t r = 0; r < result.rows; ++r) {
    const size_t sid = static_cast<size_t>(set_id[r]);
    JB_CHECK_MSG(sid < num_attrs, "histogram set id " << sid
                                      << " out of range for " << num_attrs
                                      << " attributes");
    ++rows_of[sid];
  }
  std::vector<Histogram> out(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    const exec::VectorData& col = result.Col(1 + a);
    out[a].type = col.type;
    out[a].dict = col.dict;
    out[a].bins.reserve(rows_of[a]);
  }
  for (size_t r = 0; r < result.rows; ++r) {
    const size_t sid = static_cast<size_t>(set_id[r]);
    const exec::VectorData& col = result.Col(1 + sid);
    if (col.IsNull(r)) continue;  // the NULL rule
    Histogram::Bin bin;
    bin.value = col.type == TypeId::kFloat64 ? BitsOfDouble((*col.dbls)[r])
                                             : (*col.ints)[r];
    bin.c = CellAsDouble(c, r);
    bin.s = CellAsDouble(s, r);
    out[sid].bins.push_back(bin);
  }
  return out;
}

Histogram SubtractHistogram(const Histogram& parent,
                            const Histogram& smaller) {
  JB_CHECK_MSG(parent.type == smaller.type && parent.dict == smaller.dict,
               "sibling subtraction needs two histograms of one column");
  // Index the smaller child's bins by value. SplitMix64 is a bijection, so
  // equal hashes mean equal value bits.
  std::vector<uint64_t> hashes(smaller.bins.size());
  for (size_t i = 0; i < hashes.size(); ++i) {
    hashes[i] = SplitMix64(static_cast<uint64_t>(smaller.bins[i].value));
  }
  exec::hash::JoinHashTable index;
  index.Build(hashes.data(), hashes.size());

  Histogram out;
  out.type = parent.type;
  out.dict = parent.dict;
  out.bins.reserve(parent.bins.size());
  for (const Histogram::Bin& bin : parent.bins) {
    Histogram::Bin rest = bin;
    const uint32_t j =
        index.Probe(SplitMix64(static_cast<uint64_t>(bin.value)));
    if (j != exec::hash::kInvalidIndex) {
      rest.c -= smaller.bins[j].c;
      rest.s -= smaller.bins[j].s;
    }
    if (rest.c != 0.0) out.bins.push_back(rest);
  }
  out.bins.shrink_to_fit();  // a leaf may retain it
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

HistogramSplit BestSplitFromHistogram(const Histogram& hist, bool categorical,
                                      const CriterionParams& p) {
  const std::vector<Histogram::Bin>& bins = hist.bins;
  const size_t n = bins.size();
  // A categorical bin stands alone (`f = v`); a numeric one takes the
  // running sums up to it in stable value order (`f <= v`), written back
  // per bin. c and s accumulate independently. Bins whose keys compare
  // equal (-0.0 and 0.0, which GROUP BY keeps apart by their bits) all
  // satisfy `f <= v` together, so each takes the sums through the last.
  std::vector<double> cum_c, cum_s;
  if (!categorical) {
    std::vector<double> key(n);
    for (size_t i = 0; i < n; ++i) key[i] = OrderKey(hist, i);
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
    cum_c.resize(n);
    cum_s.resize(n);
    double run_c = 0.0, run_s = 0.0;
    for (size_t i = 0, j = 0; i < n; i = j) {
      do {
        const uint32_t r = order[j];
        if (!IsNullFloat64(bins[r].c)) run_c += bins[r].c;
        if (!IsNullFloat64(bins[r].s)) run_s += bins[r].s;
      } while (++j < n && key[order[j]] == key[order[i]]);
      for (size_t k = i; k < j; ++k) {
        cum_c[order[k]] = run_c;
        cum_s[order[k]] = run_s;
      }
    }
  }

  // Bounds, criterion and argmax, scanning in histogram order: a later bin
  // wins only with a strictly greater criterion, and the first bin with a
  // NULL criterion wins over every finite one.
  const double c_lo = p.min_leaf;
  const double c_hi = p.c_total - p.min_leaf;
  HistogramSplit best;
  size_t best_bin = 0;
  bool win_null = false;
  for (size_t i = 0; i < n; ++i) {
    const double c = categorical ? bins[i].c : cum_c[i];
    const double s = categorical ? bins[i].s : cum_s[i];
    if (!(c >= c_lo && c <= c_hi)) continue;  // a NaN c fails too
    const double crit = CriterionValue(c, s, p);
    const bool is_null = IsNullFloat64(crit);
    if (best.valid) {
      if (win_null) continue;
      if (!is_null && !(crit > best.criteria)) continue;  // ties keep first
    }
    win_null = is_null;
    best.valid = true;
    best_bin = i;
    best.c = c;
    best.s = s;
    best.criteria = crit;
  }
  if (best.valid) best.val = BinValue(hist, best_bin);
  return best;
}

}  // namespace core
}  // namespace joinboost
