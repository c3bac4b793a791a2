#include "core/split.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sql/printer.h"

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

/// Sort key of a non-NULL bin value: doubles as they are, ints cast.
double ValueOrderKey(const Value& v) {
  return v.type == TypeId::kFloat64 ? v.d : static_cast<double>(v.i);
}

/// Division where a zero divisor yields NaN (a NULL criterion).
double NullDiv(double x, double y) {
  return y == 0.0 ? NullFloat64() : x / y;
}

}  // namespace

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

HistogramSplit BestSplitFromHistogram(const std::vector<HistogramEntry>& bins,
                                      bool categorical,
                                      const CriterionParams& p) {
  const size_t n = bins.size();
  // The non-NULL bins, in histogram order. A NULL bin's rows satisfy no
  // split predicate: they stay in the totals and go right, so the bin is
  // neither summed nor a candidate.
  std::vector<uint32_t> live;
  live.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!bins[i].val.null) live.push_back(i);
  }
  std::vector<double> cum_c(n), cum_s(n);
  if (categorical) {
    // Equality split: each bin stands alone (no prefix sums).
    for (uint32_t i : live) {
      cum_c[i] = bins[i].c.AsDouble();
      cum_s[i] = bins[i].s.AsDouble();
    }
  } else {
    // `f <= v`: running sums in stable value order (NULL terms skipped),
    // written back per bin. c and s accumulate independently.
    std::vector<double> key(n);
    for (uint32_t i : live) key[i] = ValueOrderKey(bins[i].val);
    std::vector<uint32_t> order = live;
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
    double run_c = 0.0, run_s = 0.0;
    for (uint32_t r : order) {
      if (!bins[r].c.null) run_c += bins[r].c.AsDouble();
      cum_c[r] = run_c;
      if (!bins[r].s.null) run_s += bins[r].s.AsDouble();
      cum_s[r] = run_s;
    }
  }

  // Bounds, criterion and argmax, scanning in histogram order: a later bin
  // wins only with a strictly greater criterion, and the first bin with a
  // NULL criterion wins over every finite one.
  const double c_lo = p.min_leaf;
  const double c_hi = p.c_total - p.min_leaf;
  HistogramSplit best;
  bool win_null = false;
  for (uint32_t i : live) {
    const double c = cum_c[i];
    if (!(c >= c_lo && c <= c_hi)) continue;  // a NaN c fails too
    const double crit = CriterionValue(c, cum_s[i], p);
    const bool is_null = IsNullFloat64(crit);
    if (best.valid) {
      if (win_null) continue;
      if (!is_null && !(crit > best.criteria)) continue;  // ties keep first
    }
    win_null = is_null;
    best.valid = true;
    best.val = bins[i].val;
    best.c = c;
    best.s = cum_s[i];
    best.criteria = crit;
  }
  return best;
}

}  // namespace core
}  // namespace joinboost
