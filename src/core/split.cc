#include "core/split.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
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

std::string CriterionSql(const CriterionParams& p) {
  using sql::DoubleLiteral;
  std::string S = DoubleLiteral(p.s_total);
  std::string C = DoubleLiteral(p.c_total);
  std::string lam = DoubleLiteral(p.lambda);
  std::ostringstream os;
  if (p.halved) os << "0.5 * (";
  os << "(s / (c + " << lam << ")) * s"
     << " + ((" << S << " - s) / (" << C << " - c + " << lam << ")) * (" << S
     << " - s)"
     << " - (" << S << " / (" << C << " + " << lam << ")) * " << S;
  if (p.halved) os << ")";
  return os.str();
}

namespace {

std::string BoundsPredicate(const CriterionParams& p) {
  using sql::DoubleLiteral;
  std::ostringstream os;
  os << "c >= " << DoubleLiteral(p.min_leaf) << " AND c <= "
     << DoubleLiteral(p.c_total - p.min_leaf);
  return os.str();
}

}  // namespace

std::string NumericBestSplitSql(const std::string& attr,
                                const factor::Factorizer::AbsorptionParts& abs,
                                const CriterionParams& p) {
  std::ostringstream os;
  os << "SELECT val, c, s, " << CriterionSql(p) << " AS criteria FROM ("
     << "SELECT val, SUM(c) OVER (ORDER BY val) AS c, "
     << "SUM(s) OVER (ORDER BY val) AS s FROM ("
     << "SELECT " << attr << " AS val, SUM(" << abs.c_expr << ") AS c, SUM("
     << abs.s_expr << ") AS s " << abs.from_where << " GROUP BY " << attr
     << ")) WHERE " << BoundsPredicate(p)
     << " ORDER BY criteria DESC LIMIT 1";
  return os.str();
}

std::string CategoricalBestSplitSql(
    const std::string& attr, const factor::Factorizer::AbsorptionParts& abs,
    const CriterionParams& p) {
  std::ostringstream os;
  os << "SELECT val, c, s, " << CriterionSql(p) << " AS criteria FROM ("
     << "SELECT " << attr << " AS val, SUM(" << abs.c_expr << ") AS c, SUM("
     << abs.s_expr << ") AS s " << abs.from_where << " GROUP BY " << attr
     << ") WHERE " << BoundsPredicate(p)
     << " ORDER BY criteria DESC LIMIT 1";
  return os.str();
}

namespace {

/// WindowExec's ORDER BY key conversion: doubles pass through (NaN when
/// NULL); ints cast unconditionally, so the int NULL sentinel orders first.
double WindowOrderKey(const Value& v) {
  return v.type == TypeId::kFloat64 ? v.d : static_cast<double>(v.i);
}

/// SQL division: divide-by-zero yields NULL (NaN), as in EvalNumericBinary.
double SqlDiv(double x, double y) {
  return y == 0.0 ? NullFloat64() : x / y;
}

}  // namespace

double CriterionValue(double c, double s, const CriterionParams& p) {
  // One statement per SQL binary operation, in CriterionSql()'s parse order:
  // the expression evaluator runs each op separately, so keeping them as
  // separate statements stops the compiler from contracting/reassociating
  // what SQL computes stepwise (bit-identical gains).
  const double S = p.s_total;
  const double C = p.c_total;
  const double lam = p.lambda;
  if (IsNullFloat64(c) || IsNullFloat64(s)) return NullFloat64();
  double denom_l = c + lam;
  double ratio_l = SqlDiv(s, denom_l);
  double left = ratio_l * s;
  double s_r = S - s;
  double c_r = C - c;
  double denom_r = c_r + lam;
  double ratio_r = SqlDiv(s_r, denom_r);
  double right = ratio_r * s_r;
  double denom_t = C + lam;
  double ratio_t = SqlDiv(S, denom_t);
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
  std::vector<double> cum_c(n), cum_s(n);
  if (categorical) {
    // Equality split: each bin stands alone (no prefix sums).
    for (size_t i = 0; i < n; ++i) {
      cum_c[i] = bins[i].c.AsDouble();
      cum_s[i] = bins[i].s.AsDouble();
    }
  } else {
    // WindowExec twin: stable-sort bins by value, then running sums in that
    // order (NULL terms skipped), written back per bin. The c and s windows
    // accumulate independently, exactly like two SUM(...) OVER calls.
    std::vector<uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
      return WindowOrderKey(bins[a].val) < WindowOrderKey(bins[b].val);
    });
    double run_c = 0.0, run_s = 0.0;
    for (uint32_t r : idx) {
      if (!bins[r].c.null) run_c += bins[r].c.AsDouble();
      cum_c[r] = run_c;
      if (!bins[r].s.null) run_s += bins[r].s.AsDouble();
      cum_s[r] = run_s;
    }
  }

  // Bounds predicate + criterion + ORDER BY criteria DESC LIMIT 1, scanning
  // in bin (group first-occurrence) order: the stable descending sort puts
  // the first strict maximum first — and rows with NULL criteria before
  // every non-NULL row (SortExec's null ordering under DESC), so the first
  // bounds-passing NULL-criteria bin wins if one exists.
  const double c_lo = p.min_leaf;
  const double c_hi = p.c_total - p.min_leaf;
  HistogramSplit best;
  size_t win = SIZE_MAX;
  bool win_null = false;
  for (size_t i = 0; i < n; ++i) {
    const double c = cum_c[i];
    if (!(c >= c_lo && c <= c_hi)) continue;  // NaN c fails, as NULL does
    const double crit = CriterionValue(c, cum_s[i], p);
    const bool is_null = IsNullFloat64(crit);
    if (win != SIZE_MAX) {
      if (win_null) continue;                       // NULL stays pinned first
      if (!is_null && !(crit > best.criteria)) continue;  // ties keep first
    }
    win = i;
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
