#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/types.h"

namespace joinboost {
namespace core {

/// A leaf's best split over one feature, as the split kernel found it.
struct SplitCandidate {
  bool valid = false;
  std::string feature;
  int relation = -1;
  bool categorical = false;
  double threshold = 0;
  int64_t category = 0;
  std::string category_str;
  double gain = 0;
  double c_left = 0;  ///< C (or H) of the selected side σ
  double s_left = 0;  ///< S (or G) of the selected side σ
};

/// The two child predicates of a split (paper §3.2 forms).
struct ChildPredicates {
  std::string left;
  std::string right;
};

/// `f <= t` / `f > t`, or `f = 'c'` / `f <> 'c'`. The right child takes
/// every row the left one does not, as TreeModel::Predict routes it: when
/// the feature's column holds a NULL (`holds_null`), the right predicate
/// is `(f > t OR f IS NULL)` / `(f <> 'c' OR f IS NULL)`, since a NULL
/// satisfies neither comparison.
ChildPredicates SplitPredicates(const std::string& feature, bool categorical,
                                double threshold, const std::string& category,
                                bool holds_null);

/// Constants of the node being split: its totals (the paper's
/// {$stotal}/{$ctotal}, Example 2), λ and the per-side bound.
struct CriterionParams {
  double c_total = 0;
  double s_total = 0;
  double lambda = 0;         ///< L2 regularization λ
  double min_leaf = 1;       ///< min C on each side
  bool halved = false;       ///< 0.5 factor of the boosting gain
};

/// One (value, c, s) bin of a feature histogram, in aggregation (group
/// first-occurrence) order: the rows a leaf's GROUPING SETS histogram query
/// emits for one feature.
struct HistogramEntry {
  Value val;
  Value c;
  Value s;
};

/// Winning bin of the threshold enumeration over one histogram. `criteria`
/// may be NaN or infinite; the trainer drops such a feature.
struct HistogramSplit {
  bool valid = false;  ///< some bin passed the bounds
  Value val;
  double c = 0;
  double s = 0;
  double criteria = 0;
};

/// Split criterion over the selected side's (c, s):
///   [0.5·]((s/(c+λ))·s + ((S−s)/(C−c+λ))·(S−s) − (S/(C+λ))·S)
/// computed as (s/c)·s to avoid overflow (Appendix A). A division by zero
/// yields NaN, a NULL criterion.
double CriterionValue(double c, double s, const CriterionParams& p);

/// Threshold enumeration over one feature's histogram. Its rules:
///  - NULL: a bin whose value is NULL (the int sentinel or NaN) is neither
///    summed nor a candidate. Its rows stay in `c_total`/`s_total`, so the
///    right child (parent − left) holds them, as SplitPredicates and
///    TreeModel::Predict route them.
///  - Sums: a numeric feature's bins are stable-sorted by value (ints as
///    doubles) and summed in that order (`f <= v`); a categorical bin
///    stands alone (`f = v`). A bin passes when min_leaf <= c <= C −
///    min_leaf.
///  - Order: bins are scanned in histogram order, and a later bin wins only
///    with a strictly greater criterion, so ties keep the first. A NULL
///    criterion (division by zero) wins over every finite one and keeps the
///    first such bin.
/// The tie and NULL-criterion orders are those of the per-feature split
/// SQL this kernel replaced, so earlier models keep their bits.
HistogramSplit BestSplitFromHistogram(const std::vector<HistogramEntry>& bins,
                                      bool categorical,
                                      const CriterionParams& p);

}  // namespace core
}  // namespace joinboost
