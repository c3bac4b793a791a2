#pragma once

#include <cstdint>
#include <string>

#include "factor/message_passing.h"

namespace joinboost {
namespace core {

/// A candidate split returned by the best-split SQL of one feature.
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

/// Constants of the node being split, baked into the criterion SQL just as
/// the paper substitutes {$stotal}/{$ctotal} (Example 2).
struct CriterionParams {
  double c_total = 0;
  double s_total = 0;
  double lambda = 0;         ///< L2 regularization λ
  double min_leaf = 1;       ///< min C on each side
  bool halved = false;       ///< 0.5 factor of the boosting gain
};

/// Criterion expression over columns `c`/`s` of the aggregated subquery:
///   [0.5·]((s/(c+λ))·s + ((S−s)/(C−c+λ))·(S−s) − (S/(C+λ))·S)
/// computed as (s/c)*s to avoid overflow (Appendix A).
std::string CriterionSql(const CriterionParams& p);

/// Complete best-split query for a numeric feature (Example 2 shape):
/// group-by → window prefix sums → criterion → ORDER BY criteria DESC LIMIT 1.
std::string NumericBestSplitSql(const std::string& attr,
                                const factor::Factorizer::AbsorptionParts& abs,
                                const CriterionParams& p);

/// Best-split query for a categorical feature (equality split, no window).
std::string CategoricalBestSplitSql(
    const std::string& attr, const factor::Factorizer::AbsorptionParts& abs,
    const CriterionParams& p);

// ---- batched split evaluation (one histogram query per relation) ----

/// One (value, c, s) bin of a feature histogram, in aggregation (group
/// first-occurrence) order — exactly the rows the batched GROUPING SETS
/// query emits for one feature.
struct HistogramEntry {
  Value val;
  Value c;
  Value s;
};

/// Winning row of the threshold enumeration over one histogram. `criteria`
/// may be NaN/inf — the caller invalidates such candidates, exactly like the
/// consumer of the per-feature SQL result does.
struct HistogramSplit {
  bool valid = false;  ///< some bin passed the bounds predicate
  Value val;
  double c = 0;
  double s = 0;
  double criteria = 0;
};

/// Criterion over cumulative (c, s): mirrors CriterionSql() operation for
/// operation — including SQL division-by-zero → NULL (NaN) — so the batched
/// C++ kernel produces bit-identical gains to the SQL expression evaluator.
double CriterionValue(double c, double s, const CriterionParams& p);

/// Threshold enumeration over one feature's histogram: the C++ twin of the
/// per-feature best-split SQL. Numeric features get the window-style prefix
/// sums (stable sort by value, running sums in that order); both kinds then
/// apply the bounds predicate, the criterion and the ORDER BY criteria DESC
/// LIMIT 1 argmax (first row wins ties; NULL criteria sorts first under
/// DESC, as in SortExec). Bit-identical to executing the SQL.
HistogramSplit BestSplitFromHistogram(const std::vector<HistogramEntry>& bins,
                                      bool categorical,
                                      const CriterionParams& p);

}  // namespace core
}  // namespace joinboost
