#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/vector.h"
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

/// One feature's histogram at a leaf, in the compact form the split kernel
/// reads and a leaf retains for sibling subtraction: its non-NULL bins in
/// aggregation (group first-occurrence) order, 24 bytes a bin.
struct Histogram {
  struct Bin {
    int64_t value = 0;  ///< the int64, the dictionary code or the float64 bits
    double c = 0;
    double s = 0;
  };
  TypeId type = TypeId::kFloat64;
  DictionaryPtr dict;  ///< kString: the dictionary of the codes
  std::vector<Bin> bins;
};

/// Demultiplexes a histogram query's result, rows (set_id, attrs..., c, s),
/// into one Histogram per attribute, reading its typed columns. The NULL
/// rule lives here: a bin whose value is NULL (the int sentinel or NaN) is
/// dropped, so it is neither summed nor a split candidate. Its rows stay in
/// the node's totals, so the right child (parent − left) holds them, as
/// SplitPredicates and TreeModel::Predict route them. A NULL c or s reads
/// as NaN.
std::vector<Histogram> HistogramsFromResult(const exec::ExecTable& result,
                                            size_t num_attrs);

/// Sibling subtraction: the histogram of the child that was not queried, as
/// `parent` minus `smaller` (its queried sibling's) bin by bin. Bins match
/// by value bits, the way GROUP BY groups them; the result keeps the
/// parent's bin order and drops a bin whose c reaches 0. Exact in c only
/// when c counts join tuples, so a bin is empty exactly when its c is 0.
Histogram SubtractHistogram(const Histogram& parent, const Histogram& smaller);

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

/// Threshold enumeration over one feature's histogram (NULL bins are
/// already out: HistogramsFromResult). Its rules:
///  - Sums: a numeric feature's bins are stable-sorted by value (ints as
///    doubles) and summed in that order (`f <= v`), a NaN c or s adding
///    nothing; a categorical bin stands alone (`f = v`). A bin passes when
///    min_leaf <= c <= C − min_leaf.
///  - Order: bins are scanned in histogram order, and a later bin wins only
///    with a strictly greater criterion, so ties keep the first. A NULL
///    criterion (division by zero) wins over every finite one and keeps the
///    first such bin.
/// The tie and NULL-criterion orders are those of the per-feature split
/// SQL this kernel replaced, so earlier models keep their bits.
HistogramSplit BestSplitFromHistogram(const Histogram& hist, bool categorical,
                                      const CriterionParams& p);

}  // namespace core
}  // namespace joinboost
