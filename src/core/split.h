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

/// One feature's value order over one tree. The tree's root histogram
/// result fixes it, with at most one sort per feature per tree: every
/// node's rows are a subset of its root's, so every value a node's
/// histogram holds has a slot.
///  - A numeric feature's slots are its distinct non-NULL values at the
///    root, ascending. An int64 is compared as the double its threshold
///    becomes, so values a threshold cannot separate (beyond 2^53) share a
///    slot, and -0.0 and 0.0 share a slot.
///  - A categorical feature's slot is its dictionary code.
/// The index maps a value to its slot: for a numeric feature an
/// open-addressed table of slots probed by the value's bits, so a slot
/// costs 8 bytes of value and 8 to 16 of table; for a categorical one a bit
/// per code. The categorical codes must be of the root's dictionary.
class FeatureOrder {
 public:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  FeatureOrder() = default;
  /// The order of the non-NULL values of `col` at `rows`.
  FeatureOrder(const exec::VectorData& col, const std::vector<uint32_t>& rows);

  bool categorical() const { return type_ == TypeId::kString; }
  uint32_t num_slots() const { return num_slots_; }
  /// The slot of each cell of `col` at `rows`, kNoSlot for a NULL. A
  /// non-NULL value the root did not hold is a JbError.
  std::vector<uint32_t> SlotsOf(const exec::VectorData& col,
                                const std::vector<uint32_t>& rows) const;
  /// True when every non-NULL cell of `col` at `rows` has a slot.
  bool Holds(const exec::VectorData& col,
             const std::vector<uint32_t>& rows) const;
  /// The split value at `slot`: the threshold as a double, or the category
  /// as a string Value carrying its code in `i`.
  Value ValueAt(uint32_t slot) const;

 private:
  /// Position of `v` in the numeric table (multiply-shift of its bits,
  /// -0.0 read as 0.0).
  size_t HashAt(double v) const;
  /// The slot of `col`'s non-NULL cell at `row`, kNoSlot for a value the
  /// order lacks.
  uint32_t Find(const exec::VectorData& col, size_t row) const;
  /// Whether `col` holds values of this order's kind: numbers for a
  /// numeric order, codes of its dictionary for a categorical one.
  bool Reads(const exec::VectorData& col) const;

  TypeId type_ = TypeId::kFloat64;
  uint32_t num_slots_ = 0;
  DictionaryPtr dict_;          ///< categorical: the codes' dictionary
  std::vector<double> values_;  ///< numeric: slot -> value
  /// Numeric: slot table probed by the value's bits (kNoSlot = empty);
  /// categorical: one presence bit per code.
  std::vector<uint32_t> index_;
  int shift_ = 63;  ///< numeric: 64 - log2 of the table's size
};

/// One feature's histogram at a node, in the compact form the split kernel
/// reads and a leaf retains for sibling subtraction: its non-NULL bins as
/// slots of the tree's FeatureOrder in ascending slot order, each with its
/// c and s, 20 bytes a bin.
struct Histogram {
  std::vector<uint32_t> slot;
  std::vector<double> c;
  std::vector<double> s;
  size_t size() const { return slot.size(); }
};

/// One FeatureOrder per attribute of a tree root's histogram result, rows
/// (set_id, attrs..., c, s). An attribute keeps its order from `last` (one
/// per attribute, the last tree's, or empty) when that order holds every
/// value the root does, as the roots of a gbdt, over the same rows, all
/// do: slots the root lacks change no result.
std::vector<FeatureOrder> OrdersFromResult(const exec::ExecTable& result,
                                           std::vector<FeatureOrder> last);

/// Demultiplexes a histogram query's result, rows (set_id, attrs..., c, s),
/// into one Histogram per attribute, each bin mapped through its
/// attribute's order in `orders`. A presence bitmap over the slots places
/// the bins in slot order, O(bins + slots/64) with no comparison sort. Bins
/// that share a slot are summed, a NaN c or s adding nothing. The NULL rule
/// lives here: a bin whose value is NULL (the int sentinel or NaN) is
/// dropped, so it is neither summed nor a split candidate. Its rows stay in
/// the node's totals, so the right child (parent − left) holds them, as
/// SplitPredicates and TreeModel::Predict route them. A NULL c or s reads
/// as NaN.
std::vector<Histogram> HistogramsFromResult(
    const exec::ExecTable& result, const std::vector<FeatureOrder>& orders);

/// Sibling subtraction: the histogram of the child that was not queried, as
/// `parent` minus `smaller` (its queried sibling's) slot by slot, by one
/// merge of the two slot lists. A bin whose c reaches 0 is dropped. Exact
/// in c only when c counts join tuples, so a bin is empty exactly when its
/// c is 0.
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
/// already out: HistogramsFromResult), in one pass over its slots. Its
/// rules:
///  - Sums: a numeric feature's bins are summed in slot (value) order
///    (`f <= v`), a NaN c or s adding nothing; a categorical bin stands
///    alone (`f = v`). A bin passes when min_leaf <= c <= C − min_leaf.
///  - Order: a later slot wins only with a strictly greater criterion, so
///    ties keep the lowest slot, i.e. the smallest threshold. A NULL
///    criterion (division by zero) wins over every finite one and keeps the
///    first such slot.
/// The winning value is read from `order` at the winning slot.
HistogramSplit BestSplitFromHistogram(const Histogram& hist,
                                      const FeatureOrder& order,
                                      const CriterionParams& p);

}  // namespace core
}  // namespace joinboost
