#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/params.h"
#include "core/split.h"
#include "factor/message_passing.h"

namespace joinboost {
namespace core {

/// Output of growing one tree: the model plus the per-leaf predicate sets
/// and aggregates that residual updates need (§4, §5.3).
struct GrowthResult {
  TreeModel tree;
  struct LeafInfo {
    int node = 0;
    factor::PredicateSet preds;
    double c = 0;          ///< C (or H) in the leaf
    double s = 0;          ///< S (or G) in the leaf
    double raw_value = 0;  ///< unshrunk leaf value s/(c+λ)
  };
  std::vector<LeafInfo> leaves;
  int first_split_relation = -1;  ///< drives CPT cluster selection (§4.2.2)
};

/// Algorithm 1: grows one decision tree. A leaf's split search runs one
/// GROUPING SETS histogram query per relation carrying features (built by
/// the factorizer) and enumerates thresholds in the C++ split kernel
/// (split.h). The root's histogram results fix each feature's value order
/// for the whole tree (FeatureOrder, at most one sort per feature), and every
/// node's histograms are lists of its slots in ascending order. After a
/// split only the child with the smaller c is queried (the left one on a
/// tie). When c counts join tuples, i.e. no RelationBinding has a count
/// column, the larger child's histograms are its parent's minus the smaller
/// child's (sibling subtraction, SubtractHistogram: a merge of the two slot
/// lists); under a hessian or weight c it is queried too. A split that
/// fills the tree evaluates neither child. Growth is best-first (priority
/// queue on criterion reduction) or depth-wise.
class TreeGrower {
 public:
  TreeGrower(factor::Factorizer* fac, const TrainParams& params);

  /// Grow a tree over `features`. `agg_root` is the relation used for total
  /// aggregates (Y's relation or the cluster fact). When `clusters` is
  /// non-null, splits after the first are confined to the first split's
  /// cluster — the Clustered Predicate Tree policy.
  GrowthResult Grow(const std::vector<std::string>& features, int agg_root,
                    const std::vector<int>* clusters);

  /// Number of split queries issued so far (Fig 9 instrumentation): one
  /// per (queried leaf, relation carrying candidate features). A leaf whose
  /// histograms come from sibling subtraction issues none.
  size_t split_queries() const { return split_queries_; }

 private:
  /// A relation carrying candidate features: one histogram query per
  /// queried leaf.
  struct FeatureGroup {
    int rel = 0;
    std::vector<std::string> feats;
    std::vector<bool> categorical;
  };
  /// A node's histograms: per feature group, one per feature, or none for a
  /// group outside the allowed relations.
  using NodeHistograms = std::vector<std::vector<Histogram>>;

  struct LeafState {
    int node = 0;
    int depth = 0;
    factor::PredicateSet preds;
    double c = 0, s = 0;
    SplitCandidate best;
    /// Kept, under sibling subtraction, while the leaf can still split and
    /// its children would be evaluated.
    NodeHistograms hists;
  };

  std::vector<FeatureGroup> GroupFeatures(
      const std::vector<std::string>& features) const;
  NodeHistograms QueryHistograms(const LeafState& leaf,
                                 const std::vector<int>* allowed);
  SplitCandidate BestSplit(const LeafState& leaf,
                           const NodeHistograms& hists) const;
  bool IsCategorical(int rel, const std::string& feature) const;

  factor::Factorizer* fac_;
  TrainParams params_;
  std::vector<FeatureGroup> groups_;  ///< of the tree being grown
  /// Per feature group, one order per feature, fixed by the tree's root
  /// histograms. When the tree is grown they move to `last_orders_`, by
  /// feature, where the next tree's root takes each one that holds all of
  /// its values (a gbdt's roots all do) and sorts the others afresh.
  std::vector<std::vector<FeatureOrder>> orders_;
  std::map<std::string, FeatureOrder> last_orders_;
  size_t split_queries_ = 0;
};

}  // namespace core
}  // namespace joinboost
