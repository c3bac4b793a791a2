#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "util/check.h"

namespace joinboost {
namespace core {

TreeGrower::TreeGrower(factor::Factorizer* fac, const TrainParams& params)
    : fac_(fac), params_(params) {}

bool TreeGrower::IsCategorical(int rel, const std::string& feature) const {
  const auto& binding = fac_->binding(rel);
  TablePtr table = fac_->db()->catalog().Get(binding.table);
  int idx = table->schema().FieldIndex(feature);
  JB_CHECK_MSG(idx >= 0, "feature " << feature << " not in table "
                                    << binding.table);
  return table->schema().field(static_cast<size_t>(idx)).type ==
         TypeId::kString;
}

std::vector<TreeGrower::FeatureGroup> TreeGrower::GroupFeatures(
    const std::vector<std::string>& features) const {
  // One group per relation, in relation order; a relation's features keep
  // their order.
  std::map<int, FeatureGroup> by_rel;
  for (const auto& f : features) {
    int rel = fac_->graph().RelationOfFeature(f);
    JB_CHECK_MSG(rel >= 0, "unknown feature " << f);
    FeatureGroup& group = by_rel[rel];
    group.rel = rel;
    group.feats.push_back(f);
    group.categorical.push_back(IsCategorical(rel, f));
  }
  std::vector<FeatureGroup> groups;
  for (auto& [rel, group] : by_rel) groups.push_back(std::move(group));
  return groups;
}

TreeGrower::NodeHistograms TreeGrower::QueryHistograms(
    const LeafState& leaf, const std::vector<int>* allowed) {
  // Phase 1 (serial): compose one GROUPING SETS histogram query per allowed
  // group. The factorizer materializes every missing message of the leaf
  // first (serialized by its internal mutex; kept serial here for
  // deterministic temp-table naming), sharing scans between same-input
  // messages and histograms.
  std::vector<size_t> queried;
  std::vector<factor::HistogramRequest> requests;
  for (size_t g = 0; g < groups_.size(); ++g) {
    const int rel = groups_[g].rel;
    if (allowed &&
        std::find(allowed->begin(), allowed->end(), rel) == allowed->end()) {
      continue;
    }
    queried.push_back(g);
    requests.push_back({rel, groups_[g].feats});
  }
  const factor::LeafHistograms leaf_hists =
      fac_->BatchedHistograms(requests, leaf.preds, "message");

  // The tree's root result fixes each feature's order, keeping the last
  // tree's where it still holds; every later node's bins are mapped into
  // it.
  std::vector<std::vector<FeatureOrder>> last(requests.size());
  if (leaf.node == 0) {
    for (size_t j = 0; j < requests.size(); ++j) {
      for (const std::string& f : requests[j].attrs) {
        last[j].push_back(std::move(last_orders_[f]));
      }
    }
  }

  // Phase 2 (optionally parallel across relations): run each query and
  // demultiplex its rows by set_id into per-feature histograms.
  NodeHistograms hists(groups_.size());
  auto run_one = [&](size_t j) {
    auto res = fac_->db()->Query(leaf_hists.sql[j], "feature");
    std::vector<FeatureOrder>& orders = orders_[queried[j]];
    if (leaf.node == 0) orders = OrdersFromResult(*res, std::move(last[j]));
    hists[queried[j]] = HistogramsFromResult(*res, orders);
  };
  split_queries_ += requests.size();
  if (params_.inter_query_parallelism && requests.size() > 1) {
    fac_->db()->pool().ParallelFor(requests.size(), run_one);
  } else {
    for (size_t j = 0; j < requests.size(); ++j) run_one(j);
  }
  fac_->ReleaseShared(leaf_hists);
  return hists;
}

SplitCandidate TreeGrower::BestSplit(const LeafState& leaf,
                                     const NodeHistograms& hists) const {
  CriterionParams crit;
  crit.c_total = leaf.c;
  crit.s_total = leaf.s;
  crit.lambda = params_.lambda_l2;
  crit.min_leaf = params_.min_data_in_leaf;
  crit.halved = true;

  // Threshold enumeration per feature in (relation, feature) order; a later
  // candidate wins only with a strictly greater gain, none wins below the
  // floor, and a non-finite criterion drops its feature.
  SplitCandidate best;
  double best_gain = std::max(params_.min_gain, 1e-12);
  for (size_t g = 0; g < groups_.size(); ++g) {
    const FeatureGroup& group = groups_[g];
    for (size_t fi = 0; fi < hists[g].size(); ++fi) {
      const HistogramSplit hs =
          BestSplitFromHistogram(hists[g][fi], orders_[g][fi], crit);
      if (!hs.valid || !std::isfinite(hs.criteria) ||
          !(hs.criteria > best_gain)) {
        continue;
      }
      best_gain = hs.criteria;
      best = SplitCandidate{};
      best.valid = true;
      best.feature = group.feats[fi];
      best.relation = group.rel;
      best.categorical = group.categorical[fi];
      best.gain = hs.criteria;
      best.c_left = hs.c;
      best.s_left = hs.s;
      if (best.categorical) {
        best.category = hs.val.i;
        best.category_str = hs.val.s;
      } else {
        best.threshold = hs.val.AsDouble();
      }
    }
  }
  return best;
}

GrowthResult TreeGrower::Grow(const std::vector<std::string>& features,
                              int agg_root,
                              const std::vector<int>* clusters) {
  GrowthResult result;
  groups_ = GroupFeatures(features);
  orders_.assign(groups_.size(), {});
  // Sibling subtraction needs c to count join tuples, so that a bin is
  // empty exactly when its c is 0: no relation may bind a count (hessian or
  // weight) column.
  bool derive = true;
  for (size_t r = 0; r < fac_->graph().num_relations(); ++r) {
    if (fac_->binding(static_cast<int>(r)).has_c) derive = false;
  }
  factor::PredicateSet no_preds;
  semiring::VarianceElem total =
      fac_->TotalAggregate(agg_root, no_preds, "message");

  TreeModel& tree = result.tree;
  tree.nodes.push_back(TreeNode{});
  tree.nodes[0].count = total.c;
  tree.nodes[0].sum = total.s;

  std::vector<LeafState> leaves;
  {
    LeafState root;
    root.node = 0;
    root.c = total.c;
    root.s = total.s;
    leaves.push_back(std::move(root));
  }

  std::vector<int> allowed_storage;
  const std::vector<int>* allowed = nullptr;  // root splits freely

  // A leaf keeps its histograms, for its larger child to be derived from,
  // while it can still split and max_depth lets its children be evaluated.
  auto evaluate = [&](LeafState* leaf, NodeHistograms hists) {
    leaf->best = BestSplit(*leaf, hists);
    const bool children_evaluated =
        params_.max_depth < 0 || leaf->depth + 1 < params_.max_depth;
    if (derive && leaf->best.valid && children_evaluated) {
      leaf->hists = std::move(hists);
    }
  };

  int num_leaves = 1;
  if (total.c > 0) {
    evaluate(&leaves[0], QueryHistograms(leaves[0], allowed));
  }

  const bool depth_wise = params_.growth == "depth_wise";
  while (num_leaves < params_.num_leaves) {
    // Pick the leaf to split.
    int pick = -1;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (!leaves[i].best.valid) continue;
      if (pick < 0) {
        pick = static_cast<int>(i);
        continue;
      }
      const LeafState& a = leaves[i];
      const LeafState& b = leaves[static_cast<size_t>(pick)];
      bool better = depth_wise ? (a.depth < b.depth ||
                                  (a.depth == b.depth && a.best.gain > b.best.gain))
                               : a.best.gain > b.best.gain;
      if (better) pick = static_cast<int>(i);
    }
    if (pick < 0) break;

    LeafState leaf = std::move(leaves[static_cast<size_t>(pick)]);
    leaves.erase(leaves.begin() + pick);
    const SplitCandidate& sp = leaf.best;

    if (result.first_split_relation < 0) {
      result.first_split_relation = sp.relation;
      if (clusters) {
        // CPT: confine the rest of this tree to the first split's cluster.
        int cid = (*clusters)[static_cast<size_t>(sp.relation)];
        for (size_t r = 0; r < clusters->size(); ++r) {
          if ((*clusters)[r] == cid) allowed_storage.push_back(static_cast<int>(r));
        }
        allowed = &allowed_storage;
      }
    }

    // Materialize the split on the model.
    TreeNode& parent = tree.nodes[static_cast<size_t>(leaf.node)];
    parent.is_leaf = false;
    parent.feature = sp.feature;
    parent.relation = sp.relation;
    parent.categorical = sp.categorical;
    parent.threshold = sp.threshold;
    parent.category = sp.category;
    parent.category_str = sp.category_str;
    parent.gain = sp.gain;
    int left_idx = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(TreeNode{});
    int right_idx = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(TreeNode{});
    tree.nodes[static_cast<size_t>(leaf.node)].left = left_idx;
    tree.nodes[static_cast<size_t>(leaf.node)].right = right_idx;

    const auto& nulls = fac_->graph().relation(sp.relation).null_features;
    ChildPredicates child = SplitPredicates(
        sp.feature, sp.categorical, sp.threshold, sp.category_str,
        std::find(nulls.begin(), nulls.end(), sp.feature) != nulls.end());

    LeafState left;
    left.node = left_idx;
    left.depth = leaf.depth + 1;
    left.preds = leaf.preds;
    left.preds.Add(sp.relation, child.left);
    left.c = sp.c_left;
    left.s = sp.s_left;

    LeafState right;
    right.node = right_idx;
    right.depth = leaf.depth + 1;
    right.preds = leaf.preds;
    right.preds.Add(sp.relation, child.right);
    right.c = leaf.c - sp.c_left;
    right.s = leaf.s - sp.s_left;

    tree.nodes[static_cast<size_t>(left_idx)].count = left.c;
    tree.nodes[static_cast<size_t>(left_idx)].sum = left.s;
    tree.nodes[static_cast<size_t>(right_idx)].count = right.c;
    tree.nodes[static_cast<size_t>(right_idx)].sum = right.s;

    ++num_leaves;

    // Algorithm 1 (L8-9) computes GetBestSplit for both children as soon as
    // the parent splits, which is why the paper counts num_nodes x
    // num_features split queries (Fig 9). Here only the child with the
    // smaller c is queried, one statement per relation carrying features;
    // the larger child's histograms are derived from the parent's, or
    // queried when c is not a tuple count. A split that fills the tree
    // evaluates neither child: they can never split.
    const bool depth_ok =
        params_.max_depth < 0 || left.depth < params_.max_depth;
    if (depth_ok && num_leaves < params_.num_leaves) {
      const bool left_smaller = left.c <= right.c;
      LeafState& smaller = left_smaller ? left : right;
      LeafState& larger = left_smaller ? right : left;
      NodeHistograms smaller_hists = QueryHistograms(smaller, allowed);
      NodeHistograms larger_hists;
      if (leaf.hists.empty()) {
        larger_hists = QueryHistograms(larger, allowed);
      } else {
        larger_hists.resize(groups_.size());
        for (size_t g = 0; g < groups_.size(); ++g) {
          JB_CHECK(smaller_hists[g].size() <= leaf.hists[g].size());
          for (size_t fi = 0; fi < smaller_hists[g].size(); ++fi) {
            larger_hists[g].push_back(
                SubtractHistogram(leaf.hists[g][fi], smaller_hists[g][fi]));
          }
        }
        leaf.hists.clear();
      }
      evaluate(&smaller, std::move(smaller_hists));
      evaluate(&larger, std::move(larger_hists));
    }
    leaves.push_back(std::move(left));
    leaves.push_back(std::move(right));
  }

  for (size_t g = 0; g < orders_.size(); ++g) {
    for (size_t fi = 0; fi < orders_[g].size(); ++fi) {
      last_orders_[groups_[g].feats[fi]] = std::move(orders_[g][fi]);
    }
  }
  orders_.clear();

  // Leaf values.
  for (auto& leaf : leaves) {
    double denom = leaf.c + params_.lambda_l2;
    double raw = denom > 0 ? leaf.s / denom : 0;
    tree.nodes[static_cast<size_t>(leaf.node)].prediction = raw;
    GrowthResult::LeafInfo info;
    info.node = leaf.node;
    info.preds = std::move(leaf.preds);
    info.c = leaf.c;
    info.s = leaf.s;
    info.raw_value = raw;
    result.leaves.push_back(std::move(info));
  }
  return result;
}

}  // namespace core
}  // namespace joinboost
