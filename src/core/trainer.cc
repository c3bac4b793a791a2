#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "semiring/sql_gen.h"
#include "sql/printer.h"
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

SplitCandidate TreeGrower::BestSplit(const LeafState& leaf,
                                     const std::vector<std::string>& features,
                                     const std::vector<int>* allowed) {
  // Group features by their relation so each relation's messages and
  // absorption fragment are built once (message work-sharing).
  std::map<int, std::vector<std::string>> by_rel;
  for (const auto& f : features) {
    int rel = fac_->graph().RelationOfFeature(f);
    JB_CHECK_MSG(rel >= 0, "unknown feature " << f);
    if (allowed &&
        std::find(allowed->begin(), allowed->end(), rel) == allowed->end()) {
      continue;
    }
    by_rel[rel].push_back(f);
  }

  CriterionParams crit;
  crit.c_total = leaf.c;
  crit.s_total = leaf.s;
  crit.lambda = params_.lambda_l2;
  crit.min_leaf = params_.min_data_in_leaf;
  crit.halved = true;

  if (params_.batch_split_evaluation) {
    return BestSplitBatched(by_rel, leaf, crit);
  }

  // Phase 1 (serial): ensure messages exist for every root relation — all
  // of the leaf's messages are requested at once so same-input misses share
  // a scan. The factorizer serializes materialization on its own mutex;
  // keeping this phase serial here preserves deterministic temp-table
  // naming. Split queries below are read-only.
  struct Job {
    int rel;
    std::string feature;
    bool categorical;
    std::string sql;
  };
  std::vector<int> rels;
  for (const auto& entry : by_rel) rels.push_back(entry.first);
  std::vector<factor::Factorizer::AbsorptionParts> absorptions =
      fac_->BuildAbsorptions(rels, leaf.preds, "message");
  std::vector<Job> jobs;
  size_t r = 0;
  for (const auto& [rel, feats] : by_rel) {
    const factor::Factorizer::AbsorptionParts& parts = absorptions[r++];
    for (const auto& f : feats) {
      Job job;
      job.rel = rel;
      job.feature = f;
      job.categorical = IsCategorical(rel, f);
      job.sql = job.categorical ? CategoricalBestSplitSql(f, parts, crit)
                                : NumericBestSplitSql(f, parts, crit);
      jobs.push_back(std::move(job));
    }
  }

  // Phase 2: run the per-feature best-split queries (optionally in
  // parallel — inter-query parallelism, §5.5.3).
  std::vector<SplitCandidate> candidates(jobs.size());
  auto run_one = [&](size_t i) {
    const Job& job = jobs[i];
    auto res = fac_->db()->Query(job.sql, "feature");
    SplitCandidate cand;
    if (res->rows >= 1) {
      Value val = res->GetValue(0, 0);
      Value c = res->GetValue(0, 1);
      Value s = res->GetValue(0, 2);
      Value criteria = res->GetValue(0, 3);
      double gain = criteria.AsDouble();
      if (std::isfinite(gain) && !val.null) {
        cand.valid = true;
        cand.feature = job.feature;
        cand.relation = job.rel;
        cand.categorical = job.categorical;
        cand.gain = gain;
        cand.c_left = c.AsDouble();
        cand.s_left = s.AsDouble();
        if (job.categorical) {
          cand.category = val.i;
          cand.category_str = val.s;
        } else {
          cand.threshold = val.AsDouble();
        }
      }
    }
    candidates[i] = std::move(cand);
  };
  split_queries_ += jobs.size();
  if (params_.inter_query_parallelism && jobs.size() > 1) {
    fac_->db()->pool().ParallelFor(jobs.size(), run_one);
  } else {
    for (size_t i = 0; i < jobs.size(); ++i) run_one(i);
  }

  SplitCandidate best;
  double best_gain = std::max(params_.min_gain, 1e-12);
  for (auto& cand : candidates) {
    if (cand.valid && cand.gain > best_gain) {
      best_gain = cand.gain;
      best = std::move(cand);
    }
  }
  return best;
}

SplitCandidate TreeGrower::BestSplitBatched(
    const std::map<int, std::vector<std::string>>& by_rel,
    const LeafState& leaf, const CriterionParams& crit) {
  // Phase 1 (serial): compose one GROUPING SETS histogram query per
  // relation. The factorizer materializes every missing message of the leaf
  // first (serialized by its internal mutex; kept serial here for
  // deterministic temp-table naming), sharing scans between same-input
  // messages and histograms.
  struct RelJob {
    int rel = 0;
    const std::vector<std::string>* feats = nullptr;
    std::vector<bool> categorical;
    std::string sql;
    std::vector<SplitCandidate> candidates;  ///< one slot per feature
  };
  std::vector<RelJob> jobs;
  std::vector<factor::HistogramRequest> requests;
  jobs.reserve(by_rel.size());
  for (const auto& [rel, feats] : by_rel) {
    RelJob job;
    job.rel = rel;
    job.feats = &feats;
    job.categorical.reserve(feats.size());
    for (const auto& f : feats) job.categorical.push_back(IsCategorical(rel, f));
    job.candidates.resize(feats.size());
    jobs.push_back(std::move(job));
    requests.push_back({rel, feats});
  }
  const factor::LeafHistograms leaf_hists =
      fac_->BatchedHistograms(requests, leaf.preds, "message");
  for (size_t j = 0; j < jobs.size(); ++j) jobs[j].sql = leaf_hists.sql[j];

  // Phase 2 (optionally parallel across relations): run the histogram query,
  // demultiplex rows into per-feature histograms by set_id, and enumerate
  // thresholds in the C++ kernel.
  auto run_one = [&](size_t j) {
    RelJob& job = jobs[j];
    const std::vector<std::string>& feats = *job.feats;
    auto res = fac_->db()->Query(job.sql, "feature");
    // Column layout: set_id, feats..., c, s[, q].
    const size_t c_col = 1 + feats.size();
    const size_t s_col = c_col + 1;
    std::vector<std::vector<HistogramEntry>> hists(feats.size());
    for (size_t r = 0; r < res->rows; ++r) {
      const size_t sid = static_cast<size_t>(res->GetValue(r, 0).i);
      JB_CHECK_MSG(sid < feats.size(), "histogram set id " << sid
                                           << " out of range for "
                                           << feats.size() << " features");
      HistogramEntry e;
      e.val = res->GetValue(r, 1 + sid);
      e.c = res->GetValue(r, c_col);
      e.s = res->GetValue(r, s_col);
      hists[sid].push_back(std::move(e));
    }
    for (size_t fi = 0; fi < feats.size(); ++fi) {
      HistogramSplit hs =
          BestSplitFromHistogram(hists[fi], job.categorical[fi], crit);
      SplitCandidate cand;
      // Same validity rules as the per-feature result consumer.
      if (hs.valid && std::isfinite(hs.criteria) && !hs.val.null) {
        cand.valid = true;
        cand.feature = feats[fi];
        cand.relation = job.rel;
        cand.categorical = job.categorical[fi];
        cand.gain = hs.criteria;
        cand.c_left = hs.c;
        cand.s_left = hs.s;
        if (cand.categorical) {
          cand.category = hs.val.i;
          cand.category_str = hs.val.s;
        } else {
          cand.threshold = hs.val.AsDouble();
        }
      }
      job.candidates[fi] = std::move(cand);
    }
  };
  split_queries_ += jobs.size();
  if (params_.inter_query_parallelism && jobs.size() > 1) {
    fac_->db()->pool().ParallelFor(jobs.size(), run_one);
  } else {
    for (size_t j = 0; j < jobs.size(); ++j) run_one(j);
  }
  fac_->ReleaseShared(leaf_hists);

  // Merge in (relation, feature) order — the per-feature path's candidate
  // order — with the same strict-greater comparison and floor.
  SplitCandidate best;
  double best_gain = std::max(params_.min_gain, 1e-12);
  for (auto& job : jobs) {
    for (auto& cand : job.candidates) {
      if (cand.valid && cand.gain > best_gain) {
        best_gain = cand.gain;
        best = std::move(cand);
      }
    }
  }
  return best;
}

GrowthResult TreeGrower::Grow(const std::vector<std::string>& features,
                              int agg_root,
                              const std::vector<int>* clusters) {
  GrowthResult result;
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

  int num_leaves = 1;
  if (total.c > 0) {
    leaves[0].best = BestSplit(leaves[0], features, allowed);
    leaves[0].evaluated = true;
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

    // Child predicates (paper §3.2 predicate forms).
    std::string left_pred, right_pred;
    if (sp.categorical) {
      left_pred = sp.feature + " = " + sql::QuoteString(sp.category_str);
      right_pred = sp.feature + " <> " + sql::QuoteString(sp.category_str);
    } else {
      left_pred = sp.feature + " <= " + semiring::SqlDouble(sp.threshold);
      right_pred = sp.feature + " > " + semiring::SqlDouble(sp.threshold);
    }

    LeafState left;
    left.node = left_idx;
    left.depth = leaf.depth + 1;
    left.preds = leaf.preds;
    left.preds.Add(sp.relation, left_pred);
    left.c = sp.c_left;
    left.s = sp.s_left;

    LeafState right;
    right.node = right_idx;
    right.depth = leaf.depth + 1;
    right.preds = leaf.preds;
    right.preds.Add(sp.relation, right_pred);
    right.c = leaf.c - sp.c_left;
    right.s = leaf.s - sp.s_left;

    tree.nodes[static_cast<size_t>(left_idx)].count = left.c;
    tree.nodes[static_cast<size_t>(left_idx)].sum = left.s;
    tree.nodes[static_cast<size_t>(right_idx)].count = right.c;
    tree.nodes[static_cast<size_t>(right_idx)].sum = right.s;

    ++num_leaves;

    // Algorithm 1 (L8-9) computes GetBestSplit for both children as soon as
    // the parent splits, before the loop condition is re-checked — which is
    // why the paper counts num_nodes x num_features split queries (Fig 9).
    bool depth_ok = params_.max_depth < 0 || left.depth < params_.max_depth;
    if (depth_ok) {
      left.best = BestSplit(left, features, allowed);
      right.best = BestSplit(right, features, allowed);
    }
    left.evaluated = right.evaluated = true;
    leaves.push_back(std::move(left));
    leaves.push_back(std::move(right));
  }

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
