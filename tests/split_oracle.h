#pragma once

/// An independent reference for trained trees. It shares no code with the
/// split kernel (core/split.h), the factorizer or GROUPING SETS: it reads
/// the rows of the materialized join (core::MaterializeJoin), routes them
/// with TreeModel::Predict, and scores every candidate split by brute force.
///
/// For every node of every tree of an rmse gbdt or dt model, with the
/// residuals y − PredictPrefix(t) of tree t, it checks:
///  (a) the node's count equals the number of rows Predict routes through
///      it, and its sum equals their residual sum within 1e-9 relative;
///  (b) an internal node's gain is within 1e-9 relative of the best
///        0.5·(s_L²/(c_L+λ) + s_R²/(c_R+λ) − S²/(C+λ))
///      over every feature and every non-NULL value v at the node whose
///      split leaves at least min_data_in_leaf rows on each side: `f <= v`
///      for a numeric feature, `f = v` for a categorical one, NULL rows
///      right;
///  (c) when the tree has fewer than num_leaves leaves, no leaf that
///      max_depth lets split has a best gain above max(min_gain, 1e-12).
///
/// Scope: snowflake schemas (no CPT cluster confinement) and every feature
/// a candidate at every node, as gbdt and dt train them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/evaluate.h"
#include "core/model.h"
#include "core/params.h"
#include "test_util.h"

namespace joinboost {
namespace split_oracle {

/// One feature column of the join: numeric values (NaN = NULL) or
/// categorical codes (kNullInt64 = NULL).
struct OracleFeature {
  std::string name;
  bool categorical = false;
  std::vector<double> num;
  std::vector<int64_t> code;
};

/// Best gain over every feature and non-NULL value for the rows `rows`, or
/// -infinity when no split leaves min_leaf rows on both sides.
inline double BestGain(const std::vector<OracleFeature>& features,
                       const std::vector<uint32_t>& rows,
                       const std::vector<double>& resid, double lambda,
                       double min_leaf, std::string* best_split) {
  const double C = static_cast<double>(rows.size());
  double S = 0;
  for (uint32_t r : rows) S += resid[r];
  auto gain = [&](double c, double s) {
    const double cr = C - c, sr = S - s;
    return 0.5 * (s * s / (c + lambda) + sr * sr / (cr + lambda) -
                  S * S / (C + lambda));
  };
  double best = -std::numeric_limits<double>::infinity();
  auto offer = [&](double c, double s, const std::string& what) {
    if (c < min_leaf || C - c < min_leaf) return;
    const double g = gain(c, s);
    if (g > best) {
      best = g;
      if (best_split != nullptr) *best_split = what;
    }
  };
  for (const OracleFeature& f : features) {
    if (f.categorical) {
      std::map<int64_t, std::pair<double, double>> by_code;
      for (uint32_t r : rows) {
        if (f.code[r] == kNullInt64) continue;
        auto& cs = by_code[f.code[r]];
        cs.first += 1;
        cs.second += resid[r];
      }
      for (const auto& [code, cs] : by_code) {
        offer(cs.first, cs.second, f.name + " = #" + std::to_string(code));
      }
    } else {
      std::vector<std::pair<double, double>> vals;  // (value, residual)
      for (uint32_t r : rows) {
        if (!std::isnan(f.num[r])) vals.push_back({f.num[r], resid[r]});
      }
      std::sort(vals.begin(), vals.end());
      double c = 0, s = 0;
      for (size_t i = 0; i < vals.size(); ++i) {
        c += 1;
        s += vals[i].second;
        if (i + 1 < vals.size() && vals[i + 1].first == vals[i].first) {
          continue;
        }
        std::ostringstream what;
        what << f.name << " <= " << vals[i].first;
        offer(c, s, what.str());
      }
    }
  }
  return best;
}

/// Runs checks (a)–(c) on `model`, trained with `params` over `ds`. On
/// failure the message lists the first violations and their total count.
inline ::testing::AssertionResult CheckModel(const core::Ensemble& model,
                                             Dataset& ds,
                                             const core::TrainParams& params) {
  if (params.objective != "regression" && params.objective != "rmse") {
    return ::testing::AssertionFailure() << "oracle needs the rmse objective";
  }
  if (model.average || (params.boosting != "gbdt" && params.boosting != "dt")) {
    return ::testing::AssertionFailure() << "oracle needs a gbdt or dt model";
  }
  core::JoinedEval eval = core::MaterializeJoin(ds);
  const exec::ExecTable& table = eval.table();
  const size_t n = eval.rows();

  std::vector<OracleFeature> features;
  for (const std::string& name : ds.graph().AllFeatures()) {
    const int idx = table.Find("", name);
    if (idx < 0) {
      return ::testing::AssertionFailure() << "feature " << name
                                           << " missing from the join";
    }
    const exec::VectorData& col = table.Col(static_cast<size_t>(idx));
    OracleFeature f;
    f.name = name;
    f.categorical = col.type == TypeId::kString;
    for (size_t r = 0; r < n; ++r) {
      if (f.categorical) {
        f.code.push_back(col.Ints()[r]);
      } else {
        f.num.push_back(col.GetValue(r).AsDouble());  // NULL → NaN
      }
    }
    features.push_back(std::move(f));
  }

  std::vector<std::string> violations;
  auto fail = [&](size_t t, size_t node, const std::string& what) {
    violations.push_back("tree " + std::to_string(t) + " node " +
                         std::to_string(node) + ": " + what);
  };
  const double floor = std::max(params.min_gain, 1e-12);
  for (size_t t = 0; t < model.trees.size(); ++t) {
    const core::TreeModel& tree = model.trees[t];
    const size_t nodes = tree.nodes.size();
    core::Ensemble prefix = model;
    prefix.trees.resize(t);
    std::vector<double> resid(n);
    for (size_t r = 0; r < n; ++r) {
      resid[r] = eval.YValue(r) - eval.Predict(prefix, r);
    }
    // Route every row with Predict over a copy whose leaves predict their
    // own index, then charge the row to that leaf and its ancestors.
    core::Ensemble tagged;
    tagged.trees.push_back(tree);
    std::vector<int> parent(nodes, -1);
    std::vector<int> depth(nodes, 0);
    for (size_t i = 0; i < nodes; ++i) {
      core::TreeNode& node = tagged.trees[0].nodes[i];
      if (node.is_leaf) {
        node.prediction = static_cast<double>(i);
        continue;
      }
      parent[static_cast<size_t>(node.left)] = static_cast<int>(i);
      parent[static_cast<size_t>(node.right)] = static_cast<int>(i);
    }
    // The trainer appends children after their parent.
    for (size_t i = 1; i < nodes; ++i) {
      depth[i] = depth[static_cast<size_t>(parent[i])] + 1;
    }
    std::vector<std::vector<uint32_t>> rows_at(nodes);
    for (size_t r = 0; r < n; ++r) {
      int at = static_cast<int>(eval.Predict(tagged, r));
      for (; at >= 0; at = parent[static_cast<size_t>(at)]) {
        rows_at[static_cast<size_t>(at)].push_back(static_cast<uint32_t>(r));
      }
    }

    const bool stopped_early =
        static_cast<int>(tree.NumLeaves()) < params.num_leaves;
    for (size_t i = 0; i < nodes; ++i) {
      const core::TreeNode& node = tree.nodes[i];
      const std::vector<uint32_t>& rows = rows_at[i];
      double sum = 0;
      for (uint32_t r : rows) sum += resid[r];
      if (node.count != static_cast<double>(rows.size())) {
        std::ostringstream os;
        os << "count " << node.count << ", Predict routes " << rows.size()
           << " rows";
        fail(t, i, os.str());
      }
      if (!test_util::RelNear(node.sum, sum, 1e-9)) {
        std::ostringstream os;
        os.precision(17);
        os << "sum " << node.sum << ", rows sum to " << sum;
        fail(t, i, os.str());
      }
      std::string best_split;
      if (!node.is_leaf) {
        const double best =
            BestGain(features, rows, resid, params.lambda_l2,
                     params.min_data_in_leaf, &best_split);
        if (!test_util::RelNear(node.gain, best, 1e-9)) {
          std::ostringstream os;
          os.precision(17);
          os << "gain " << node.gain << " on " << node.feature
             << ", best is " << best << " on " << best_split;
          fail(t, i, os.str());
        }
      } else if (stopped_early &&
                 (params.max_depth < 0 || depth[i] < params.max_depth)) {
        const double best =
            BestGain(features, rows, resid, params.lambda_l2,
                     params.min_data_in_leaf, &best_split);
        if (best > floor) {
          std::ostringstream os;
          os.precision(17);
          os << "leaf left unsplit (" << tree.NumLeaves() << " of "
             << params.num_leaves << " leaves), but " << best_split
             << " gains " << best;
          fail(t, i, os.str());
        }
      }
    }
  }
  if (violations.empty()) return ::testing::AssertionSuccess();
  ::testing::AssertionResult out = ::testing::AssertionFailure();
  out << violations.size() << " split-oracle violation(s):";
  for (size_t v = 0; v < violations.size() && v < 10; ++v) {
    out << "\n  " << violations[v];
  }
  return out;
}

}  // namespace split_oracle
}  // namespace joinboost
