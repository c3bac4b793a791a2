#pragma once

/// An independent reference for trained trees. It shares no code with the
/// split kernel (core/split.h), the factorizer or GROUPING SETS: it reads
/// the rows of the materialized join (core::MaterializeJoin), routes them
/// with TreeModel::Predict, and scores every candidate split by brute force.
///
/// For every node of every tree of a gbdt or dt model, it takes each row's
/// gradient g = −∂L/∂p and hessian h = ∂²L/∂p² at PredictPrefix(t), the
/// prediction of the trees before tree t. It derives them from the loss
/// itself (RowGradient), sharing no code with semiring/objectives.cc; for
/// rmse g is the residual y − p and h is 1. With c = Σh and s = Σg over a
/// node's rows, it checks:
///  (a) the node's count equals the c of the rows Predict routes through
///      it, exactly when h is 1 (c counts rows) and within 1e-9 relative
///      otherwise, and its sum equals their s within 1e-9 relative;
///  (b) an internal node's gain is within 1e-9 relative of the best
///        0.5·(s_L²/(c_L+λ) + s_R²/(c_R+λ) − S²/(C+λ))
///      over every feature and every non-NULL value v at the node whose
///      split leaves a c of at least min_data_in_leaf on each side: `f <= v`
///      for a numeric feature, `f = v` for a categorical one, NULL rows
///      right;
///  (c) when the tree has fewer than num_leaves leaves, no leaf that
///      max_depth lets split has a best gain above max(min_gain, 1e-12).
///
/// Scope: the rmse, huber and fair objectives, snowflake schemas (no CPT
/// cluster confinement) and every feature a candidate at every node, as
/// gbdt and dt train them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
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

/// One row's g and h under `objective` at prediction p, from the loss:
///   rmse   L = e²/2                                   g = e, h = 1
///   huber  L = e²/2 if |e| <= δ, else δ(|e| − δ/2)    g = e or ±δ, h = 1
///   fair   L = c|e| − c² ln(1 + |e|/c)                g = ce/(|e|+c),
///                                                     h = c²/(|e|+c)²
/// with e = y − p, and δ or c the objective parameter (1 unless positive).
/// False for an objective the oracle does not cover.
inline bool RowGradient(const std::string& objective, double param, double y,
                        double p, double* g, double* h) {
  const double e = y - p;
  const double k = param > 0 ? param : 1.0;
  if (objective == "regression" || objective == "rmse") {
    *g = e;
    *h = 1;
  } else if (objective == "huber") {
    *g = std::fabs(e) <= k ? e : (e > 0 ? k : -k);
    *h = 1;
  } else if (objective == "fair") {
    const double a = std::fabs(e) + k;
    *g = k * e / a;
    *h = k * k / (a * a);
  } else {
    return false;
  }
  return true;
}

/// Best gain over every feature and non-NULL value for the rows `rows`, or
/// -infinity when no split leaves a c of min_leaf on both sides.
inline double BestGain(const std::vector<OracleFeature>& features,
                       const std::vector<uint32_t>& rows,
                       const std::vector<double>& grad,
                       const std::vector<double>& hess, double lambda,
                       double min_leaf, std::string* best_split) {
  double C = 0, S = 0;
  for (uint32_t r : rows) {
    C += hess[r];
    S += grad[r];
  }
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
        cs.first += hess[r];
        cs.second += grad[r];
      }
      for (const auto& [code, cs] : by_code) {
        offer(cs.first, cs.second, f.name + " = #" + std::to_string(code));
      }
    } else {
      std::vector<std::tuple<double, double, double>> vals;  // (value, g, h)
      for (uint32_t r : rows) {
        if (!std::isnan(f.num[r])) vals.push_back({f.num[r], grad[r], hess[r]});
      }
      std::sort(vals.begin(), vals.end());
      double c = 0, s = 0;
      for (size_t i = 0; i < vals.size(); ++i) {
        c += std::get<2>(vals[i]);
        s += std::get<1>(vals[i]);
        if (i + 1 < vals.size() &&
            std::get<0>(vals[i + 1]) == std::get<0>(vals[i])) {
          continue;
        }
        std::ostringstream what;
        what << f.name << " <= " << std::get<0>(vals[i]);
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
  double unused_g, unused_h;
  if (!RowGradient(params.objective, params.objective_param, 0, 0, &unused_g,
                   &unused_h)) {
    return ::testing::AssertionFailure()
           << "oracle does not cover the " << params.objective << " objective";
  }
  // Under rmse and huber h is 1, so c counts rows and is checked exactly.
  const bool c_counts_rows = params.objective != "fair";
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
    std::vector<double> grad(n), hess(n);
    for (size_t r = 0; r < n; ++r) {
      RowGradient(params.objective, params.objective_param, eval.YValue(r),
                  eval.Predict(prefix, r), &grad[r], &hess[r]);
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
      double count = 0, sum = 0;
      for (uint32_t r : rows) {
        count += hess[r];
        sum += grad[r];
      }
      if (c_counts_rows ? node.count != count
                        : !test_util::RelNear(node.count, count, 1e-9)) {
        std::ostringstream os;
        os.precision(17);
        os << "count " << node.count << ", the " << rows.size()
           << " rows Predict routes have c = " << count;
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
            BestGain(features, rows, grad, hess, params.lambda_l2,
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
            BestGain(features, rows, grad, hess, params.lambda_l2,
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
