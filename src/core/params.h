#pragma once

#include <cstdint>
#include <string>

#include "util/query_guard.h"

namespace joinboost {
namespace core {

/// Training parameters. Names and defaults mirror LightGBM's where they
/// exist (paper §5.1: "JoinBoost accepts the same training parameters as
/// LightGBM").
struct TrainParams {
  /// Objective: "regression"/"rmse", "mae", "huber", "fair", "poisson",
  /// "quantile", "mape", "gamma", "tweedie".
  std::string objective = "regression";
  double objective_param = 0.0;  ///< δ for huber, c for fair, α for quantile…

  /// Boosting type: "gbdt", "rf" (random forest), or "dt" (single tree).
  std::string boosting = "gbdt";

  int num_iterations = 100;
  double learning_rate = 0.1;
  int num_leaves = 8;
  int max_depth = -1;  ///< -1 = unlimited

  double lambda_l2 = 0.0;    ///< λ in the leaf/gain formulas (Appendix B.2)
  double min_gain = 0.0;     ///< α: minimum gain to split
  double min_data_in_leaf = 1.0;

  /// Growth policy: best-first (leaf-wise, LightGBM default) or depth-wise.
  std::string growth = "best_first";

  // Random forest sampling (paper defaults: 10% rows, 80% features).
  double bagging_fraction = 0.1;
  double feature_fraction = 0.8;
  uint64_t seed = 42;

  /// Residual-update strategy (§5.3/§5.4): "naive_u", "update", "create",
  /// "swap" (column swap; default), or "auto" (swap if the engine allows it,
  /// else create).
  std::string update_strategy = "auto";

  /// Inter-query parallelism (§5.5.3): run a leaf's split queries (one per
  /// relation carrying features) and forest trees concurrently.
  bool inter_query_parallelism = false;

  /// Trainer variant (Fig 16a): "factorized" (JoinBoost), "batch" (per-node
  /// batches, no cross-node message caching — the LMFAO proxy), or "naive"
  /// (materialize the join, no factorization).
  std::string variant = "factorized";

  /// Track the q component (exact variance reporting; the criterion only
  /// needs c and s — §5.3.1). Only rmse's variance semi-ring has q: other
  /// objectives train over the (h, g) gradient semi-ring and ignore it.
  bool track_q = false;

  /// Histogram binning (Appendix D.3): the number of feature bins. Only
  /// factor::TrainCuboidGbdt (which requires it > 0 and trains over the
  /// binned cuboid) and baselines::HistogramGbdt (0 = its default of 1000)
  /// read it; joinboost::Train ignores it and always splits on exact
  /// feature values.
  int max_bin = 0;

  /// Optional lifecycle guard (not owned): the trainers check it at every
  /// boosting-round / tree boundary, so a long training run can be cancelled
  /// or deadlined between trees. Null = ungoverned.
  util::QueryGuard* guard = nullptr;
};

}  // namespace core
}  // namespace joinboost
