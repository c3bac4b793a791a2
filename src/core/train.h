#pragma once

#include <string>

#include "core/dataset.h"
#include "core/model.h"
#include "core/params.h"
#include "plan/logical_plan.h"

namespace joinboost {

/// Outcome of a training run, with the instrumentation the paper reports.
struct TrainResult {
  core::Ensemble model;
  double seconds = 0;          ///< end-to-end wall time
  double update_seconds = 0;   ///< residual-update time (Figures 5/15)
  double message_seconds = 0;  ///< message-passing query time
  double feature_seconds = 0;  ///< best-split query time
  /// Statements tagged "message": each message's own GROUP BY, or a shared
  /// GROUPING SETS scan plus one split statement per message it computes.
  size_t message_queries = 0;
  size_t feature_queries = 0;
  size_t cache_hits = 0;       ///< message-cache hits (§5.5.1)
  size_t cache_misses = 0;

  /// Planner/scan counters over the run: rows scanned, columns pruned and
  /// decompressed, predicates pushed, morsels dispatched/stolen by the
  /// parallel operators (delta of Database::PlanStatsTotals).
  plan::PlanStats plan_stats;
};

/// Train a model over a normalized dataset: the paper's
/// `joinboost.train(params, train_set)` (Figure 4). Dispatches on
/// params.boosting: "gbdt", "rf" or "dt"; params.variant selects
/// factorized / batch / naive execution (Figure 16a).
TrainResult Train(const core::TrainParams& params, Dataset& dataset);

}  // namespace joinboost
