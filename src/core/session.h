#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/params.h"
#include "factor/message_passing.h"
#include "semiring/objectives.h"

namespace joinboost {
namespace core {

/// Internal training session: lifts relations into annotated working copies
/// (never touching user data — paper §5.1 "Safety"), binds them into a
/// Factorizer, and owns cluster/fact bookkeeping shared by the decision
/// tree, random forest and gradient boosting trainers.
class Session {
 public:
  Session(Dataset* data, TrainParams params);
  ~Session();

  /// Compute base score, create lifted tables and the factorizer.
  void Prepare();

  factor::Factorizer& fac() { return *fac_; }
  exec::Database& db() { return *data_->db(); }
  const graph::JoinGraph& graph() const { return data_->graph(); }
  const TrainParams& params() const { return params_; }
  const semiring::ObjectivePtr& objective() const { return objective_; }

  int y_relation() const { return y_rel_; }
  double base_score() const { return base_score_; }

  /// Cluster id per relation and the fact relation of each cluster (CPT).
  const std::vector<int>& clusters() const { return clusters_; }
  const std::vector<int>& cluster_facts() const { return cluster_facts_; }
  bool is_snowflake() const { return cluster_facts_.size() == 1; }
  /// Fact relation of the cluster containing `rel`.
  int FactOf(int rel) const;
  /// Fact relation of Y's cluster (the default aggregation root).
  int y_fact() const { return FactOf(y_rel_); }

  /// Whether the fast residual-semiring path is active (rmse) or the general
  /// gradient/hessian path (other objectives; snowflake only — §4.2).
  bool residual_semiring() const { return residual_semiring_; }

  /// Current physical table name of a lifted fact (indirection so the
  /// CREATE-TABLE update strategy can retarget it).
  const std::string& FactTable(int rel) const;
  void SetFactTable(int rel, const std::string& name);

  /// Rebind `rel` to a different physical table (sampling / create-update).
  void Rebind(int rel, const std::string& table);

  /// A fresh factorizer with this session's bindings, with `rel_override`
  /// pointed at `table_override`, a subset of its rows (used by per-tree
  /// forest sampling; each tree owns its message cache so trees can train in
  /// parallel). It adopts the session factorizer's complete
  /// referential-completeness answers, except those whose `from` side is
  /// the override.
  std::unique_ptr<factor::Factorizer> MakeFactorizer(
      int rel_override, const std::string& table_override,
      const std::string& temp_prefix);

  /// The unique temp-table prefix of this session.
  const std::string& prefix() const { return prefix_; }
  std::string NewTempName();

  /// Drop all session-created tables (lifted copies, messages, samples).
  void Cleanup();

 private:
  /// Returns whether the lifted table is a plain copy of the base rows (it
  /// is not when Y lives in a dimension and the lift joins toward it).
  bool LiftFact(int rel, bool with_y);

  Dataset* data_;
  TrainParams params_;
  semiring::ObjectivePtr objective_;
  std::unique_ptr<factor::Factorizer> fac_;

  int y_rel_ = -1;
  double base_score_ = 0;
  bool residual_semiring_ = true;
  std::vector<int> clusters_;
  std::vector<int> cluster_facts_;
  std::vector<std::string> fact_tables_;  ///< per relation; "" if not a fact
  std::string prefix_;
  uint64_t temp_counter_ = 0;
};

}  // namespace core
}  // namespace joinboost
