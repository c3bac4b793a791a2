#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace joinboost {
namespace semiring {

/// A gradient-boosting objective (paper Table 3). Conventions:
///   g = −∂L/∂p (the "negative gradient"; for L2 this is the residual ε),
///   h = ∂²L/∂p².
/// The optimal leaf value is Σg / (Σh + λ) (Appendix B.2), and the model
/// prediction starts from InitScore(y).
///
/// Each objective provides both C++ evaluators (used by the in-memory
/// baselines and by tests) and SQL expression generators in terms of the fact
/// table's `y` and `pred` columns (used by the snowflake-schema trainers).
/// Only objectives whose semi-ring is addition-to-multiplication preserving
/// (rmse) support galaxy schemas (§4.2) — see `SupportsGalaxy()`.
class Objective {
 public:
  virtual ~Objective() = default;

  virtual std::string name() const = 0;

  virtual double Gradient(double y, double pred) const = 0;
  virtual double Hessian(double y, double pred) const = 0;

  /// Loss value (for reporting / convergence tests).
  virtual double Loss(double y, double pred) const = 0;

  /// Initial model score (e.g., mean of Y for L2, median for L1).
  virtual double InitScore(const std::vector<double>& y) const;

  /// Initial score from the factorized mean of Y (computed in-DB as S/C).
  /// Median-based objectives approximate with the mean here, as LightGBM's
  /// boost_from_average does.
  virtual double InitFromMean(double mean) const { return mean; }

  /// SQL expression computing g from columns `y_col` and `pred_col`.
  virtual std::string GradientSql(const std::string& y_col,
                                  const std::string& pred_col) const = 0;
  /// SQL expression computing h.
  virtual std::string HessianSql(const std::string& y_col,
                                 const std::string& pred_col) const = 0;

  /// True only for rmse: residual updates on non-materialized joins need the
  /// addition-to-multiplication-preserving property (Definition 1).
  virtual bool SupportsGalaxy() const { return false; }

  /// Targets the loss is defined for. The log-link objectives model the
  /// mean as exp(pred): poisson and tweedie need y >= 0, gamma y > 0.
  enum class TargetDomain { kAnyReal, kNonNegative, kPositive };
  virtual TargetDomain target_domain() const { return TargetDomain::kAnyReal; }
};

using ObjectivePtr = std::shared_ptr<const Objective>;

/// Factory by LightGBM-compatible name: "regression"/"rmse"/"l2", "mae"/"l1",
/// "huber", "fair", "poisson", "quantile", "mape", "gamma", "tweedie".
ObjectivePtr MakeObjective(const std::string& name, double param = 0.0);

/// All registered objective names (for parameterized tests).
std::vector<std::string> ObjectiveNames();

}  // namespace semiring
}  // namespace joinboost
