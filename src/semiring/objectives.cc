#include "semiring/objectives.h"

#include <algorithm>
#include <cmath>

#include "sql/printer.h"
#include "util/check.h"

namespace joinboost {
namespace semiring {

using sql::DoubleLiteral;

double Objective::InitScore(const std::vector<double>& y) const {
  if (y.empty()) return 0;
  double sum = 0;
  for (double v : y) sum += v;
  return sum / static_cast<double>(y.size());
}

namespace {

std::string Residual(const std::string& y, const std::string& p) {
  return "(" + y + " - " + p + ")";
}

double Median(std::vector<double> y) {
  if (y.empty()) return 0;
  size_t mid = y.size() / 2;
  std::nth_element(y.begin(), y.begin() + static_cast<long>(mid), y.end());
  return y[mid];
}

/// L2 / rmse — the paper's flagship objective; the only one whose lift is
/// addition-to-multiplication preserving, hence the only one valid for
/// galaxy schemas (§4.2).
class L2Objective : public Objective {
 public:
  std::string name() const override { return "rmse"; }
  double Gradient(double y, double p) const override { return y - p; }
  double Hessian(double, double) const override { return 1.0; }
  double Loss(double y, double p) const override {
    // 0.5·ε² so that g = −∂L/∂p = ε exactly (the paper's Table 3 lists the
    // un-normalized (ε)² with the same gradient; LightGBM does likewise).
    return 0.5 * (y - p) * (y - p);
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    return Residual(y, p);
  }
  std::string HessianSql(const std::string&,
                         const std::string&) const override {
    return "1.0";
  }
  bool SupportsGalaxy() const override { return true; }
};

class L1Objective : public Objective {
 public:
  std::string name() const override { return "mae"; }
  double Gradient(double y, double p) const override {
    double e = y - p;
    return e > 0 ? 1.0 : (e < 0 ? -1.0 : 0.0);
  }
  double Hessian(double, double) const override { return 1.0; }
  double Loss(double y, double p) const override { return std::fabs(y - p); }
  double InitScore(const std::vector<double>& y) const override {
    return Median(y);
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    return "SIGN(" + Residual(y, p) + ")";
  }
  std::string HessianSql(const std::string&,
                         const std::string&) const override {
    return "1.0";
  }
};

class HuberObjective : public Objective {
 public:
  explicit HuberObjective(double delta) : delta_(delta <= 0 ? 1.0 : delta) {}
  std::string name() const override { return "huber"; }
  double Gradient(double y, double p) const override {
    double e = y - p;
    if (std::fabs(e) <= delta_) return e;
    return e > 0 ? delta_ : -delta_;
  }
  double Hessian(double, double) const override { return 1.0; }
  double Loss(double y, double p) const override {
    double e = std::fabs(y - p);
    return e <= delta_ ? 0.5 * e * e : delta_ * (e - 0.5 * delta_);
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    std::string e = Residual(y, p);
    std::string d = DoubleLiteral(delta_);
    return "CASE WHEN ABS(" + e + ") <= " + d + " THEN " + e + " ELSE " + d +
           " * SIGN(" + e + ") END";
  }
  std::string HessianSql(const std::string&,
                         const std::string&) const override {
    return "1.0";
  }

 private:
  double delta_;
};

class FairObjective : public Objective {
 public:
  explicit FairObjective(double c) : c_(c <= 0 ? 1.0 : c) {}
  std::string name() const override { return "fair"; }
  double Gradient(double y, double p) const override {
    double e = y - p;
    return c_ * e / (std::fabs(e) + c_);
  }
  double Hessian(double y, double p) const override {
    double ae = std::fabs(y - p);
    return c_ * c_ / ((ae + c_) * (ae + c_));
  }
  double Loss(double y, double p) const override {
    double ae = std::fabs(y - p);
    return c_ * ae - c_ * c_ * std::log(ae / c_ + 1.0);
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    std::string e = Residual(y, p);
    return DoubleLiteral(c_) + " * " + e + " / (ABS(" + e + ") + " +
           DoubleLiteral(c_) + ")";
  }
  std::string HessianSql(const std::string& y,
                         const std::string& p) const override {
    std::string e = Residual(y, p);
    std::string den = "(ABS(" + e + ") + " + DoubleLiteral(c_) + ")";
    return DoubleLiteral(c_ * c_) + " / (" + den + " * " + den + ")";
  }

 private:
  double c_;
};

class PoissonObjective : public Objective {
 public:
  std::string name() const override { return "poisson"; }
  TargetDomain target_domain() const override {
    return TargetDomain::kNonNegative;
  }
  double Gradient(double y, double p) const override {
    return y - std::exp(p);
  }
  double Hessian(double, double p) const override { return std::exp(p); }
  double Loss(double y, double p) const override {
    return std::exp(p) - y * p;
  }
  double InitScore(const std::vector<double>& y) const override {
    double mean = Objective::InitScore(y);
    return std::log(std::max(mean, 1e-9));
  }
  double InitFromMean(double mean) const override {
    return std::log(std::max(mean, 1e-9));
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    return y + " - EXP(" + p + ")";
  }
  std::string HessianSql(const std::string&,
                         const std::string& p) const override {
    return "EXP(" + p + ")";
  }
};

class QuantileObjective : public Objective {
 public:
  explicit QuantileObjective(double alpha)
      : alpha_(alpha <= 0 || alpha >= 1 ? 0.5 : alpha) {}
  std::string name() const override { return "quantile"; }
  double Gradient(double y, double p) const override {
    return y - p >= 0 ? alpha_ : alpha_ - 1.0;
  }
  double Hessian(double, double) const override { return 1.0; }
  double Loss(double y, double p) const override {
    double e = y - p;
    return e >= 0 ? alpha_ * e : (alpha_ - 1.0) * e;
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    return "CASE WHEN " + Residual(y, p) + " >= 0 THEN " +
           DoubleLiteral(alpha_) + " ELSE " + DoubleLiteral(alpha_ - 1.0) +
           " END";
  }
  std::string HessianSql(const std::string&,
                         const std::string&) const override {
    return "1.0";
  }

 private:
  double alpha_;
};

class MapeObjective : public Objective {
 public:
  std::string name() const override { return "mape"; }
  double Gradient(double y, double p) const override {
    double w = std::max(1.0, std::fabs(y));
    double e = y - p;
    return (e > 0 ? 1.0 : (e < 0 ? -1.0 : 0.0)) / w;
  }
  double Hessian(double, double) const override { return 1.0; }
  double Loss(double y, double p) const override {
    return std::fabs(y - p) / std::max(1.0, std::fabs(y));
  }
  double InitScore(const std::vector<double>& y) const override {
    return Median(y);
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    return "SIGN(" + Residual(y, p) + ") / GREATEST(1.0, ABS(" + y + "))";
  }
  std::string HessianSql(const std::string&,
                         const std::string&) const override {
    return "1.0";
  }
};

class GammaObjective : public Objective {
 public:
  std::string name() const override { return "gamma"; }
  TargetDomain target_domain() const override {
    return TargetDomain::kPositive;
  }
  double Gradient(double y, double p) const override {
    return y * std::exp(-p) - 1.0;
  }
  double Hessian(double y, double p) const override {
    return y * std::exp(-p);
  }
  double Loss(double y, double p) const override {
    return p + y * std::exp(-p);
  }
  double InitScore(const std::vector<double>& y) const override {
    return std::log(std::max(Objective::InitScore(y), 1e-9));
  }
  double InitFromMean(double mean) const override {
    return std::log(std::max(mean, 1e-9));
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    return y + " * EXP(- " + p + ") - 1.0";
  }
  std::string HessianSql(const std::string& y,
                         const std::string& p) const override {
    return y + " * EXP(- " + p + ")";
  }
};

class TweedieObjective : public Objective {
 public:
  explicit TweedieObjective(double rho)
      : rho_(rho <= 1 || rho >= 2 ? 1.5 : rho) {}
  std::string name() const override { return "tweedie"; }
  TargetDomain target_domain() const override {
    return TargetDomain::kNonNegative;
  }
  double Gradient(double y, double p) const override {
    return y * std::exp((1 - rho_) * p) - std::exp((2 - rho_) * p);
  }
  double Hessian(double y, double p) const override {
    return -(1 - rho_) * y * std::exp((1 - rho_) * p) +
           (2 - rho_) * std::exp((2 - rho_) * p);
  }
  double Loss(double y, double p) const override {
    return -y * std::exp((1 - rho_) * p) / (1 - rho_) +
           std::exp((2 - rho_) * p) / (2 - rho_);
  }
  double InitScore(const std::vector<double>& y) const override {
    return std::log(std::max(Objective::InitScore(y), 1e-9));
  }
  double InitFromMean(double mean) const override {
    return std::log(std::max(mean, 1e-9));
  }
  std::string GradientSql(const std::string& y,
                          const std::string& p) const override {
    return y + " * EXP(" + DoubleLiteral(1 - rho_) + " * " + p + ") - EXP(" +
           DoubleLiteral(2 - rho_) + " * " + p + ")";
  }
  std::string HessianSql(const std::string& y,
                         const std::string& p) const override {
    return DoubleLiteral(-(1 - rho_)) + " * " + y + " * EXP(" +
           DoubleLiteral(1 - rho_) + " * " + p + ") + " +
           DoubleLiteral(2 - rho_) + " * EXP(" + DoubleLiteral(2 - rho_) +
           " * " + p + ")";
  }

 private:
  double rho_;
};

}  // namespace

ObjectivePtr MakeObjective(const std::string& name, double param) {
  if (name == "regression" || name == "rmse" || name == "l2" ||
      name == "regression_l2") {
    return std::make_shared<L2Objective>();
  }
  if (name == "mae" || name == "l1" || name == "regression_l1") {
    return std::make_shared<L1Objective>();
  }
  if (name == "huber") {
    return std::make_shared<HuberObjective>(param == 0 ? 1.0 : param);
  }
  if (name == "fair") {
    return std::make_shared<FairObjective>(param == 0 ? 1.0 : param);
  }
  if (name == "poisson") return std::make_shared<PoissonObjective>();
  if (name == "quantile") {
    return std::make_shared<QuantileObjective>(param == 0 ? 0.5 : param);
  }
  if (name == "mape") return std::make_shared<MapeObjective>();
  if (name == "gamma") return std::make_shared<GammaObjective>();
  if (name == "tweedie") {
    return std::make_shared<TweedieObjective>(param == 0 ? 1.5 : param);
  }
  JB_THROW("unknown objective: " << name);
}

std::vector<std::string> ObjectiveNames() {
  return {"rmse",     "mae",  "huber", "fair",  "poisson",
          "quantile", "mape", "gamma", "tweedie"};
}

}  // namespace semiring
}  // namespace joinboost
