#pragma once

#include <string>
#include <vector>

namespace joinboost {
namespace semiring {

/// One ⊗-operand of a semi-ring product in SQL: a table alias plus the names
/// of its annotation columns. `has_annotation == false` means the operand is
/// lifted to the 1 element (1, 0, 0) and drops out of the product — the
/// identity-message optimization of Appendix D.2.
struct SqlOperand {
  std::string alias;
  bool has_annotation = false;
  std::string c_col = "c";  ///< count-like component (c, or h for gradients)
  std::string s_col = "s";  ///< linear component (s, or g)
  std::string q_col;        ///< quadratic component; empty when not tracked

  std::string C() const { return alias.empty() ? c_col : alias + "." + c_col; }
  std::string S() const { return alias.empty() ? s_col : alias + "." + s_col; }
  std::string Q() const { return alias.empty() ? q_col : alias + "." + q_col; }
};

/// SQL expression generation for the variance (and gradient) semi-ring ⊗
/// product across any number of operands (the Factorizer composes these into
/// the SUM(...) aggregates of message-passing queries).
///
/// For operands i with components (cᵢ, sᵢ, qᵢ):
///   c = Π cᵢ
///   s = Σᵢ sᵢ·Π_{j≠i} cⱼ
///   q = Σᵢ qᵢ·Π_{j≠i} cⱼ + 2·Σ_{i<j} sᵢ·sⱼ·Π_{l∉{i,j}} cₗ
class VarianceSqlGen {
 public:
  /// Product expression for the count component ("1" when all identity).
  static std::string MulC(const std::vector<SqlOperand>& ops);
  /// Product expression for the linear component ("0" when all identity).
  static std::string MulS(const std::vector<SqlOperand>& ops);
  /// Product expression for the quadratic component (requires q on every
  /// annotated operand).
  static std::string MulQ(const std::vector<SqlOperand>& ops);

  /// lift(-p) multiplication applied to an existing (c,s,q) annotation — the
  /// residual update of §5.3.1:
  ///   s' = s - p·c,   q' = q + p²·c - 2·p·s  (c is unchanged).
  static std::string UpdateS(const std::string& s, const std::string& c,
                             double p);
  static std::string UpdateQ(const std::string& q, const std::string& s,
                             const std::string& c, double p);

  /// Batched histogram query (split evaluation, one query per relation):
  ///   SELECT GROUPING_ID() AS set_id, a1, …, ak,
  ///          SUM(c_expr) AS c, SUM(s_expr) AS s[, SUM(q_expr) AS q]
  ///   FROM … GROUP BY GROUPING SETS ((a1), …, (ak))
  /// One scan of the shared absorption join yields every attribute's
  /// (value, c, s) histogram; rows with set_id = i belong to attribute i and
  /// NULL-extend the other key columns. Pass an empty q_expr to skip q.
  static std::string HistogramQuery(const std::vector<std::string>& attrs,
                                    const std::string& from_where,
                                    const std::string& c_expr,
                                    const std::string& s_expr,
                                    const std::string& q_expr = "");
};

/// Class-count semi-ring products: per-class components behave like `s`.
class ClassCountSqlGen {
 public:
  static std::string MulC(const std::vector<SqlOperand>& ops);
  /// Product expression for class k's count column (named `<cls_prefix>k`).
  static std::string MulClass(const std::vector<SqlOperand>& ops,
                              const std::string& cls_prefix, size_t k);

  /// Class-count analogue of VarianceSqlGen::HistogramQuery: per-class sums
  /// (columns cls0..clsK-1) instead of the (c, s) pair.
  static std::string HistogramQuery(const std::vector<std::string>& attrs,
                                    const std::string& from_where,
                                    const std::string& c_expr,
                                    const std::vector<std::string>& cls_exprs);
};

}  // namespace semiring
}  // namespace joinboost
