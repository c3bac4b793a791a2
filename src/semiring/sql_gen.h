#pragma once

#include <string>
#include <vector>

namespace joinboost {
namespace semiring {

/// One ⊗-operand of a semi-ring product in SQL: a table alias plus the names
/// of its annotation columns. An empty column name drops that component from
/// the product: no c_col means c = 1, no s_col means s = 0 and no q_col means
/// q = 0. An operand with no columns at all is the 1 element (1, 0, 0) and
/// drops out entirely — the identity-message optimization of Appendix D.2.
struct SqlOperand {
  std::string alias;
  std::string c_col;  ///< count-like component (c, or h for gradients)
  std::string s_col;  ///< linear component (s, or g)
  std::string q_col;  ///< quadratic component

  std::string C() const { return alias.empty() ? c_col : alias + "." + c_col; }
  std::string S() const { return alias.empty() ? s_col : alias + "." + s_col; }
  std::string Q() const { return alias.empty() ? q_col : alias + "." + q_col; }
};

/// SQL expression generation for the variance (and gradient) semi-ring ⊗
/// product across any number of operands: the Factorizer composes these into
/// the SUM(...) aggregates of message-passing and absorption queries, and the
/// residual updaters apply lift(−p) through UpdateS/UpdateQ.
///
/// For operands i with components (cᵢ, sᵢ, qᵢ):
///   c = Π cᵢ
///   s = Σᵢ sᵢ·Π_{j≠i} cⱼ
///   q = Σᵢ qᵢ·Π_{j≠i} cⱼ + 2·Σ_{i<j} sᵢ·sⱼ·Π_{l∉{i,j}} cₗ
/// Terms keep operand order, so the SQL text is a pure function of `ops`.
class VarianceSqlGen {
 public:
  /// Product expression for the count component ("1" when no operand has c).
  static std::string MulC(const std::vector<SqlOperand>& ops);
  /// Product expression for the linear component ("0" when no operand has s).
  static std::string MulS(const std::vector<SqlOperand>& ops);
  /// Product expression for the quadratic component ("0" when no operand
  /// has q). Every operand that has s must also have q.
  static std::string MulQ(const std::vector<SqlOperand>& ops);

  /// lift(−p) multiplication applied to an existing (c,s,q) annotation — the
  /// residual update of §5.3.1:
  ///   s' = s − p·c,   q' = q + p²·c − 2·p·s  (c is unchanged).
  /// An empty `c` is the implicit count 1 and drops the "* c" factor.
  static std::string UpdateS(const std::string& s, const std::string& c,
                             double p);
  static std::string UpdateQ(const std::string& q, const std::string& s,
                             const std::string& c, double p);

  /// Batched histogram query (split evaluation, one query per relation):
  ///   SELECT GROUPING_ID() AS set_id, a1, …, ak,
  ///          SUM(c_expr) AS c, SUM(s_expr) AS s
  ///   FROM … GROUP BY GROUPING SETS ((a1), …, (ak))
  /// One scan of the shared absorption join yields every attribute's
  /// (value, c, s) histogram; rows with set_id = i belong to attribute i and
  /// NULL-extend the other key columns.
  static std::string HistogramQuery(const std::vector<std::string>& attrs,
                                    const std::string& from_where,
                                    const std::string& c_expr,
                                    const std::string& s_expr);
};

}  // namespace semiring
}  // namespace joinboost
