#include "semiring/sql_gen.h"

#include <sstream>

#include "sql/printer.h"
#include "util/check.h"

namespace joinboost {
namespace semiring {

namespace {

/// Π of c-components over annotated operands, excluding indices in `skip`.
std::string ProdCExcept(const std::vector<SqlOperand>& ops, int skip1,
                        int skip2) {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].has_annotation) continue;
    if (static_cast<int>(i) == skip1 || static_cast<int>(i) == skip2) continue;
    if (!out.empty()) out += " * ";
    out += ops[i].C();
  }
  return out;
}

}  // namespace

std::string VarianceSqlGen::MulC(const std::vector<SqlOperand>& ops) {
  std::string prod = ProdCExcept(ops, -1, -1);
  return prod.empty() ? "1" : prod;
}

std::string VarianceSqlGen::MulS(const std::vector<SqlOperand>& ops) {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].has_annotation) continue;
    std::string term = ops[i].S();
    std::string rest = ProdCExcept(ops, static_cast<int>(i), -1);
    if (!rest.empty()) term += " * " + rest;
    if (!out.empty()) out += " + ";
    out += term;
  }
  return out.empty() ? "0" : out;
}

std::string VarianceSqlGen::MulQ(const std::vector<SqlOperand>& ops) {
  std::string out;
  // Σᵢ qᵢ·Π_{j≠i} cⱼ
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].has_annotation) continue;
    JB_CHECK_MSG(!ops[i].q_col.empty(),
                 "operand " << ops[i].alias << " lacks a q component");
    std::string term = ops[i].Q();
    std::string rest = ProdCExcept(ops, static_cast<int>(i), -1);
    if (!rest.empty()) term += " * " + rest;
    if (!out.empty()) out += " + ";
    out += term;
  }
  // 2·Σ_{i<j} sᵢ·sⱼ·Π_{l∉{i,j}} cₗ
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].has_annotation) continue;
    for (size_t j = i + 1; j < ops.size(); ++j) {
      if (!ops[j].has_annotation) continue;
      std::string term =
          "2 * " + ops[i].S() + " * " + ops[j].S();
      std::string rest =
          ProdCExcept(ops, static_cast<int>(i), static_cast<int>(j));
      if (!rest.empty()) term += " * " + rest;
      if (!out.empty()) out += " + ";
      out += term;
    }
  }
  return out.empty() ? "0" : out;
}

std::string VarianceSqlGen::UpdateS(const std::string& s, const std::string& c,
                                    double p) {
  return s + " - " + sql::DoubleLiteral(p) + " * " + c;
}

std::string VarianceSqlGen::UpdateQ(const std::string& q, const std::string& s,
                                    const std::string& c, double p) {
  return q + " + " + sql::DoubleLiteral(p * p) + " * " + c + " - " +
         sql::DoubleLiteral(2.0 * p) + " * " + s;
}

namespace {

/// Shared SELECT … GROUP BY GROUPING SETS scaffolding of the histogram
/// queries; `sums` holds the pre-rendered "SUM(expr) AS name" items.
std::string HistogramQueryImpl(const std::vector<std::string>& attrs,
                               const std::string& from_where,
                               const std::vector<std::string>& sums) {
  JB_CHECK_MSG(!attrs.empty(), "histogram query needs at least one attribute");
  std::ostringstream os;
  os << "SELECT GROUPING_ID() AS set_id";
  for (const auto& a : attrs) os << ", " << a;
  for (const auto& s : sums) os << ", " << s;
  os << " " << from_where << " GROUP BY GROUPING SETS (";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i) os << ", ";
    os << "(" << attrs[i] << ")";
  }
  os << ")";
  return os.str();
}

}  // namespace

std::string VarianceSqlGen::HistogramQuery(const std::vector<std::string>& attrs,
                                           const std::string& from_where,
                                           const std::string& c_expr,
                                           const std::string& s_expr,
                                           const std::string& q_expr) {
  std::vector<std::string> sums = {"SUM(" + c_expr + ") AS c",
                                   "SUM(" + s_expr + ") AS s"};
  if (!q_expr.empty()) sums.push_back("SUM(" + q_expr + ") AS q");
  return HistogramQueryImpl(attrs, from_where, sums);
}

std::string ClassCountSqlGen::MulC(const std::vector<SqlOperand>& ops) {
  return VarianceSqlGen::MulC(ops);
}

std::string ClassCountSqlGen::MulClass(const std::vector<SqlOperand>& ops,
                                       const std::string& cls_prefix,
                                       size_t k) {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].has_annotation) continue;
    std::string col = cls_prefix + std::to_string(k);
    std::string term =
        ops[i].alias.empty() ? col : ops[i].alias + "." + col;
    std::string rest = ProdCExcept(ops, static_cast<int>(i), -1);
    if (!rest.empty()) term += " * " + rest;
    if (!out.empty()) out += " + ";
    out += term;
  }
  return out.empty() ? "0" : out;
}

std::string ClassCountSqlGen::HistogramQuery(
    const std::vector<std::string>& attrs, const std::string& from_where,
    const std::string& c_expr, const std::vector<std::string>& cls_exprs) {
  std::vector<std::string> sums = {"SUM(" + c_expr + ") AS c"};
  for (size_t k = 0; k < cls_exprs.size(); ++k) {
    sums.push_back("SUM(" + cls_exprs[k] + ") AS cls" + std::to_string(k));
  }
  return HistogramQueryImpl(attrs, from_where, sums);
}

}  // namespace semiring
}  // namespace joinboost
