#include "semiring/sql_gen.h"

#include <sstream>

#include "sql/printer.h"
#include "util/check.h"

namespace joinboost {
namespace semiring {

namespace {

/// Π of the c-components present, excluding operands `skip1` and `skip2`.
std::string ProdCExcept(const std::vector<SqlOperand>& ops, int skip1,
                        int skip2) {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].c_col.empty()) continue;
    if (static_cast<int>(i) == skip1 || static_cast<int>(i) == skip2) continue;
    if (!out.empty()) out += " * ";
    out += ops[i].C();
  }
  return out;
}

/// Appends `term` · `rest` to `*sum`; an empty `rest` is the count 1.
void AddTerm(std::string* sum, std::string term, const std::string& rest) {
  if (!rest.empty()) term += " * " + rest;
  if (!sum->empty()) *sum += " + ";
  *sum += term;
}

}  // namespace

std::string VarianceSqlGen::MulC(const std::vector<SqlOperand>& ops) {
  std::string prod = ProdCExcept(ops, -1, -1);
  return prod.empty() ? "1" : prod;
}

std::string VarianceSqlGen::MulS(const std::vector<SqlOperand>& ops) {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].s_col.empty()) continue;
    AddTerm(&out, ops[i].S(), ProdCExcept(ops, static_cast<int>(i), -1));
  }
  return out.empty() ? "0" : out;
}

std::string VarianceSqlGen::MulQ(const std::vector<SqlOperand>& ops) {
  std::string out;
  // Σᵢ qᵢ·Π_{j≠i} cⱼ
  for (size_t i = 0; i < ops.size(); ++i) {
    JB_CHECK_MSG(ops[i].s_col.empty() || !ops[i].q_col.empty(),
                 "operand " << ops[i].alias << " has s but no q component");
    if (ops[i].q_col.empty()) continue;
    AddTerm(&out, ops[i].Q(), ProdCExcept(ops, static_cast<int>(i), -1));
  }
  // 2·Σ_{i<j} sᵢ·sⱼ·Π_{l∉{i,j}} cₗ
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].s_col.empty()) continue;
    for (size_t j = i + 1; j < ops.size(); ++j) {
      if (ops[j].s_col.empty()) continue;
      AddTerm(&out, "2 * " + ops[i].S() + " * " + ops[j].S(),
              ProdCExcept(ops, static_cast<int>(i), static_cast<int>(j)));
    }
  }
  return out.empty() ? "0" : out;
}

std::string VarianceSqlGen::UpdateS(const std::string& s, const std::string& c,
                                    double p) {
  std::string out = s + " - " + sql::DoubleLiteral(p);
  if (!c.empty()) out += " * " + c;
  return out;
}

std::string VarianceSqlGen::UpdateQ(const std::string& q, const std::string& s,
                                    const std::string& c, double p) {
  std::string out = q + " + " + sql::DoubleLiteral(p * p);
  if (!c.empty()) out += " * " + c;
  return out + " - " + sql::DoubleLiteral(2.0 * p) + " * " + s;
}

std::string VarianceSqlGen::HistogramQuery(const std::vector<std::string>& attrs,
                                           const std::string& from_where,
                                           const std::string& c_expr,
                                           const std::string& s_expr) {
  JB_CHECK_MSG(!attrs.empty(), "histogram query needs at least one attribute");
  std::ostringstream os;
  os << "SELECT GROUPING_ID() AS set_id";
  for (const auto& a : attrs) os << ", " << a;
  os << ", SUM(" << c_expr << ") AS c, SUM(" << s_expr << ") AS s";
  os << " " << from_where << " GROUP BY GROUPING SETS (";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i) os << ", ";
    os << "(" << attrs[i] << ")";
  }
  os << ")";
  return os.str();
}

}  // namespace semiring
}  // namespace joinboost
