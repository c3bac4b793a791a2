#include "sql/printer.h"

#include <sstream>

#include "util/check.h"

namespace joinboost {
namespace sql {

namespace {

void PrintExpr(const Expr& e, std::ostream& os);
void PrintSelect(const SelectStmt& s, std::ostream& os);

void PrintExprList(const std::vector<ExprPtr>& list, std::ostream& os) {
  for (size_t i = 0; i < list.size(); ++i) {
    if (i) os << ", ";
    PrintExpr(*list[i], os);
  }
}

void PrintExpr(const Expr& e, std::ostream& os) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      if (!e.table.empty()) os << e.table << ".";
      os << e.column;
      break;
    case ExprKind::kIntLiteral:
      os << e.int_val;
      break;
    case ExprKind::kFloatLiteral: {
      std::ostringstream tmp;
      tmp.precision(17);
      tmp << e.float_val;
      std::string t = tmp.str();
      os << t;
      // make sure it re-parses as a float
      if (t.find('.') == std::string::npos &&
          t.find('e') == std::string::npos &&
          t.find("inf") == std::string::npos &&
          t.find("nan") == std::string::npos) {
        os << ".0";
      }
      break;
    }
    case ExprKind::kStringLiteral:
      os << QuoteString(e.str_val);
      break;
    case ExprKind::kNullLiteral:
      os << "NULL";
      break;
    case ExprKind::kStar:
      os << "*";
      break;
    case ExprKind::kBinary:
      os << "(";
      PrintExpr(*e.args[0], os);
      os << " " << e.op << " ";
      PrintExpr(*e.args[1], os);
      os << ")";
      break;
    case ExprKind::kUnary:
      os << "(" << e.op << " ";
      PrintExpr(*e.args[0], os);
      os << ")";
      break;
    case ExprKind::kFuncCall:
    case ExprKind::kAggCall:
      os << e.op << "(";
      PrintExprList(e.args, os);
      os << ")";
      break;
    case ExprKind::kWindowAgg:
      os << e.op << "(";
      PrintExprList(e.args, os);
      os << ") OVER (";
      if (!e.partition_by.empty()) {
        os << "PARTITION BY ";
        PrintExprList(e.partition_by, os);
        if (!e.order_by.empty()) os << " ";
      }
      if (!e.order_by.empty()) {
        os << "ORDER BY ";
        PrintExprList(e.order_by, os);
      }
      os << ")";
      break;
    case ExprKind::kCase: {
      os << "CASE";
      size_t pairs = (e.args.size() - (e.has_else ? 1 : 0)) / 2;
      for (size_t p = 0; p < pairs; ++p) {
        os << " WHEN ";
        PrintExpr(*e.args[2 * p], os);
        os << " THEN ";
        PrintExpr(*e.args[2 * p + 1], os);
      }
      if (e.has_else) {
        os << " ELSE ";
        PrintExpr(*e.args.back(), os);
      }
      os << " END";
      break;
    }
    case ExprKind::kInSubquery:
      if (e.args.empty()) {
        os << "(";
        PrintSelect(*e.subquery, os);
        os << ")";
      } else {
        PrintExpr(*e.args[0], os);
        os << (e.negated ? " NOT IN (" : " IN (");
        PrintSelect(*e.subquery, os);
        os << ")";
      }
      break;
    case ExprKind::kInList:
      PrintExpr(*e.args[0], os);
      os << (e.negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < e.args.size(); ++i) {
        if (i > 1) os << ", ";
        PrintExpr(*e.args[i], os);
      }
      os << ")";
      break;
    case ExprKind::kIsNull:
      PrintExpr(*e.args[0], os);
      os << (e.negated ? " IS NOT NULL" : " IS NULL");
      break;
  }
}

void PrintTableRef(const TableRef& ref, std::ostream& os) {
  if (ref.kind == TableRef::Kind::kBase) {
    os << ref.name;
  } else {
    os << "(";
    PrintSelect(*ref.subquery, os);
    os << ")";
  }
  if (!ref.alias.empty()) os << " AS " << ref.alias;
}

void PrintSelect(const SelectStmt& s, std::ostream& os) {
  os << "SELECT ";
  if (s.distinct) os << "DISTINCT ";
  for (size_t i = 0; i < s.select_list.size(); ++i) {
    if (i) os << ", ";
    PrintExpr(*s.select_list[i], os);
    if (!s.select_list[i]->alias.empty()) {
      os << " AS " << s.select_list[i]->alias;
    }
  }
  if (s.has_from) {
    os << " FROM ";
    PrintTableRef(s.from, os);
    for (const auto& j : s.joins) {
      switch (j.type) {
        case JoinType::kInner:
          os << " JOIN ";
          break;
        case JoinType::kLeft:
          os << " LEFT JOIN ";
          break;
        case JoinType::kSemi:
          os << " SEMI JOIN ";
          break;
        case JoinType::kAnti:
          os << " ANTI JOIN ";
          break;
      }
      PrintTableRef(j.table, os);
      os << " ON ";
      PrintExpr(*j.condition, os);
    }
  }
  if (s.where) {
    os << " WHERE ";
    PrintExpr(*s.where, os);
  }
  if (!s.group_by.empty()) {
    os << " GROUP BY ";
    PrintExprList(s.group_by, os);
  } else if (!s.grouping_sets.empty()) {
    os << " GROUP BY GROUPING SETS (";
    for (size_t i = 0; i < s.grouping_sets.size(); ++i) {
      if (i) os << ", ";
      os << "(";
      PrintExprList(s.grouping_sets[i], os);
      os << ")";
    }
    os << ")";
  }
  if (s.having) {
    os << " HAVING ";
    PrintExpr(*s.having, os);
  }
  if (!s.order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < s.order_by.size(); ++i) {
      if (i) os << ", ";
      PrintExpr(*s.order_by[i].expr, os);
      if (s.order_by[i].desc) os << " DESC";
    }
  }
  if (s.limit >= 0) os << " LIMIT " << s.limit;
}

}  // namespace

std::string ToSql(const Expr& expr) {
  std::ostringstream os;
  PrintExpr(expr, os);
  return os.str();
}

std::string ToSql(const SelectStmt& stmt) {
  std::ostringstream os;
  PrintSelect(stmt, os);
  return os.str();
}

std::string ToSql(const Statement& stmt) {
  std::ostringstream os;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      PrintSelect(*stmt.select, os);
      break;
    case Statement::Kind::kExplain:
      os << "EXPLAIN " << (stmt.analyze ? "ANALYZE " : "");
      PrintSelect(*stmt.select, os);
      break;
    case Statement::Kind::kCreateTableAs:
      os << "CREATE TABLE " << stmt.table << " AS ";
      PrintSelect(*stmt.select, os);
      break;
    case Statement::Kind::kUpdate:
      os << "UPDATE " << stmt.table << " SET ";
      for (size_t i = 0; i < stmt.set_items.size(); ++i) {
        if (i) os << ", ";
        os << stmt.set_items[i].first << " = ";
        PrintExpr(*stmt.set_items[i].second, os);
      }
      if (stmt.where) {
        os << " WHERE ";
        PrintExpr(*stmt.where, os);
      }
      break;
    case Statement::Kind::kDropTable:
      os << "DROP TABLE ";
      if (stmt.if_exists) os << "IF EXISTS ";
      os << stmt.table;
      break;
  }
  return os.str();
}

std::string QuoteString(const std::string& value) {
  std::string out = "'";
  for (char ch : value) {
    if (ch == '\'') out += '\'';
    out += ch;
  }
  return out + "'";
}

}  // namespace sql
}  // namespace joinboost
