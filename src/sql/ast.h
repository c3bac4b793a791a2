#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace joinboost {
namespace sql {

struct SelectStmt;
using SelectPtr = std::shared_ptr<SelectStmt>;

/// Expression node kinds for the SQL subset JoinBoost generates:
/// simple algebra, aggregates, CASE WHEN, IN (SELECT ...), window SUM OVER.
enum class ExprKind {
  kColumnRef,
  kIntLiteral,
  kFloatLiteral,
  kStringLiteral,
  kNullLiteral,
  kStar,          ///< '*' inside COUNT(*) or SELECT *
  kBinary,        ///< op in {+,-,*,/,%,=,<>,<,<=,>,>=,AND,OR}
  kUnary,         ///< op in {-,NOT}
  kFuncCall,      ///< scalar functions (LOG, ABS, SIGN, HASH, FLOOR, ...)
  kAggCall,       ///< SUM/COUNT/AVG/MIN/MAX
  kWindowAgg,     ///< agg OVER (PARTITION BY ... ORDER BY ...)
  kCase,          ///< CASE WHEN c THEN v ... [ELSE e] END
  kInSubquery,    ///< expr [NOT] IN (SELECT ...), (e1, e2) [NOT] IN (...)
  kInList,        ///< expr [NOT] IN (v1, v2, ...)
  kIsNull,        ///< expr IS [NOT] NULL
};

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::kIntLiteral;

  // kColumnRef
  std::string table;   ///< optional qualifier
  std::string column;

  // literals
  int64_t int_val = 0;
  double float_val = 0.0;
  std::string str_val;

  // kBinary / kUnary operator, or function/aggregate name
  std::string op;

  /// Operands: binary [lhs, rhs]; unary [operand]; function args;
  /// CASE [when1, then1, ..., else?] with has_else; IN list [probe, items...];
  /// IN subquery [probe per subquery column] (none = scalar subquery).
  std::vector<ExprPtr> args;
  bool has_else = false;

  bool distinct = false;  ///< SELECT DISTINCT-style agg modifier (unused)
  bool negated = false;   ///< NOT IN / IS NOT NULL

  // kInSubquery
  SelectPtr subquery;

  // kWindowAgg
  std::vector<ExprPtr> partition_by;
  std::vector<ExprPtr> order_by;

  /// Output name when used as a select-list item.
  std::string alias;

  // ---- constructors ----
  static ExprPtr Column(std::string table, std::string column) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kColumnRef;
    e->table = std::move(table);
    e->column = std::move(column);
    return e;
  }
  static ExprPtr Int(int64_t v) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kIntLiteral;
    e->int_val = v;
    return e;
  }
  static ExprPtr Float(double v) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kFloatLiteral;
    e->float_val = v;
    return e;
  }
  static ExprPtr Str(std::string v) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kStringLiteral;
    e->str_val = std::move(v);
    return e;
  }
  static ExprPtr Null() {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kNullLiteral;
    return e;
  }
  static ExprPtr Binary(std::string op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kBinary;
    e->op = std::move(op);
    e->args = {std::move(lhs), std::move(rhs)};
    return e;
  }
  static ExprPtr Unary(std::string op, ExprPtr operand) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kUnary;
    e->op = std::move(op);
    e->args = {std::move(operand)};
    return e;
  }
  static ExprPtr Func(std::string name, std::vector<ExprPtr> args) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kFuncCall;
    e->op = std::move(name);
    e->args = std::move(args);
    return e;
  }
  static ExprPtr Agg(std::string name, std::vector<ExprPtr> args) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kAggCall;
    e->op = std::move(name);
    e->args = std::move(args);
    return e;
  }
  static ExprPtr Star() {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kStar;
    return e;
  }
};

/// FROM item: base table or parenthesized subquery, with optional alias.
struct TableRef {
  enum class Kind { kBase, kSubquery } kind = Kind::kBase;
  std::string name;
  std::string alias;
  SelectPtr subquery;

  /// Effective name used as column qualifier.
  const std::string& Qualifier() const { return alias.empty() ? name : alias; }
};

enum class JoinType { kInner, kLeft, kSemi, kAnti };

struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef table;
  ExprPtr condition;  ///< conjunction of equalities (+ residual predicates)
};

struct OrderItem {
  ExprPtr expr;
  bool desc = false;
};

struct SelectStmt {
  std::vector<ExprPtr> select_list;
  bool distinct = false;
  bool has_from = false;
  TableRef from;
  std::vector<JoinClause> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  /// GROUP BY GROUPING SETS ((e1), (e2, e3), ...): each inner vector is one
  /// grouping set (possibly empty — the grand total). Mutually exclusive with
  /// `group_by`; non-empty means the multi-aggregate path. Rows of set i are
  /// identified by the GROUPING_ID() pseudo-function (returns i); key columns
  /// absent from a row's set are NULL, as in standard SQL.
  std::vector<std::vector<ExprPtr>> grouping_sets;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  ///< -1 = no limit
};

/// Top-level statements JoinBoost needs: SELECT, CREATE TABLE AS,
/// UPDATE ... SET ... WHERE, DROP TABLE, plus EXPLAIN over a SELECT.
struct Statement {
  enum class Kind {
    kSelect,
    kCreateTableAs,
    kUpdate,
    kDropTable,
    kExplain,
  } kind = Kind::kSelect;

  SelectPtr select;   ///< kSelect, kCreateTableAs & kExplain
  std::string table;  ///< target of CREATE/UPDATE/DROP
  bool if_exists = false;
  bool or_replace = false;
  bool analyze = false;  ///< EXPLAIN ANALYZE: execute and show actual rows

  // kUpdate
  std::vector<std::pair<std::string, ExprPtr>> set_items;
  ExprPtr where;
};

}  // namespace sql
}  // namespace joinboost
