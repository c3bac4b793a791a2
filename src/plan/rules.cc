#include <algorithm>
#include <cmath>

#include "plan/logical_plan.h"

namespace joinboost {
namespace plan {

namespace {

bool IsNumericLiteral(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kIntLiteral ||
         e.kind == sql::ExprKind::kFloatLiteral;
}

double LiteralAsDouble(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kFloatLiteral
             ? e.float_val
             : static_cast<double>(e.int_val);
}

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

bool IsArithmeticOp(const std::string& op) {
  return op == "+" || op == "-" || op == "*" || op == "/" || op == "%";
}

/// Fold `lhs op rhs` over two numeric literals, mirroring the semantics of
/// exec::EvalExpr exactly (int/int stays int except '/', which is double;
/// folds are skipped when evaluation would produce NULL so behaviour stays
/// bit-identical with the unfolded path).
sql::ExprPtr FoldBinary(const std::string& op, const sql::Expr& l,
                        const sql::Expr& r) {
  if (IsComparisonOp(op)) {
    double x = LiteralAsDouble(l);
    double y = LiteralAsDouble(r);
    bool res = false;
    if (op == "=") res = x == y;
    else if (op == "<>") res = x != y;
    else if (op == "<") res = x < y;
    else if (op == "<=") res = x <= y;
    else if (op == ">") res = x > y;
    else res = x >= y;
    return sql::Expr::Int(res ? 1 : 0);
  }
  if (!IsArithmeticOp(op)) return nullptr;
  bool as_double = l.kind == sql::ExprKind::kFloatLiteral ||
                   r.kind == sql::ExprKind::kFloatLiteral || op == "/";
  if (!as_double) {
    int64_t x = l.int_val, y = r.int_val;
    if (op == "+") return sql::Expr::Int(x + y);
    if (op == "-") return sql::Expr::Int(x - y);
    if (op == "*") return sql::Expr::Int(x * y);
    if (op == "%") return y == 0 ? nullptr : sql::Expr::Int(x % y);
    return nullptr;
  }
  double x = LiteralAsDouble(l);
  double y = LiteralAsDouble(r);
  if (op == "+") return sql::Expr::Float(x + y);
  if (op == "-") return sql::Expr::Float(x - y);
  if (op == "*") return sql::Expr::Float(x * y);
  if (op == "/") return y == 0.0 ? nullptr : sql::Expr::Float(x / y);
  if (op == "%") return sql::Expr::Float(std::fmod(x, y));
  return nullptr;
}

}  // namespace

bool IsFoldedLiteral(const sql::Expr& e, bool* truthy) {
  if (!IsNumericLiteral(e)) return false;
  if (truthy) {
    *truthy = e.kind == sql::ExprKind::kFloatLiteral ? e.float_val != 0.0
                                                     : e.int_val != 0;
  }
  return true;
}

sql::ExprPtr FoldConstants(const sql::ExprPtr& e, bool bool_ctx, int* folds) {
  if (!e) return e;
  switch (e->kind) {
    case sql::ExprKind::kBinary: {
      const std::string& op = e->op;
      bool child_bool = op == "AND" || op == "OR";
      sql::ExprPtr lhs = FoldConstants(e->args[0], child_bool && bool_ctx, folds);
      sql::ExprPtr rhs = FoldConstants(e->args[1], child_bool && bool_ctx, folds);
      if (child_bool && bool_ctx) {
        // TRUE/FALSE short-circuiting, valid only where truthiness is all
        // that matters (the engine normalizes AND/OR results to 0/1, so a
        // value-position fold would change the output).
        bool lt = false, rt = false;
        bool ll = IsFoldedLiteral(*lhs, &lt);
        bool rl = IsFoldedLiteral(*rhs, &rt);
        if (op == "AND") {
          if (ll && !lt) { ++*folds; return sql::Expr::Int(0); }
          if (rl && !rt) { ++*folds; return sql::Expr::Int(0); }
          if (ll && lt) { ++*folds; return rhs; }
          if (rl && rt) { ++*folds; return lhs; }
        } else {
          if (ll && lt) { ++*folds; return sql::Expr::Int(1); }
          if (rl && rt) { ++*folds; return sql::Expr::Int(1); }
          if (ll && !lt) { ++*folds; return rhs; }
          if (rl && !rt) { ++*folds; return lhs; }
        }
      } else if (IsNumericLiteral(*lhs) && IsNumericLiteral(*rhs)) {
        sql::ExprPtr folded = FoldBinary(op, *lhs, *rhs);
        if (folded) {
          ++*folds;
          return folded;
        }
      }
      if (lhs == e->args[0] && rhs == e->args[1]) return e;
      return sql::Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    case sql::ExprKind::kUnary: {
      sql::ExprPtr arg =
          FoldConstants(e->args[0], bool_ctx && e->op == "NOT", folds);
      if (IsNumericLiteral(*arg)) {
        if (e->op == "-") {
          ++*folds;
          return arg->kind == sql::ExprKind::kFloatLiteral
                     ? sql::Expr::Float(-arg->float_val)
                     : sql::Expr::Int(-arg->int_val);
        }
        if (e->op == "NOT") {
          bool truthy = false;
          IsFoldedLiteral(*arg, &truthy);
          ++*folds;
          return sql::Expr::Int(truthy ? 0 : 1);
        }
      }
      if (arg == e->args[0]) return e;
      return sql::Expr::Unary(e->op, std::move(arg));
    }
    case sql::ExprKind::kCase:
    case sql::ExprKind::kFuncCall:
    case sql::ExprKind::kInList:
    case sql::ExprKind::kIsNull: {
      // Fold inside value positions; the node itself stays.
      std::vector<sql::ExprPtr> args;
      args.reserve(e->args.size());
      bool changed = false;
      for (const auto& a : e->args) {
        sql::ExprPtr f = FoldConstants(a, /*bool_ctx=*/false, folds);
        changed |= f != a;
        args.push_back(std::move(f));
      }
      if (!changed) return e;
      auto out = std::make_shared<sql::Expr>(*e);
      out->args = std::move(args);
      return out;
    }
    default:
      // Literals, column refs, aggregates, windows, subqueries: left as-is
      // (subquery interiors are planned when they execute).
      return e;
  }
}

double EstimateSelectivity(const sql::Expr& e) {
  switch (e.kind) {
    case sql::ExprKind::kBinary: {
      if (e.op == "=") return 0.1;
      if (e.op == "<" || e.op == "<=" || e.op == ">" || e.op == ">=") {
        return 0.3;
      }
      if (e.op == "<>") return 0.9;
      if (e.op == "AND") {
        return EstimateSelectivity(*e.args[0]) *
               EstimateSelectivity(*e.args[1]);
      }
      if (e.op == "OR") {
        double a = EstimateSelectivity(*e.args[0]);
        double b = EstimateSelectivity(*e.args[1]);
        return std::min(1.0, a + b);
      }
      return 0.5;
    }
    case sql::ExprKind::kUnary:
      if (e.op == "NOT") return 1.0 - EstimateSelectivity(*e.args[0]);
      return 0.5;
    case sql::ExprKind::kInList: {
      const double in =
          std::min(0.5, 0.05 * static_cast<double>(e.args.size() - 1));
      return e.negated ? 1.0 - in : in;
    }
    case sql::ExprKind::kInSubquery:
      return 0.5;
    case sql::ExprKind::kIsNull:
      return e.negated ? 0.9 : 0.1;
    case sql::ExprKind::kIntLiteral:
    case sql::ExprKind::kFloatLiteral: {
      bool truthy = false;
      IsFoldedLiteral(e, &truthy);
      return truthy ? 1.0 : 0.0;
    }
    default:
      return 0.5;
  }
}

}  // namespace plan
}  // namespace joinboost
