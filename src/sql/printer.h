#pragma once

#include <string>

#include "sql/ast.h"

namespace joinboost {
namespace sql {

/// Render an expression / statement back to SQL text. Printing then
/// re-parsing yields an equivalent AST (tested); the trainers use this to
/// surface the exact SQL they run, as the paper's middleware does.
std::string ToSql(const Expr& expr);
std::string ToSql(const SelectStmt& stmt);
std::string ToSql(const Statement& stmt);

/// `value` as a SQL literal that re-parses to the same double: 17
/// significant digits, always a float literal, negatives parenthesized,
/// ±infinity as 1e999 / (-1e999) and NaN as NULL. Every double the engine
/// prints or the trainers emit goes through this one formatter.
std::string DoubleLiteral(double value);

/// `value` as a SQL string literal: single-quoted, each embedded quote
/// doubled (the parser reads '' back as one quote).
std::string QuoteString(const std::string& value);

}  // namespace sql
}  // namespace joinboost
