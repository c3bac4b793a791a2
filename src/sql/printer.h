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

/// `value` as a SQL string literal: single-quoted, each embedded quote
/// doubled (the parser reads '' back as one quote).
std::string QuoteString(const std::string& value);

}  // namespace sql
}  // namespace joinboost
