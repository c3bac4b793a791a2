#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "exec/hash_table.h"
#include "exec/vector.h"
#include "sql/ast.h"

namespace joinboost {
namespace exec {

/// An IN (...) literal list translated into a probe value space, plus the
/// integer bounds compressed execution uses for zone-map block skipping.
struct InListSet {
  std::shared_ptr<const hash::ValueSet> set;
  bool as_double = false;   ///< members are double bit patterns
  bool has_bounds = false;  ///< min/max below are valid (int64 members exist)
  int64_t min_value = 0;
  int64_t max_value = 0;
  /// The list holds a NULL, which matches nothing: NOT IN holds for no row.
  bool has_null = false;
};

/// SQL's `x NOT IN S` over a non-empty list S: true only when x is not
/// NULL, not a member, and S holds no NULL.
inline bool NotInList(bool found, bool null_probe, const InListSet& ls) {
  return !found && !null_probe && !ls.has_null;
}

/// Membership set of one IN (subquery), probed like a semi-join.
struct InSubquerySet;

/// Context threaded through expression evaluation.
struct EvalContext {
  /// Executes an IN/scalar subquery and returns its result.
  std::function<ExecTable(const sql::SelectStmt&)> run_subquery;

  /// Per-node result overrides: aggregate and window nodes are pre-computed
  /// by the operators and substituted here during final projection.
  std::unordered_map<const sql::Expr*, VectorData> overrides;

  /// Membership sets of IN (subquery) predicates, built once per context per
  /// distinct subquery: nodes whose subqueries print to the same SQL share
  /// one run and one set (`in_sets_by_sql`), so a CASE whose leaves repeat a
  /// selector runs it once. `in_sets` is looked up first, per predicate
  /// node: row-mode scalar evaluation re-enters the vectorized path once per
  /// input row and must not print the subquery each time.
  std::unordered_map<const sql::Expr*, std::shared_ptr<InSubquerySet>> in_sets;
  std::unordered_map<std::string, std::shared_ptr<InSubquerySet>>
      in_sets_by_sql;

  /// IN (...) literal lists translated per (predicate node, probe
  /// dictionary). String probes with different dictionaries translate to
  /// different code sets, so the dictionary is part of the key — this is
  /// what keeps repeated evaluations against the same dictionary from
  /// re-translating the list (it previously stayed uncached).
  std::map<std::pair<const sql::Expr*, const Dictionary*>,
           std::shared_ptr<const InListSet>>
      list_sets;

  /// Scalar subquery results (their 1x1 value vector), cached per context
  /// per node for the same reason: table data is immutable within one
  /// statement, and row-mode evaluation would re-run the subquery once per
  /// input row otherwise.
  std::unordered_map<const sql::Expr*, VectorData> scalar_subqueries;
};

/// Translate an IN-list node's literals into the probe's value space —
/// dictionary codes for string probes, double bit patterns for float probes,
/// raw int64 otherwise — cached per (node, dictionary) in `ctx.list_sets`.
/// Shared between vectorized evaluation and the compressed scan.
const InListSet& GetOrBuildInListSet(const sql::Expr& e, TypeId probe_type,
                                     const Dictionary* dict, EvalContext& ctx);

/// Process-wide count of IN-list translations that probed a dictionary
/// (deterministic regression knob for the (node, dictionary) cache).
size_t InListTranslations();
void ResetInListTranslations();

/// Vectorized evaluation of `e` over `input` (result has input.rows rows;
/// literals broadcast).
VectorData EvalExpr(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx);

/// Row-at-a-time evaluation (row-store profiles and point lookups).
Value EvalScalar(const sql::Expr& e, const ExecTable& input, size_t row,
                 EvalContext& ctx);

/// Evaluate a predicate and return the selected row indices.
std::vector<uint32_t> EvalPredicate(const sql::Expr& e, const ExecTable& input,
                                    EvalContext& ctx, bool row_mode);

/// Collect aggregate call nodes (SUM/COUNT/...) reachable without crossing
/// window or nested aggregate boundaries.
void CollectAggregates(const sql::ExprPtr& e,
                       std::vector<const sql::Expr*>* out);

/// Collect window aggregate nodes.
void CollectWindows(const sql::ExprPtr& e, std::vector<const sql::Expr*>* out);

}  // namespace exec
}  // namespace joinboost
