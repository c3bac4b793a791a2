#include "core/boosting.h"

#include <functional>
#include <sstream>

#include "semiring/sql_gen.h"
#include "sql/printer.h"
#include "util/check.h"

namespace joinboost {
namespace core {

using sql::DoubleLiteral;

std::string ResolveUpdateStrategy(const std::string& requested,
                                  const EngineProfile& profile) {
  if (requested == "auto") {
    return profile.allow_column_swap ? "swap" : "create";
  }
  JB_CHECK_MSG(requested == "naive_u" || requested == "update" ||
                   requested == "create" || requested == "swap",
               "unknown update strategy " << requested);
  if (requested == "swap") {
    JB_CHECK_MSG(profile.allow_column_swap,
                 "profile " << profile.name << " lacks column swap (§5.4)");
  }
  return requested;
}

GradientBoosting::GradientBoosting(Session* session, TrainParams params)
    : session_(session), params_(std::move(params)) {}

std::string GradientBoosting::LeafConditionSql(
    Session& session, int fact_rel, const factor::PredicateSet& preds) {
  const graph::JoinGraph& g = session.graph();
  std::vector<std::string> parts;

  // Direct predicates on the fact itself.
  if (const auto* own = preds.For(fact_rel)) {
    for (const auto& p : *own) parts.push_back("(" + p + ")");
  }

  // Semi-join selectors from predicated dimension subtrees (§5.3.1): a
  // composite-key selector is a row-value IN over its message's keys.
  for (auto [n, e] : g.Neighbors(fact_rel)) {
    (void)e;
    factor::Message sel =
        session.fac().GetSelector(n, fact_rel, preds, "update");
    if (sel.kind == factor::Message::Kind::kNone) continue;
    std::string keys;
    for (size_t k = 0; k < sel.keys.size(); ++k) {
      if (k) keys += ", ";
      keys += sel.keys[k];
    }
    const std::string probe = sel.keys.size() == 1 ? keys : "(" + keys + ")";
    parts.push_back(probe + " IN (SELECT " + keys + " FROM " + sel.table +
                    ")");
  }

  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += " AND ";
    out += parts[i];
  }
  return out;  // empty = always true (root-only tree)
}

namespace {

/// Column list of `table` excluding `skip` columns, as "a, b, c".
std::string ColumnsExcept(exec::Database& db, const std::string& table,
                          const std::vector<std::string>& skip) {
  TablePtr t = db.catalog().Get(table);
  std::string out;
  for (const auto& f : t->schema().fields()) {
    bool skipped = false;
    for (const auto& s : skip) skipped |= (s == f.name);
    if (skipped) continue;
    if (!out.empty()) out += ", ";
    out += f.name;
  }
  return out;
}

struct LeafUpdate {
  std::string cond;  ///< empty = all rows
  double delta;      ///< shrunk leaf value to subtract from the residual
};

/// CASE WHEN <leaf cond> THEN then_fn(leaf) … ELSE else_expr END over the
/// conditioned leaves; a root-only tree needs no CASE.
std::string CaseExpr(const std::vector<LeafUpdate>& leaves,
                     const std::string& else_expr,
                     const std::function<std::string(const LeafUpdate&)>& then_fn) {
  std::ostringstream os;
  os << "CASE";
  bool any = false;
  for (const auto& l : leaves) {
    if (l.cond.empty()) continue;
    any = true;
    os << " WHEN " << l.cond << " THEN " << then_fn(l);
  }
  if (!any && !leaves.empty()) {
    // Root-only tree: single unconditional update.
    return then_fn(leaves[0]);
  }
  os << " ELSE " << else_expr << " END";
  return os.str();
}

}  // namespace

void GradientBoosting::UpdateResidualSemiring(Session& session,
                                              const GrowthResult& grown,
                                              int fact_rel,
                                              const std::string& strategy) {
  exec::Database& db = session.db();
  const std::string& fact = session.FactTable(fact_rel);
  const double lr = params_.learning_rate;

  std::vector<LeafUpdate> leaves;
  for (const auto& leaf : grown.leaves) {
    LeafUpdate u;
    u.cond = LeafConditionSql(session, fact_rel, leaf.preds);
    u.delta = lr * leaf.raw_value;
    leaves.push_back(std::move(u));
  }

  // (1,s,q) ⊗ lift(−p) = (1, s−p, q + p² − 2·p·s)  [§5.3.1]
  auto s_then = [](const LeafUpdate& l) {
    return semiring::VarianceSqlGen::UpdateS("s", "", l.delta);
  };
  auto q_then = [](const LeafUpdate& l) {
    return semiring::VarianceSqlGen::UpdateQ("q", "s", "", l.delta);
  };

  if (strategy == "update") {
    for (const auto& l : leaves) {
      std::string sql = "UPDATE " + fact + " SET s = " + s_then(l);
      if (params_.track_q) sql += ", q = " + q_then(l);
      if (!l.cond.empty()) sql += " WHERE " + l.cond;
      db.Execute(sql, "update");
    }
  } else if (strategy == "create") {
    std::vector<std::string> skip = {"s"};
    if (params_.track_q) skip.push_back("q");
    std::string cols = ColumnsExcept(db, fact, skip);
    std::string name = session.NewTempName();
    std::string sql = "CREATE TABLE " + name + " AS SELECT " + cols + ", " +
                      CaseExpr(leaves, "s", s_then) + " AS s";
    if (params_.track_q) sql += ", " + CaseExpr(leaves, "q", q_then) + " AS q";
    sql += " FROM " + fact;
    db.Execute(sql, "update");
    db.Execute("DROP TABLE " + fact, "update");
    session.SetFactTable(fact_rel, name);
    return;  // epoch bumped by SetFactTable
  } else if (strategy == "swap") {
    std::string tmp = session.NewTempName();
    std::string sql = "CREATE TABLE " + tmp + " AS SELECT " +
                      CaseExpr(leaves, "s", s_then) + " AS s";
    if (params_.track_q) sql += ", " + CaseExpr(leaves, "q", q_then) + " AS q";
    sql += " FROM " + fact;
    db.Execute(sql, "update");
    db.SwapColumns(fact, "s", tmp, "s");
    if (params_.track_q) db.SwapColumns(fact, "q", tmp, "q");
    db.Execute("DROP TABLE " + tmp, "update");
  } else if (strategy == "naive_u") {
    // §5.3 Naive: materialize the update relation U and re-create F = F ⋈ U.
    // U holds each fact row's leaf delta keyed by jb_rid, so it is as large
    // as F — exactly the cost the paper calls out.
    std::string u_name = session.NewTempName();
    db.Execute("CREATE TABLE " + u_name + " AS SELECT jb_rid AS u_rid, " +
                   CaseExpr(leaves, "0.0",
                            [](const LeafUpdate& l) {
                              return DoubleLiteral(l.delta);
                            }) +
                   " AS p FROM " + fact,
               "update");
    std::vector<std::string> skip = {"s"};
    if (params_.track_q) skip.push_back("q");
    std::string cols = ColumnsExcept(db, fact, skip);
    std::string name = session.NewTempName();
    std::string sql = "CREATE TABLE " + name + " AS SELECT " + cols +
                      ", s - p AS s";
    if (params_.track_q) sql += ", q + p * p - 2 * p * s AS q";
    sql += " FROM " + fact + " JOIN " + u_name + " ON " + fact +
           ".jb_rid = " + u_name + ".u_rid";
    db.Execute(sql, "update");
    db.Execute("DROP TABLE " + u_name, "update");
    db.Execute("DROP TABLE " + fact, "update");
    session.SetFactTable(fact_rel, name);
    return;
  } else {
    JB_THROW("unknown strategy " << strategy);
  }
  session.fac().BumpEpoch(fact_rel);
}

void GradientBoosting::UpdateGeneral(Session& session,
                                     const GrowthResult& grown, int fact_rel,
                                     const std::string& strategy) {
  exec::Database& db = session.db();
  const std::string& fact = session.FactTable(fact_rel);
  const graph::JoinGraph& g = session.graph();
  const std::string& y = g.relation(session.y_relation()).y_column;
  const double lr = params_.learning_rate;
  const auto& obj = *session.objective();
  bool has_h = session.fac().binding(fact_rel).has_c;

  std::vector<LeafUpdate> leaves;
  for (const auto& leaf : grown.leaves) {
    LeafUpdate u;
    u.cond = LeafConditionSql(session, fact_rel, leaf.preds);
    u.delta = lr * leaf.raw_value;
    leaves.push_back(std::move(u));
  }

  // 1. Advance per-row predictions.
  const std::string pred_case =
      CaseExpr(leaves, "jb_pred", [](const LeafUpdate& l) {
        return "jb_pred + " + DoubleLiteral(l.delta);
      });

  if (strategy == "update") {
    for (const auto& l : leaves) {
      std::string sql = "UPDATE " + fact + " SET jb_pred = jb_pred + " +
                        DoubleLiteral(l.delta);
      if (!l.cond.empty()) sql += " WHERE " + l.cond;
      db.Execute(sql, "update");
    }
    std::string sql = "UPDATE " + fact + " SET g = " +
                      obj.GradientSql(y, "jb_pred");
    if (has_h) sql += ", h = " + obj.HessianSql(y, "jb_pred");
    db.Execute(sql, "update");
    session.fac().BumpEpoch(fact_rel);
    return;
  }

  // create / swap: recompute pred, g (and h) in one pass over F.
  std::vector<std::string> skip = {"jb_pred", "g"};
  if (has_h) skip.push_back("h");
  std::string inner_cols = ColumnsExcept(db, fact, skip);
  std::string name = session.NewTempName();
  std::ostringstream sql;
  sql << "CREATE TABLE " << name << " AS SELECT "
      << (strategy == "create" ? inner_cols + ", " : std::string())
      << "jb_pred, " << obj.GradientSql(y, "jb_pred") << " AS g";
  if (has_h) sql << ", " << obj.HessianSql(y, "jb_pred") << " AS h";
  sql << " FROM (SELECT " << inner_cols << ", " << pred_case
      << " AS jb_pred FROM " << fact << ")";
  db.Execute(sql.str(), "update");

  if (strategy == "create") {
    db.Execute("DROP TABLE " + fact, "update");
    session.SetFactTable(fact_rel, name);
  } else {  // swap
    db.SwapColumns(fact, "jb_pred", name, "jb_pred");
    db.SwapColumns(fact, "g", name, "g");
    if (has_h) db.SwapColumns(fact, "h", name, "h");
    db.Execute("DROP TABLE " + name, "update");
    session.fac().BumpEpoch(fact_rel);
  }
}

void GradientBoosting::UpdateResiduals(Session& session,
                                       const GrowthResult& grown,
                                       int fact_rel) {
  std::string strategy =
      ResolveUpdateStrategy(params_.update_strategy, session.db().profile());
  if (session.residual_semiring()) {
    UpdateResidualSemiring(session, grown, fact_rel, strategy);
  } else {
    UpdateGeneral(session, grown, fact_rel, strategy);
  }
}

Ensemble GradientBoosting::Train() {
  Session& session = *session_;

  Ensemble model;
  model.base_score = session.base_score();
  model.average = false;

  TreeGrower grower(&session.fac(), params_);
  std::vector<std::string> features = session.graph().AllFeatures();
  const std::vector<int>* clusters =
      session.is_snowflake() ? nullptr : &session.clusters();

  for (int iter = 0; iter < params_.num_iterations; ++iter) {
    // Round boundary: a cancelled/deadlined guard stops training between
    // trees, leaving `model` with only fully-applied rounds.
    if (params_.guard != nullptr) params_.guard->Check();
    GrowthResult grown =
        grower.Grow(features, session.y_fact(), clusters);
    // Shrink leaf values into the stored model.
    for (const auto& leaf : grown.leaves) {
      grown.tree.nodes[static_cast<size_t>(leaf.node)].prediction =
          params_.learning_rate * leaf.raw_value;
    }
    int fact_rel = grown.first_split_relation >= 0
                       ? session.FactOf(grown.first_split_relation)
                       : session.y_fact();
    UpdateResiduals(session, grown, fact_rel);
    model.trees.push_back(std::move(grown.tree));
  }
  return model;
}

}  // namespace core
}  // namespace joinboost
