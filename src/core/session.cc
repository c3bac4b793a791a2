#include "core/session.h"

#include <atomic>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "sql/printer.h"
#include "util/check.h"

namespace joinboost {
namespace core {

using sql::DoubleLiteral;

namespace {
std::atomic<uint64_t> g_session_counter{0};

/// Rejects a target outside the objective's domain, reading the column from
/// storage (no SQL): on such a target a log-link objective clamps its base
/// score and trains a degenerate model without an error. NULL/NaN targets
/// are left to Dataset::Prepare, which rejects them.
void CheckTargetDomain(const semiring::Objective& obj, exec::Database& db,
                       const graph::JoinGraph& g) {
  using Domain = semiring::Objective::TargetDomain;
  const Domain domain = obj.target_domain();
  const int y_rel = g.YRelation();
  if (domain == Domain::kAnyReal || y_rel < 0) return;
  const graph::Relation& rel = g.relation(y_rel);
  TablePtr table = db.catalog().Get(rel.name);
  if (!table->schema().HasField(rel.y_column)) return;  // Prepare reports it
  const ColumnData& col = *table->column(rel.y_column);
  auto check = [&](double y) {
    if (std::isnan(y)) return;
    if (domain == Domain::kPositive ? y > 0 : y >= 0) return;
    JB_THROW("objective " << obj.name() << " needs targets "
                          << (domain == Domain::kPositive ? "> 0" : ">= 0")
                          << ", but " << rel.name << "." << rel.y_column
                          << " holds " << y);
  };
  if (col.type() == TypeId::kFloat64) {
    for (double y : *col.ScanDoubles()) check(y);
  } else if (col.type() == TypeId::kInt64) {
    for (int64_t y : *col.ScanInts()) {
      if (y != kNullInt64) check(static_cast<double>(y));
    }
  }
}

}  // namespace

Session::Session(Dataset* data, TrainParams params)
    : data_(data), params_(std::move(params)) {
  prefix_ = "jb" + std::to_string(g_session_counter.fetch_add(1)) + "_";
}

Session::~Session() { Cleanup(); }

void Session::Cleanup() {
  fac_.reset();  // drops message tables
  data_->db()->catalog().DropPrefix(prefix_);
}

std::string Session::NewTempName() {
  return prefix_ + "t" + std::to_string(temp_counter_++);
}

int Session::FactOf(int rel) const {
  int cid = clusters_.at(static_cast<size_t>(rel));
  return cluster_facts_.at(static_cast<size_t>(cid));
}

const std::string& Session::FactTable(int rel) const {
  return fact_tables_.at(static_cast<size_t>(rel));
}

void Session::SetFactTable(int rel, const std::string& name) {
  fact_tables_.at(static_cast<size_t>(rel)) = name;
  Rebind(rel, name);
}

std::unique_ptr<factor::Factorizer> Session::MakeFactorizer(
    int rel_override, const std::string& table_override,
    const std::string& temp_prefix) {
  factor::FactorizerOptions fopts;
  fopts.cache_messages = params_.variant != "batch";
  fopts.track_q = params_.track_q && residual_semiring_;
  fopts.temp_prefix = temp_prefix;
  auto out = std::make_unique<factor::Factorizer>(data_->db(), &data_->graph(),
                                                  fopts);
  for (size_t r = 0; r < data_->graph().num_relations(); ++r) {
    factor::RelationBinding b = fac_->binding(static_cast<int>(r));
    if (static_cast<int>(r) == rel_override) b.table = table_override;
    out->BindRelation(static_cast<int>(r), b);
  }
  // The override's rows are a subset of the session table's, so every key
  // complete there is complete here. An incomplete answer may not hold for
  // the subset, and one whose `from` side is the override depends on which
  // rows it kept: the new factorizer checks those itself.
  std::map<std::pair<int, int>, bool> complete;
  for (const auto& [rels, ok] : fac_->ref_complete()) {
    if (ok && rels.first != rel_override) complete.emplace(rels, ok);
  }
  out->AdoptRefComplete(complete);
  return out;
}

void Session::Rebind(int rel, const std::string& table) {
  factor::RelationBinding b = fac_->binding(rel);
  b.table = table;
  fac_->BindRelation(rel, b);
  fac_->BumpEpoch(rel);
}

bool Session::LiftFact(int rel, bool with_y) {
  const graph::JoinGraph& g = data_->graph();
  exec::Database& db = *data_->db();
  const std::string& base = g.relation(rel).name;
  std::string lifted = prefix_ + "lift_" + base;

  const bool general = !residual_semiring_;
  const bool plain = !with_y || y_rel_ == rel;
  std::ostringstream sql;
  if (plain) {
    sql << "CREATE TABLE " << lifted
        << " AS SELECT *, INT(COUNT(*) OVER ()) AS jb_rid";
    if (general) {
      // General gradient path (snowflake, non-rmse): maintain prediction,
      // gradient and hessian columns on the fact (Appendix B).
      const std::string& y = g.relation(rel).y_column;
      std::string base_lit = DoubleLiteral(base_score_);
      sql << ", " << base_lit << " AS jb_pred, "
          << objective_->GradientSql(y, base_lit) << " AS g";
      if (objective_->HessianSql(y, base_lit) != "1.0") {
        sql << ", " << objective_->HessianSql(y, base_lit) << " AS h";
      }
    } else if (with_y) {
      // Residual semi-ring lift: s = y − base (the residual; §4).
      sql << ", " << g.relation(rel).y_column << " - "
          << DoubleLiteral(base_score_) << " AS s";
      if (params_.track_q) {
        const std::string& y = g.relation(rel).y_column;
        std::string b = DoubleLiteral(base_score_);
        sql << ", (" << y << " - " << b << ") * (" << y << " - " << b
            << ") AS q";
      }
    } else {
      // Non-Y cluster fact (galaxy): starts at the ⊗-identity lift(0).
      sql << ", 0.0 AS s";
      if (params_.track_q) sql << ", 0.0 AS q";
    }
    sql << " FROM " << base;
  } else {
    // Y lives in a dimension: join the path from the fact to R_Y and
    // project the fact's attributes plus Y (§4.1).
    JB_CHECK_MSG(residual_semiring_ || y_rel_ == rel,
                 "general objectives require Y in the fact table");
    graph::JoinGraph::Directed dir = g.DirectTowards(y_rel_);
    TablePtr fact_tbl = db.catalog().Get(base);
    sql << "CREATE TABLE " << lifted << " AS SELECT ";
    for (size_t c = 0; c < fact_tbl->schema().num_fields(); ++c) {
      if (c) sql << ", ";
      sql << base << "." << fact_tbl->schema().field(c).name << " AS "
          << fact_tbl->schema().field(c).name;
    }
    sql << ", INT(COUNT(*) OVER ()) AS jb_rid, "
        << g.relation(y_rel_).y_column << " - "
        << DoubleLiteral(base_score_) << " AS s";
    if (params_.track_q) {
      const std::string& y = g.relation(y_rel_).y_column;
      std::string b = DoubleLiteral(base_score_);
      sql << ", (" << y << " - " << b << ") * (" << y << " - " << b
          << ") AS q";
    }
    sql << " FROM " << base;
    // Walk rel -> ... -> y_rel_ along parent pointers.
    int cur = rel;
    while (cur != y_rel_) {
      int parent = dir.parent[static_cast<size_t>(cur)];
      int pe = dir.parent_edge[static_cast<size_t>(cur)];
      const graph::Edge& e = g.edges()[static_cast<size_t>(pe)];
      const std::string& pname = g.relation(parent).name;
      const std::string& cname = g.relation(cur).name;
      sql << " JOIN " << pname << " ON ";
      for (size_t k = 0; k < e.keys.size(); ++k) {
        if (k) sql << " AND ";
        sql << cname << "." << e.keys[k] << " = " << pname << "." << e.keys[k];
      }
      cur = parent;
    }
  }
  db.Execute(sql.str(), "lift");
  fact_tables_[static_cast<size_t>(rel)] = lifted;
  return plain;
}

void Session::Prepare() {
  objective_ = semiring::MakeObjective(params_.objective,
                                       params_.objective_param);
  CheckTargetDomain(*objective_, *data_->db(), data_->graph());
  data_->Prepare();
  const graph::JoinGraph& g = data_->graph();
  exec::Database& db = *data_->db();

  y_rel_ = g.YRelation();
  JB_CHECK_MSG(y_rel_ >= 0, "no target variable declared on any table");

  clusters_ = g.ComputeClusters(&cluster_facts_);
  residual_semiring_ = objective_->name() == "rmse";
  if (!is_snowflake() && params_.boosting == "gbdt") {
    JB_CHECK_MSG(objective_->SupportsGalaxy(),
                 "galaxy schemas support only the rmse objective: its "
                 "semi-ring is addition-to-multiplication preserving (§4.2)");
  }
  if (!residual_semiring_) {
    JB_CHECK_MSG(FactOf(y_rel_) == y_rel_,
                 "non-rmse objectives require Y in the fact table");
  }

  fact_tables_.assign(g.num_relations(), "");

  // Base score from the factorized mean of Y over R⋈ (for boosting only).
  // Its referential-completeness checks (anti-joins over the base fact) are
  // kept for the training factorizer.
  const bool boosted = params_.boosting == "gbdt";
  std::map<std::pair<int, int>, bool> ref_complete;
  if (boosted) {
    // Temporary factorizer annotating Y's original column directly.
    factor::FactorizerOptions fopts;
    fopts.cache_messages = false;
    fopts.temp_prefix = prefix_ + "pre_";
    factor::Factorizer pre(&db, &g, fopts);
    for (size_t r = 0; r < g.num_relations(); ++r) {
      factor::RelationBinding b;
      b.table = g.relation(static_cast<int>(r)).name;
      if (static_cast<int>(r) == y_rel_) {
        b.annotated = true;
        b.s_col = g.relation(y_rel_).y_column;
      }
      pre.BindRelation(static_cast<int>(r), b);
    }
    factor::PredicateSet none;
    semiring::VarianceElem tot = pre.TotalAggregate(y_rel_, none, "setup");
    double mean = tot.c > 0 ? tot.s / tot.c : 0;
    base_score_ = objective_->InitFromMean(mean);
    ref_complete = pre.ref_complete();
  }

  // Lift annotated working copies.
  int y_fact_rel = FactOf(y_rel_);
  bool plain_lifts = true;
  if (residual_semiring_ && boosted && !is_snowflake()) {
    // Galaxy gradient boosting: every cluster fact carries annotations so
    // residual updates can land in any cluster (CPT, §4.2.2).
    for (int f : cluster_facts_) {
      plain_lifts &= LiftFact(f, /*with_y=*/f == y_fact_rel);
    }
  } else {
    plain_lifts = LiftFact(y_fact_rel, /*with_y=*/true);
  }

  // Bind the factorizer.
  factor::FactorizerOptions fopts;
  fopts.cache_messages = params_.variant != "batch";
  fopts.track_q = params_.track_q && residual_semiring_;
  fopts.temp_prefix = prefix_ + "msg_";
  fac_ = std::make_unique<factor::Factorizer>(&db, &g, fopts);
  for (size_t r = 0; r < g.num_relations(); ++r) {
    factor::RelationBinding b;
    if (!fact_tables_[r].empty()) {
      b.table = fact_tables_[r];
      b.annotated = true;
      if (residual_semiring_) {
        b.s_col = "s";
        b.q_col = "q";
      } else {
        b.s_col = "g";
        std::string base_lit = DoubleLiteral(base_score_);
        if (objective_->HessianSql(g.relation(static_cast<int>(r)).y_column,
                                   base_lit) != "1.0") {
          b.has_c = true;
          b.c_col = "h";
        }
      }
    } else {
      b.table = g.relation(static_cast<int>(r)).name;
      b.annotated = false;
    }
    fac_->BindRelation(static_cast<int>(r), b);
  }
  // A lift that joins toward Y's dimension may drop fact rows, so the
  // training factorizer checks completeness again.
  if (plain_lifts) fac_->AdoptRefComplete(ref_complete);
}

}  // namespace core
}  // namespace joinboost
