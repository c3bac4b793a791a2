#include "factor/cuboid.h"

#include <cmath>
#include <sstream>

#include "core/evaluate.h"
#include "core/trainer.h"
#include "factor/message_passing.h"
#include "semiring/sql_gen.h"
#include "sql/printer.h"
#include "util/check.h"
#include "util/timer.h"

namespace joinboost {
namespace factor {

using sql::DoubleLiteral;

CuboidResult TrainCuboidGbdt(Dataset& dataset,
                             const core::TrainParams& params) {
  JB_CHECK_MSG(params.max_bin > 0, "cuboid training requires max_bin > 0");
  dataset.Prepare();
  exec::Database& db = *dataset.db();
  const graph::JoinGraph& g = dataset.graph();
  CuboidResult out;
  Timer timer;

  // 1. Per-feature equi-width bin expressions (computed via SQL MIN/MAX).
  struct BinSpec {
    std::string feature;
    double min = 0, width = 1;
  };
  std::vector<BinSpec> specs;
  std::vector<std::string> features = g.AllFeatures();
  for (const auto& f : features) {
    int rel = g.RelationOfFeature(f);
    auto mm = db.Query("SELECT MIN(" + f + ") AS a, MAX(" + f + ") AS b FROM " +
                           g.relation(rel).name,
                       "cuboid");
    BinSpec spec;
    spec.feature = f;
    spec.min = mm->GetValue(0, 0).AsDouble();
    double max = mm->GetValue(0, 1).AsDouble();
    spec.width = (max - spec.min) / static_cast<double>(params.max_bin);
    if (spec.width <= 0) spec.width = 1;
    specs.push_back(spec);
  }
  auto bin_expr = [&](const BinSpec& s) {
    return "LEAST(INT((" + s.feature + " - " + DoubleLiteral(s.min) + ") / " +
           DoubleLiteral(s.width) + "), " + std::to_string(params.max_bin - 1) +
           ")";
  };

  // 2. Materialize the cuboid: GROUP BY all binned features over the join
  // with variance semi-ring aggregates (c, s, q) on Y.
  const std::string& y =
      g.relation(g.YRelation()).y_column;
  std::string cuboid = "jb_cuboid";
  db.catalog().DropIfExists(cuboid);
  {
    std::ostringstream sql;
    sql << "CREATE TABLE " << cuboid << " AS SELECT ";
    for (size_t i = 0; i < specs.size(); ++i) {
      sql << bin_expr(specs[i]) << " AS " << specs[i].feature << ", ";
    }
    sql << "COUNT(*) AS c, SUM(" << y << ") AS s, SUM(" << y << " * " << y
        << ") AS q";
    std::string join = core::FullJoinSql(dataset);
    // Reuse only the FROM part of the full join; rebuild with group by.
    size_t from_pos = join.find(" FROM ");
    sql << join.substr(from_pos) << " GROUP BY ";
    for (size_t i = 0; i < specs.size(); ++i) {
      if (i) sql << ", ";
      sql << bin_expr(specs[i]);
    }
    db.Execute(sql.str(), "cuboid");
  }
  out.cuboid_rows = db.catalog().Get(cuboid)->num_rows();

  // Base score = global mean; shift annotations to residual space:
  // Σ lift(y − base) = (c, s − base·c, q − 2·base·s + base²·c). This keeps
  // its own term order: VarianceSqlGen::UpdateQ's (q + base²·c − 2·base·s)
  // rounds differently.
  auto tot = db.Query("SELECT SUM(c) AS c, SUM(s) AS s FROM " + cuboid,
                      "cuboid");
  double total_c = tot->GetValue(0, 0).AsDouble();
  double base = total_c > 0 ? tot->GetValue(0, 1).AsDouble() / total_c : 0;
  db.Execute("UPDATE " + cuboid + " SET s = s - " + DoubleLiteral(base) +
                 " * c, q = q - " + DoubleLiteral(2 * base) + " * s + " +
                 DoubleLiteral(base * base) + " * c",
             "cuboid");
  out.cuboid_seconds = timer.Seconds();

  // 3. Train over the cuboid as a single weighted relation.
  timer.Reset();
  graph::JoinGraph mini;
  mini.AddRelation(cuboid, features, "");
  // The grower needs a Y-ish relation only for aggregates; bind annotations
  // directly.
  FactorizerOptions fopts;
  fopts.cache_messages = true;
  fopts.track_q = true;
  fopts.temp_prefix = "jb_cuboid_msg_";
  Factorizer fac(&db, &mini, fopts);
  RelationBinding binding;
  binding.table = cuboid;
  binding.annotated = true;
  binding.has_c = true;
  fac.BindRelation(0, binding);

  core::TrainParams tree_params = params;
  core::TreeGrower grower(&fac, tree_params);

  core::Ensemble& model = out.model;
  model.base_score = base;
  model.average = false;

  auto rmse_now = [&]() {
    auto r = db.Query("SELECT SUM(q) AS q, SUM(c) AS c FROM " + cuboid,
                      "cuboid");
    double qv = r->GetValue(0, 0).AsDouble();
    double cv = r->GetValue(0, 1).AsDouble();
    return cv > 0 ? std::sqrt(std::max(0.0, qv / cv)) : 0.0;
  };
  out.rmse_curve.push_back(rmse_now());

  for (int iter = 0; iter < params.num_iterations; ++iter) {
    core::GrowthResult grown = grower.Grow(features, 0, nullptr);
    for (const auto& leaf : grown.leaves) {
      grown.tree.nodes[static_cast<size_t>(leaf.node)].prediction =
          params.learning_rate * leaf.raw_value;
    }
    // Weighted residual update: (c,s,q) ⊗ lift(−δ) per leaf.
    for (const auto& leaf : grown.leaves) {
      double delta = params.learning_rate * leaf.raw_value;
      std::string cond;
      if (const auto* preds = leaf.preds.For(0)) {
        for (const auto& p : *preds) {
          if (!cond.empty()) cond += " AND ";
          cond += "(" + p + ")";
        }
      }
      std::string sql =
          "UPDATE " + cuboid +
          " SET s = " + semiring::VarianceSqlGen::UpdateS("s", "c", delta) +
          ", q = " + semiring::VarianceSqlGen::UpdateQ("q", "s", "c", delta);
      if (!cond.empty()) sql += " WHERE " + cond;
      db.Execute(sql, "update");
    }
    fac.BumpEpoch(0);
    model.trees.push_back(std::move(grown.tree));
    out.rmse_curve.push_back(rmse_now());
  }
  out.train_seconds = timer.Seconds();
  db.catalog().DropIfExists(cuboid);

  // Model thresholds live in bin space: translate back to raw feature space
  // so the returned model predicts on raw rows (threshold = upper edge).
  for (auto& tree : model.trees) {
    for (auto& node : tree.nodes) {
      if (node.is_leaf) continue;
      for (const auto& spec : specs) {
        if (spec.feature == node.feature) {
          node.threshold = spec.min + (node.threshold + 1.0) * spec.width;
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace factor
}  // namespace joinboost
