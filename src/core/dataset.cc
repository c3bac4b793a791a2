#include "core/dataset.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace joinboost {

namespace {

/// True when no value of `col` is NULL, NaN or infinite.
bool AllFinite(const ColumnData& col) {
  if (col.type() == TypeId::kFloat64) {
    const auto v = col.ScanDoubles();
    return std::all_of(v->begin(), v->end(),
                       [](double d) { return std::isfinite(d); });
  }
  const auto v = col.ScanInts();
  return std::find(v->begin(), v->end(), kNullInt64) == v->end();
}

/// True when some value of `col` is NULL (NaN for floats).
bool HoldsNull(const ColumnData& col) {
  if (col.type() == TypeId::kFloat64) {
    const auto v = col.ScanDoubles();
    return std::any_of(v->begin(), v->end(),
                       [](double d) { return std::isnan(d); });
  }
  const auto v = col.ScanInts();
  return std::find(v->begin(), v->end(), kNullInt64) != v->end();
}

}  // namespace

void Dataset::AddTable(const std::string& table,
                       std::vector<std::string> features,
                       const std::string& y_column) {
  graph_.AddRelation(table, std::move(features), y_column);
  prepared_ = false;
}

void Dataset::AddJoin(const std::string& t1, const std::string& t2,
                      std::vector<std::string> keys) {
  graph_.AddEdge(t1, t2, std::move(keys));
  prepared_ = false;
}

void Dataset::Prepare() {
  if (prepared_) return;
  JB_CHECK_MSG(graph_.num_relations() > 0, "empty dataset");
  JB_CHECK_MSG(graph_.IsTree(),
               "the join graph must be acyclic and connected (a tree); "
               "apply hypertree decomposition / pre-join cycles first");

  // Validate columns and collect cardinalities.
  for (size_t i = 0; i < graph_.num_relations(); ++i) {
    auto& rel = graph_.relation(static_cast<int>(i));
    TablePtr table = db_->catalog().Get(rel.name);
    rel.num_rows = table->num_rows();
    rel.null_features.clear();
    for (const auto& f : rel.features) {
      JB_CHECK_MSG(table->schema().HasField(f),
                   "feature " << f << " missing from " << rel.name);
      if (HoldsNull(*table->column(f))) rel.null_features.push_back(f);
    }
    if (!rel.y_column.empty()) {
      JB_CHECK_MSG(table->schema().HasField(rel.y_column),
                   "target " << rel.y_column << " missing from " << rel.name);
      // A NULL (NaN) target drops out of SUM(s) but still counts in SUM(1),
      // and an infinite one poisons every aggregate: either trains a wrong
      // model without an error, so reject both here.
      if (!AllFinite(*table->column(rel.y_column))) {
        JB_THROW("target " << rel.name << "." << rel.y_column
                           << " holds NULL, NaN or infinite values");
      }
    }
  }

  // Edge-key uniqueness on each side, via SQL (COUNT DISTINCT == COUNT).
  for (size_t e = 0; e < graph_.edges().size(); ++e) {
    auto& edge = graph_.edge(static_cast<int>(e));
    auto unique_side = [&](int rel_id) {
      const auto& rel = graph_.relation(rel_id);
      std::string keys;
      for (size_t k = 0; k < edge.keys.size(); ++k) {
        if (k) keys += ", ";
        keys += edge.keys[k];
      }
      double distinct = db_->QueryScalarDouble(
          "SELECT COUNT(*) AS c FROM (SELECT DISTINCT " + keys + " FROM " +
              rel.name + ")",
          "setup");
      return distinct == static_cast<double>(rel.num_rows);
    };
    edge.unique_a = unique_side(edge.a);
    edge.unique_b = unique_side(edge.b);
  }
  prepared_ = true;
}

}  // namespace joinboost
