#include "core/forest.h"

#include <algorithm>
#include <mutex>

#include "util/check.h"
#include "util/rng.h"

namespace joinboost {
namespace core {

DecisionTree::DecisionTree(Session* session, TrainParams params)
    : session_(session), params_(std::move(params)) {}

Ensemble DecisionTree::Train() {
  Session& session = *session_;
  TreeGrower grower(&session.fac(), params_);
  std::vector<std::string> features = session.graph().AllFeatures();
  const std::vector<int>* clusters =
      session.is_snowflake() ? nullptr : &session.clusters();
  GrowthResult grown = grower.Grow(features, session.y_fact(), clusters);
  Ensemble model;
  model.base_score = 0;
  model.average = false;
  model.trees.push_back(std::move(grown.tree));
  return model;
}

RandomForest::RandomForest(Session* session, TrainParams params)
    : session_(session), params_(std::move(params)) {}

TreeModel RandomForest::TrainOneTree(int tree_index) {
  Session& session = *session_;
  exec::Database& db = session.db();
  int fact_rel = session.y_fact();
  const std::string& fact = session.FactTable(fact_rel);

  // Deterministic Bernoulli fact-table sample via SQL (§5.5.2 minor opt:
  // snowflake schemas sample the fact table directly).
  uint64_t seed = SplitMix64(params_.seed + static_cast<uint64_t>(tree_index));
  std::string sample =
      session.prefix() + "sample_" + std::to_string(tree_index);
  int64_t threshold =
      static_cast<int64_t>(params_.bagging_fraction * 1048576.0);
  std::string sql = "CREATE TABLE " + sample + " AS SELECT * FROM " + fact;
  if (params_.bagging_fraction < 1.0) {
    sql += " WHERE MOD(HASH(jb_rid, " +
           std::to_string(static_cast<int64_t>(seed >> 1)) + "), 1048576) < " +
           std::to_string(threshold);
  }
  db.Execute(sql, "sample");

  // Random feature subset.
  std::vector<std::string> features = session.graph().AllFeatures();
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<std::string> chosen;
  if (params_.feature_fraction < 1.0) {
    size_t want = std::max<size_t>(
        1, static_cast<size_t>(params_.feature_fraction *
                               static_cast<double>(features.size())));
    for (size_t i = features.size(); i > 1; --i) {
      std::swap(features[i - 1], features[rng.NextBounded(i)]);
    }
    chosen.assign(features.begin(),
                  features.begin() + static_cast<long>(want));
  } else {
    chosen = features;
  }

  auto fac = session.MakeFactorizer(fact_rel, sample,
                                    sample + "_msg_");
  TreeGrower grower(fac.get(), params_);
  const std::vector<int>* clusters =
      session.is_snowflake() ? nullptr : &session.clusters();
  GrowthResult grown = grower.Grow(chosen, fact_rel, clusters);
  fac.reset();
  db.Execute("DROP TABLE " + sample, "sample");
  return std::move(grown.tree);
}

Ensemble RandomForest::Train() {
  Ensemble model;
  model.base_score = 0;
  model.average = true;
  model.trees.resize(static_cast<size_t>(params_.num_iterations));
  // Referential completeness into the fact, checked once over the whole
  // (lifted) fact before any tree starts: each tree's factorizer adopts the
  // complete answers, which hold for its sample too.
  session_->fac().CheckRefCompleteInto(session_->y_fact());
  if (params_.inter_query_parallelism) {
    // Tree-wise parallelism (§5.5.3): each tree has its own sample table and
    // factorizer; the engine serializes catalog access internally.
    session_->db().pool().ParallelFor(model.trees.size(), [&](size_t t) {
      if (params_.guard != nullptr) params_.guard->Check();
      model.trees[t] = TrainOneTree(static_cast<int>(t));
    });
  } else {
    for (size_t t = 0; t < model.trees.size(); ++t) {
      if (params_.guard != nullptr) params_.guard->Check();
      model.trees[t] = TrainOneTree(static_cast<int>(t));
    }
  }
  return model;
}

}  // namespace core
}  // namespace joinboost
