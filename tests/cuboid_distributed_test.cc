#include <gtest/gtest.h>

#include "core/distributed.h"
#include "data/generators.h"
#include "factor/cuboid.h"
#include "joinboost.h"

namespace joinboost {
namespace {

data::FavoritaConfig TinyConfig() {
  data::FavoritaConfig config;
  config.sales_rows = 4000;
  config.num_items = 50;
  config.num_stores = 8;
  config.num_dates = 40;
  config.extra_features_per_dim = 0;
  return config;
}

TEST(CuboidTest, CuboidTrainingConvergesAndShrinksData) {
  exec::Database db(EngineProfile::DSwap());
  Dataset ds = data::MakeFavorita(&db, TinyConfig());

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 8;
  params.num_leaves = 8;
  params.learning_rate = 0.3;
  params.max_bin = 8;
  factor::CuboidResult res = factor::TrainCuboidGbdt(ds, params);

  EXPECT_LT(res.cuboid_rows, 4000u);  // far fewer groups than fact rows
  ASSERT_EQ(res.rmse_curve.size(), 9u);
  EXPECT_LT(res.rmse_curve.back(), res.rmse_curve.front());
  for (size_t i = 1; i < res.rmse_curve.size(); ++i) {
    EXPECT_LE(res.rmse_curve[i], res.rmse_curve[i - 1] + 1e-9);
  }

  // The returned model predicts in raw feature space.
  core::JoinedEval eval = core::MaterializeJoin(ds);
  double rmse_eval = eval.Rmse(res.model);
  // Cuboid-internal rmse and row-level rmse agree (same residuals).
  EXPECT_NEAR(rmse_eval, res.rmse_curve.back(),
              0.05 * res.rmse_curve.back() + 1e-6);
}

TEST(CuboidTest, MoreBinsMoreGroups) {
  exec::Database db(EngineProfile::DSwap());
  Dataset ds = data::MakeFavorita(&db, TinyConfig());
  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 2;
  params.num_leaves = 4;
  params.max_bin = 4;
  size_t rows4 = factor::TrainCuboidGbdt(ds, params).cuboid_rows;
  params.max_bin = 16;
  size_t rows16 = factor::TrainCuboidGbdt(ds, params).cuboid_rows;
  EXPECT_LT(rows4, rows16);
}

TEST(DistributedTest, MatchesSingleNodeModel) {
  // The distributed trainer merges exact per-shard aggregates, so its model
  // must match the single-node factorized model.
  exec::Database db(EngineProfile::DSwap());
  data::TpcdsConfig config;
  config.scale_factor = 0.2;
  config.base_fact_rows = 20000;
  config.num_features = 10;
  Dataset ds = data::MakeTpcds(&db, config);

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 4;
  params.num_leaves = 4;
  params.learning_rate = 0.3;

  TrainResult single = Train(params, ds);

  core::DistributedConfig dconf;
  dconf.num_workers = 3;
  dconf.network_latency_s = 0;  // don't model time in a correctness test
  core::DistributedTrainer trainer(ds, dconf);
  core::DistributedResult dist = trainer.Train(params);

  ASSERT_EQ(single.model.trees.size(), dist.model.trees.size());
  EXPECT_NEAR(single.model.base_score, dist.model.base_score, 1e-9);
  for (size_t t = 0; t < single.model.trees.size(); ++t) {
    const auto& a = single.model.trees[t];
    const auto& b = dist.model.trees[t];
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "tree " << t;
    for (size_t n = 0; n < a.nodes.size(); ++n) {
      EXPECT_EQ(a.nodes[n].feature, b.nodes[n].feature)
          << "tree " << t << " node " << n;
      if (!a.nodes[n].is_leaf) {
        EXPECT_NEAR(a.nodes[n].threshold, b.nodes[n].threshold, 1e-9);
      } else {
        EXPECT_NEAR(a.nodes[n].prediction, b.nodes[n].prediction, 1e-7);
      }
    }
  }
}

TEST(DistributedTest, HonoursMaxDepth) {
  // With max_depth = 2 the single-node trainer stops at two levels of splits
  // even though num_leaves allows more; the distributed trees must too.
  exec::Database db(EngineProfile::DSwap());
  data::TpcdsConfig config;
  config.scale_factor = 0.2;
  config.base_fact_rows = 20000;
  config.num_features = 10;
  Dataset ds = data::MakeTpcds(&db, config);

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 2;
  params.num_leaves = 8;
  params.max_depth = 2;
  params.learning_rate = 0.3;

  TrainResult single = Train(params, ds);

  core::DistributedConfig dconf;
  dconf.num_workers = 3;
  dconf.network_latency_s = 0;
  core::DistributedTrainer trainer(ds, dconf);
  core::DistributedResult dist = trainer.Train(params);

  ASSERT_EQ(single.model.trees.size(), dist.model.trees.size());
  for (size_t t = 0; t < single.model.trees.size(); ++t) {
    const auto& a = single.model.trees[t];
    const auto& b = dist.model.trees[t];
    EXPECT_LE(a.MaxDepth(), 3u) << "tree " << t;  // root + two split levels
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "tree " << t;
    for (size_t n = 0; n < a.nodes.size(); ++n) {
      EXPECT_EQ(a.nodes[n].feature, b.nodes[n].feature)
          << "tree " << t << " node " << n;
      if (!a.nodes[n].is_leaf) {
        EXPECT_NEAR(a.nodes[n].threshold, b.nodes[n].threshold, 1e-9);
      } else {
        EXPECT_NEAR(a.nodes[n].prediction, b.nodes[n].prediction, 1e-7);
      }
    }
  }
}

TEST(DistributedTest, ShuffleCostGrowsWithWorkers) {
  exec::Database db(EngineProfile::DSwap());
  data::TpcdsConfig config;
  config.scale_factor = 0.1;
  config.base_fact_rows = 10000;
  config.num_features = 6;
  Dataset ds = data::MakeTpcds(&db, config);

  core::TrainParams params;
  params.boosting = "dt";
  params.num_leaves = 4;

  double shuffle1, shuffle4;
  {
    core::DistributedConfig c;
    c.num_workers = 1;
    core::DistributedTrainer t(ds, c);
    shuffle1 = t.Train(params).shuffle_seconds;
  }
  {
    core::DistributedConfig c;
    c.num_workers = 4;
    core::DistributedTrainer t(ds, c);
    shuffle4 = t.Train(params).shuffle_seconds;
  }
  EXPECT_GT(shuffle4, shuffle1);
}

TEST(DistributedTest, RejectsGalaxySchemas) {
  exec::Database db(EngineProfile::DSwap());
  data::ImdbConfig config;
  config.num_movies = 30;
  config.num_persons = 60;
  Dataset ds = data::MakeImdb(&db, config);
  core::DistributedConfig dconf;
  EXPECT_THROW(core::DistributedTrainer(ds, dconf), JbError);
}

}  // namespace
}  // namespace joinboost
