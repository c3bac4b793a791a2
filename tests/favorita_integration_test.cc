#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "baselines/dense_dataset.h"
#include "baselines/histogram_gbdt.h"
#include "data/generators.h"
#include "joinboost.h"
#include "split_oracle.h"
#include "test_util.h"

namespace joinboost {
namespace {

using test_util::TinyFavorita;

TEST(FavoritaIntegrationTest, GbdtMatchesHistogramBaselineRmse) {
  exec::Database db(EngineProfile::DSwap());
  Dataset ds = data::MakeFavorita(&db, TinyFavorita());

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 10;
  params.num_leaves = 8;
  params.learning_rate = 0.2;

  TrainResult jb = Train(params, ds);

  baselines::ExportStats export_stats;
  baselines::DenseDataset dense =
      baselines::MaterializeExportLoad(ds, &export_stats);
  // Exact-mode baseline: bins cover all distinct values.
  core::TrainParams lgbm = params;
  lgbm.max_bin = 1 << 20;
  baselines::HistogramGbdt trainer(lgbm);
  core::Ensemble baseline = trainer.Train(dense);

  core::JoinedEval eval = core::MaterializeJoin(ds);
  double rmse_jb = eval.Rmse(jb.model);
  double rmse_lgbm = eval.Rmse(baseline);

  // Same greedy algorithm, same gain formula, same data => same quality
  // (paper Fig 8c: "the final rmse is nearly identical").
  EXPECT_NEAR(rmse_jb, rmse_lgbm, 1e-6 * std::max(1.0, rmse_lgbm));
  // And both must actually learn something.
  double rmse_base = eval.RmseCurve(jb.model)[0];
  EXPECT_LT(rmse_jb, 0.9 * rmse_base);
}

// track_q asks for the variance semi-ring's q component. A non-rmse
// objective trains over the (h, g) gradient semi-ring, which has none, so
// the flag must change neither the statements nor the model.
TEST(FavoritaIntegrationTest, TrackQLeavesGradientObjectiveUnchanged) {
  const std::regex session_prefix("jb[0-9]+_");
  for (const std::string strategy : {"update", "create", "swap", "naive_u"}) {
    std::string model[2];
    std::vector<std::string> log[2];
    for (int q = 0; q < 2; ++q) {
      exec::Database db(EngineProfile::DSwap());
      Dataset ds = data::MakeFavorita(&db, TinyFavorita());
      db.ClearQueryLog();
      core::TrainParams params;
      params.objective = "huber";
      params.num_iterations = 2;
      params.num_leaves = 4;
      params.update_strategy = strategy;
      params.track_q = q == 1;
      model[q] = Train(params, ds).model.ToString();
      // Session names carry a process-wide counter: jb<N>_ -> jb_.
      for (const auto& e : db.QueryLog()) {
        log[q].push_back(std::regex_replace(e.sql, session_prefix, "jb_"));
      }
    }
    EXPECT_EQ(model[0], model[1]) << strategy;
    EXPECT_EQ(log[0], log[1]) << strategy;
  }
}

TEST(FavoritaIntegrationTest, RandomForestLearnsAndParallelMatches) {
  exec::Database db(EngineProfile::DSwap());
  Dataset ds = data::MakeFavorita(&db, TinyFavorita());

  core::TrainParams params;
  params.boosting = "rf";
  params.num_iterations = 8;
  params.num_leaves = 8;
  params.bagging_fraction = 0.5;
  params.feature_fraction = 0.8;

  TrainResult serial = Train(params, ds);

  Dataset ds2 = data::MakeFavorita(
      &db, [] {
        auto c = TinyFavorita();
        return c;
      }());
  // Same DB already holds the tables; reuse the dataset definition instead.
  params.inter_query_parallelism = true;
  TrainResult parallel = Train(params, ds);

  core::JoinedEval eval = core::MaterializeJoin(ds);
  double rmse_serial = eval.Rmse(serial.model);
  double rmse_parallel = eval.Rmse(parallel.model);
  // Deterministic hashing-based sampling: identical forests either way.
  EXPECT_NEAR(rmse_serial, rmse_parallel, 1e-9);
  ASSERT_EQ(serial.model.trees.size(), parallel.model.trees.size());
  for (size_t t = 0; t < serial.model.trees.size(); ++t) {
    EXPECT_EQ(serial.model.trees[t].nodes.size(),
              parallel.model.trees[t].nodes.size());
  }
  (void)ds2;
}

// rf checks referential completeness into the fact once, over the whole
// fact, before any tree starts; each tree's factorizer adopts the complete
// answers, since a sample of a complete fact is complete. A 12k-row rf 4x8
// used to run one anti-join per dimension per tree (20).
TEST(FavoritaIntegrationTest, RandomForestChecksCompletenessOnce) {
  core::Ensemble models[2];
  for (int parallel = 0; parallel < 2; ++parallel) {
    SCOPED_TRACE(parallel ? "inter-query parallel" : "serial");
    exec::Database db(EngineProfile::DSwap());
    data::FavoritaConfig config;
    config.sales_rows = 12000;
    Dataset ds = data::MakeFavorita(&db, config);
    db.ClearQueryLog();
    core::TrainParams params;
    params.boosting = "rf";
    params.num_iterations = 4;
    params.num_leaves = 8;
    params.inter_query_parallelism = parallel == 1;
    models[parallel] = Train(params, ds).model;
    size_t anti_joins = 0;
    for (const auto& e : db.QueryLog()) {
      anti_joins += e.sql.find(" ANTI JOIN ") != std::string::npos ? 1 : 0;
    }
    EXPECT_EQ(anti_joins, 5u);
  }
  test_util::ExpectModelsBitIdentical(models[0], models[1], "rf");
}

TEST(FavoritaIntegrationTest, CompositeKeyTransactionsSelectorWorks) {
  // Splitting on f_trans exercises the composite (store_id, date_id)
  // selector path in residual updates.
  exec::Database db(EngineProfile::DSwap());
  auto config = TinyFavorita();
  config.extra_features_per_dim = 0;
  Dataset ds = data::MakeFavorita(&db, config);

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 6;
  params.num_leaves = 4;
  params.learning_rate = 0.3;
  TrainResult res = Train(params, ds);

  bool split_on_trans = false;
  for (const auto& tree : res.model.trees) {
    for (const auto& n : tree.nodes) {
      if (!n.is_leaf && n.feature == "f_trans") split_on_trans = true;
    }
  }
  EXPECT_TRUE(split_on_trans) << "f_trans (squared term) should be chosen";

  core::JoinedEval eval = core::MaterializeJoin(ds);
  auto curve = eval.RmseCurve(res.model);
  EXPECT_LT(curve.back(), curve.front());
}

TEST(FavoritaIntegrationTest, Figure9QueryMix) {
  // The paper counts 270 feature-split queries (15 nodes x 18 features) and
  // 75 message queries for one 8-leaf tree on Favorita: one window query per
  // node per feature. This repo issues one GROUPING SETS histogram statement
  // per queried node per relation that carries features. Of an 8-leaf
  // tree's 15 nodes, the root and the smaller child of each of the first six
  // splits are queried; each larger child's histograms are its parent's
  // minus its sibling's (rmse's c counts rows), and the seventh split fills
  // the tree, so its children are never evaluated. That is 1 + 6 = 7 x
  // (feature relations) split queries.
  exec::Database db(EngineProfile::DSwap());
  Dataset ds = data::MakeFavorita(&db, TinyFavorita());

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 1;
  params.num_leaves = 8;
  TrainResult res = Train(params, ds);

  std::set<int> feature_rels;
  for (const auto& f : ds.graph().AllFeatures()) {
    feature_rels.insert(ds.graph().RelationOfFeature(f));
  }
  EXPECT_LT(feature_rels.size(), ds.graph().AllFeatures().size());
  EXPECT_EQ(res.feature_queries, 7 * feature_rels.size());
  EXPECT_GT(res.message_queries, 0u);
  EXPECT_GT(res.cache_hits, 0u);
  EXPECT_TRUE(split_oracle::CheckModel(res.model, ds, params));
}

/// One fact pass per queried node. A node's message toward the relation its
/// split predicate is on borrows that relation's selector, so it has the
/// input of the node's other fact messages and joins their GROUPING SETS
/// scan. Each tree queries 7 nodes (Figure9QueryMix) and computes its total
/// once, so it reads the fact in 1 + 7 message statements, none of them a
/// single-message GROUP BY (without borrowing a tree read it in 18).
TEST(FavoritaIntegrationTest, OneFactScanPerQueriedNode) {
  exec::Database db(EngineProfile::DSwap());
  Dataset ds = data::MakeFavorita(&db, TinyFavorita());
  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 2;
  params.num_leaves = 8;
  db.ClearQueryLog();
  TrainResult res = Train(params, ds);

  const std::regex fact_scan("FROM jb[0-9]+_lift_sales( |$)");
  size_t totals = 0, shared = 0, single = 0;
  for (const auto& e : db.QueryLog()) {
    if (e.tag != "message" || !std::regex_search(e.sql, fact_scan)) continue;
    if (e.sql.find("GROUPING SETS") != std::string::npos) {
      ++shared;
    } else if (e.sql.find("GROUP BY") != std::string::npos) {
      ++single;
    } else {
      ++totals;
    }
  }
  const size_t trees = static_cast<size_t>(params.num_iterations);
  EXPECT_EQ(totals, trees * 1);
  EXPECT_EQ(shared, trees * 7);
  EXPECT_EQ(single, 0u);
  EXPECT_TRUE(split_oracle::CheckModel(res.model, ds, params));
}

/// The split oracle on both sides of the sibling-subtraction rule, over
/// gradients and hessians it derives from each loss itself. Under huber h
/// is 1, so c counts rows and each split queries only its smaller child:
/// 7 of an 8-leaf tree's 15 nodes, as in Figure9QueryMix. Under fair c is a
/// hessian sum, so both children of the first six splits are queried:
/// 1 + 2 x 6 = 13 nodes. Fair's c of 100 keeps each leaf's hessian sum
/// above min_data_in_leaf, so its trees fill too.
TEST(FavoritaIntegrationTest, GradientObjectivesPassSplitOracle) {
  struct Case {
    const char* objective;
    double param;
    size_t queried_nodes;
  };
  const Case cases[] = {{"huber", 0, 7}, {"fair", 100, 13}};
  for (const auto& [objective, param, queried_nodes] : cases) {
    SCOPED_TRACE(objective);
    exec::Database db(EngineProfile::DSwap());
    Dataset ds = data::MakeFavorita(&db, TinyFavorita());
    core::TrainParams params;
    params.objective = objective;
    params.objective_param = param;
    params.boosting = "gbdt";
    params.num_iterations = 2;
    params.num_leaves = 8;
    TrainResult res = Train(params, ds);

    std::set<int> feature_rels;
    for (const auto& f : ds.graph().AllFeatures()) {
      feature_rels.insert(ds.graph().RelationOfFeature(f));
    }
    for (const auto& tree : res.model.trees) EXPECT_EQ(tree.NumLeaves(), 8u);
    EXPECT_EQ(res.feature_queries,
              params.num_iterations * queried_nodes * feature_rels.size());
    EXPECT_TRUE(split_oracle::CheckModel(res.model, ds, params));
  }
}

}  // namespace
}  // namespace joinboost
