#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "joinboost.h"
#include "test_util.h"

namespace joinboost {
namespace {

// Inputs the data generators never produce. Each must end in a correct model
// or a typed error naming the offending column, never in a crash or a
// silently wrong model.

TEST(HostileInputTest, NegativeInfinityFeatureTrainsFinitePredictions) {
  exec::Database db(EngineProfile::DSwap());
  test_util::BuildSmallSnowflake(&db, 5, 400);
  // The -Inf rows get a far larger target, so a split isolates them at
  // threshold -Inf, and the generated SQL has to spell that literal.
  db.Execute("UPDATE fact SET x0 = (-1e999), y = y + 1000 WHERE k1 < 4");
  Dataset ds = test_util::MakeSnowflakeDataset(&db);
  core::TrainParams params;
  params.num_iterations = 3;
  params.num_leaves = 4;
  TrainResult res = Train(params, ds);

  bool split_at_neg_inf = false;
  for (const auto& tree : res.model.trees) {
    for (const auto& node : tree.nodes) {
      if (!node.is_leaf && node.feature == "x0" && std::isinf(node.threshold) &&
          node.threshold < 0) {
        split_at_neg_inf = true;
      }
    }
  }
  EXPECT_TRUE(split_at_neg_inf);
  core::JoinedEval eval = core::MaterializeJoin(ds);
  for (size_t r = 0; r < eval.rows(); ++r) {
    ASSERT_TRUE(std::isfinite(eval.Predict(res.model, r))) << "row " << r;
  }
}

TEST(HostileInputTest, NonFiniteTargetIsRejected) {
  // NaN (the float NULL), +Inf and -Inf, each on a few fact rows.
  for (const char* bad : {"1e999 - 1e999", "1e999", "(-1e999)"}) {
    SCOPED_TRACE(bad);
    exec::Database db(EngineProfile::DSwap());
    test_util::BuildSmallSnowflake(&db, 3, 200);
    db.Execute(std::string("UPDATE fact SET y = ") + bad + " WHERE k1 = 2");
    Dataset ds = test_util::MakeSnowflakeDataset(&db);
    core::TrainParams params;
    params.num_iterations = 2;
    try {
      Train(params, ds);
      ADD_FAILURE() << "training accepted a non-finite target";
    } catch (const JbError& e) {
      EXPECT_NE(std::string(e.what()).find("fact.y"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace joinboost
