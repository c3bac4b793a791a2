// Split search: one GROUPING SETS histogram query per relation per queried
// leaf and a C++ threshold kernel. Full trains must pass the independent
// split oracle (split_oracle.h) and be bit-identical across {planner on/off}
// x {1, N threads}, and must issue one split query per relation per queried
// leaf. A histogram derived by sibling subtraction must equal the child's
// own query. Plus unit coverage of the BestSplitFromHistogram kernel's rules.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/split.h"
#include "core/trainer.h"
#include "data/generators.h"
#include "joinboost.h"
#include "split_oracle.h"
#include "storage/table.h"
#include "test_util.h"
#include "util/rng.h"

namespace joinboost {
namespace {

using exec::Database;

EngineProfile Profile(bool use_planner, int threads) {
  EngineProfile p = EngineProfile::DSwap();
  p.use_planner = use_planner;
  p.exec_threads = threads;
  // Shrink morsel knobs so test-sized inputs genuinely fan out.
  p.morsel_rows = 256;
  p.parallel_threshold_rows = 64;
  return p;
}

/// Snowflake with a categorical dimension feature, so both kernel paths
/// (window prefix sums and equality splits) are exercised end to end. The
/// target rises by 5 with category cats[0] and by `second_effect` with
/// cats[1]. With `null_every` > 0, every such fact row's x0 is NULL.
void BuildCatSnowflake(Database* db, uint64_t seed, size_t rows,
                       const std::vector<std::string>& cats = {"red", "green",
                                                               "blue", "teal"},
                       double second_effect = 0.0, size_t null_every = 0) {
  Rng rng(seed);
  const int64_t kD1 = 13, kD2 = 7;
  std::vector<int64_t> k1(rows), k2(rows);
  std::vector<double> x0(rows), y(rows);
  std::vector<int64_t> d1k, d2k;
  std::vector<double> f1, f2;
  std::vector<std::string> g1;
  for (int64_t i = 0; i < kD1; ++i) {
    d1k.push_back(i);
    f1.push_back(static_cast<double>(rng.NextInt(1, 500)));
    g1.push_back(cats[static_cast<size_t>(rng.NextInt(0, 3))]);
  }
  for (int64_t i = 0; i < kD2; ++i) {
    d2k.push_back(i);
    f2.push_back(static_cast<double>(rng.NextInt(1, 500)));
  }
  for (size_t i = 0; i < rows; ++i) {
    k1[i] = rng.NextInt(0, kD1 - 1);
    k2[i] = rng.NextInt(0, kD2 - 1);
    x0[i] = rng.NextDouble() * 8;
    const std::string& g = g1[static_cast<size_t>(k1[i])];
    double cat_effect =
        g == cats[0] ? 5.0 : (g == cats[1] ? second_effect : 0.0);
    y[i] = 2.0 * x0[i] + cat_effect + 0.01 * f1[static_cast<size_t>(k1[i])] -
           0.015 * f2[static_cast<size_t>(k2[i])] + rng.NextGaussian();
    if (null_every > 0 && i % null_every == 0) x0[i] = NullFloat64();
  }
  db->RegisterTable(TableBuilder("fact")
                        .AddInts("k1", k1)
                        .AddInts("k2", k2)
                        .AddDoubles("x0", x0)
                        .AddDoubles("y", y)
                        .Build());
  db->RegisterTable(TableBuilder("d1")
                        .AddInts("k1", d1k)
                        .AddDoubles("f1", f1)
                        .AddStrings("g1", g1)
                        .Build());
  db->RegisterTable(
      TableBuilder("d2").AddInts("k2", d2k).AddDoubles("f2", f2).Build());
}

Dataset MakeCatDataset(Database* db) {
  Dataset ds(db);
  ds.AddTable("fact", {"x0"}, "y");
  ds.AddTable("d1", {"f1", "g1"});
  ds.AddTable("d2", {"f2"});
  ds.AddJoin("fact", "d1", {"k1"});
  ds.AddJoin("fact", "d2", {"k2"});
  return ds;
}

/// Full gbdt trains with the planner on or off and for 1 or N threads: each
/// model passes the split oracle and is bit-identical to the first one.
TEST(BatchedSplitTest, ConfigsAgreeAndPassSplitOracle) {
  struct Config {
    bool planner;
    int threads;
  };
  const Config configs[] = {{true, 1}, {true, 4}, {false, 1}, {false, 4}};
  core::Ensemble first;
  for (const Config& c : configs) {
    std::string label = std::string("planner=") + (c.planner ? "on" : "off") +
                        " threads=" + std::to_string(c.threads);
    Database db(Profile(c.planner, c.threads));
    BuildCatSnowflake(&db, /*seed=*/2024, /*rows=*/4000);
    Dataset ds = MakeCatDataset(&db);
    core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = 3;
    params.num_leaves = 5;
    TrainResult res = Train(params, ds);
    EXPECT_TRUE(split_oracle::CheckModel(res.model, ds, params)) << label;
    if (&c == &configs[0]) {
      first = std::move(res.model);
    } else {
      test_util::ExpectModelsBitIdentical(first, res.model, label);
    }
  }
}

/// Regression pin: split queries per leaf evaluation equal the number of
/// relations carrying candidate features, not the number of features
/// (TreeGrower::split_queries()).
TEST(BatchedSplitTest, SplitQueriesPerLeafIsRelationCount) {
  Database db(Profile(/*use_planner=*/true, /*threads=*/1));
  BuildCatSnowflake(&db, /*seed=*/7, /*rows=*/2000);
  Dataset ds = MakeCatDataset(&db);
  std::vector<std::string> features = ds.graph().AllFeatures();
  std::set<int> rels;
  for (const auto& f : features) rels.insert(ds.graph().RelationOfFeature(f));
  ASSERT_GT(features.size(), rels.size()) << "need multi-feature relations";

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_leaves = 2;
  params.max_depth = 1;  // children at depth 1 are never evaluated
  params.num_iterations = 1;
  core::Session session(&ds, params);
  session.Prepare();
  core::TreeGrower grower(&session.fac(), params);
  grower.Grow(features, session.y_fact(), nullptr);
  // Exactly one leaf (the root) is evaluated: split_queries() is the
  // per-leaf query count.
  EXPECT_EQ(grower.split_queries(), rels.size());
  session.Cleanup();
}

/// On a fact large enough for its histogram to join the leaf's shared
/// message scan (the histogram is read back from the shared table), every
/// config's model passes the split oracle and matches the first one bit for
/// bit.
TEST(BatchedSplitTest, SharedHistogramScanPassesSplitOracle) {
  struct Config {
    bool planner;
    int threads;
  };
  const Config configs[] = {{true, 1}, {true, 4}, {false, 4}};
  core::Ensemble first;
  for (const Config& c : configs) {
    std::string label = std::string("planner=") + (c.planner ? "on" : "off") +
                        " threads=" + std::to_string(c.threads);
    Database db(Profile(c.planner, c.threads));
    BuildCatSnowflake(&db, /*seed=*/99, /*rows=*/9000);
    Dataset ds = MakeCatDataset(&db);
    core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = 2;
    params.num_leaves = 5;
    core::Ensemble model = Train(params, ds).model;
    size_t shared_reads = 0;
    for (const auto& e : db.QueryLog()) {
      const bool shared = e.sql.find("_sets WHERE") != std::string::npos;
      if (e.tag == "feature" && shared) ++shared_reads;
    }
    EXPECT_GT(shared_reads, 0u) << label << ": no histogram shared a scan";
    EXPECT_TRUE(split_oracle::CheckModel(model, ds, params)) << label;
    if (&c == &configs[0]) {
      first = std::move(model);
    } else {
      test_util::ExpectModelsBitIdentical(first, model, label);
    }
  }
}

/// Category values holding quotes are spliced into split predicates as
/// escaped SQL literals: training must neither fail to parse them nor read
/// an injected condition, so the trees equal those over quote-free names.
TEST(BatchedSplitTest, QuotedCategoriesTrainLikeQuoteFreeOnes) {
  const std::vector<std::string> quoted = {"O'Brien", "x' OR '1'='1", "blue",
                                           "teal"};
  const std::vector<std::string> plain = {"OBrien", "x OR 1=1", "blue",
                                          "teal"};
  core::Ensemble models[2];
  for (int q = 0; q < 2; ++q) {
    Database db(Profile(/*use_planner=*/true, /*threads=*/1));
    BuildCatSnowflake(&db, /*seed=*/21, /*rows=*/3000, q == 0 ? quoted : plain,
                      /*second_effect=*/-4.0);
    Dataset ds = MakeCatDataset(&db);
    core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = 3;
    params.num_leaves = 6;
    models[q] = Train(params, ds).model;
  }
  std::set<std::string> split_on;
  ASSERT_EQ(models[0].trees.size(), models[1].trees.size());
  for (size_t t = 0; t < models[0].trees.size(); ++t) {
    const auto& a = models[0].trees[t].nodes;
    const auto& b = models[1].trees[t].nodes;
    ASSERT_EQ(a.size(), b.size()) << "tree " << t;
    for (size_t n = 0; n < a.size(); ++n) {
      SCOPED_TRACE("tree " + std::to_string(t) + " node " + std::to_string(n));
      EXPECT_EQ(a[n].is_leaf, b[n].is_leaf);
      EXPECT_EQ(a[n].feature, b[n].feature);
      EXPECT_EQ(a[n].threshold, b[n].threshold);
      EXPECT_EQ(a[n].category, b[n].category);
      EXPECT_EQ(a[n].prediction, b[n].prediction);
      EXPECT_EQ(a[n].count, b[n].count);
      EXPECT_EQ(a[n].sum, b[n].sum);
      if (!a[n].is_leaf && a[n].categorical) {
        for (size_t i = 0; i < quoted.size(); ++i) {
          if (a[n].category_str == quoted[i]) {
            EXPECT_EQ(b[n].category_str, plain[i]);
          }
        }
        split_on.insert(a[n].category_str);
      }
    }
  }
  // Both quoted values were split on, so both reached the SQL.
  EXPECT_EQ(split_on.count(quoted[0]), 1u);
  EXPECT_EQ(split_on.count(quoted[1]), 1u);
}

// ---------------------------------------------------------------------------
// Sibling subtraction: SubtractHistogram against each child's own query.
// ---------------------------------------------------------------------------

/// Every feature's histogram at a node with predicates `preds`, read as the
/// trainer reads them: one BatchedHistograms query per relation. The first
/// call, at the root, fills `orders`; later calls map their bins into them.
std::map<std::string, core::Histogram> QueryNodeHistograms(
    core::Session& session, const factor::PredicateSet& preds,
    std::map<std::string, core::FeatureOrder>* orders) {
  std::map<int, std::vector<std::string>> by_rel;
  for (const auto& f : session.graph().AllFeatures()) {
    by_rel[session.graph().RelationOfFeature(f)].push_back(f);
  }
  std::vector<factor::HistogramRequest> requests;
  for (const auto& [rel, feats] : by_rel) requests.push_back({rel, feats});
  const factor::LeafHistograms queries =
      session.fac().BatchedHistograms(requests, preds, "message");
  std::map<std::string, core::Histogram> out;
  const bool at_root = orders->empty();
  for (size_t j = 0; j < requests.size(); ++j) {
    const std::vector<std::string>& attrs = requests[j].attrs;
    auto res = session.db().Query(queries.sql[j], "feature");
    std::vector<core::FeatureOrder> rel_orders;
    if (at_root) {
      rel_orders = core::OrdersFromResult(
          *res, std::vector<core::FeatureOrder>(attrs.size()));
    } else {
      for (const auto& a : attrs) rel_orders.push_back(orders->at(a));
    }
    std::vector<core::Histogram> hists =
        core::HistogramsFromResult(*res, rel_orders);
    for (size_t i = 0; i < hists.size(); ++i) {
      out[attrs[i]] = std::move(hists[i]);
      (*orders)[attrs[i]] = rel_orders[i];
    }
  }
  session.fac().ReleaseShared(queries);
  return out;
}

/// What one derivation showed, per feature.
struct DerivationStats {
  /// The root's orders.
  std::map<std::string, core::FeatureOrder> orders;
  /// Slots of the parent bins whose c reached 0.
  std::map<std::string, std::set<uint32_t>> dropped;
  /// Number of bins with rows in both children.
  std::map<std::string, size_t> in_both;
};

/// Splits the root on `feature` (`f <= threshold`, or `f = category`),
/// queries the child with the smaller c (the left one on a tie) and derives
/// the other's histograms as root − smaller. Each derived histogram must
/// hold the bin set of the larger child's own query, with bit-equal counts,
/// sums within 1e-12 relative, and the bins in ascending slot order.
DerivationStats ExpectDerivationMatchesQuery(core::Session& session,
                                             const std::string& feature,
                                             double threshold,
                                             const std::string& category) {
  const graph::JoinGraph& g = session.graph();
  const int rel = g.RelationOfFeature(feature);
  const auto& nulls = g.relation(rel).null_features;
  const core::ChildPredicates child = core::SplitPredicates(
      feature, !category.empty(), threshold, category,
      std::find(nulls.begin(), nulls.end(), feature) != nulls.end());
  factor::PredicateSet root, left, right;
  left.Add(rel, child.left);
  right.Add(rel, child.right);
  const int agg = session.y_fact();
  const double c_left = session.fac().TotalAggregate(agg, left, "message").c;
  const double c_right = session.fac().TotalAggregate(agg, right, "message").c;
  EXPECT_GT(c_left, 0);
  EXPECT_GT(c_right, 0);
  const bool left_smaller = c_left <= c_right;

  DerivationStats stats;
  auto parent = QueryNodeHistograms(session, root, &stats.orders);
  auto smaller =
      QueryNodeHistograms(session, left_smaller ? left : right, &stats.orders);
  auto larger =
      QueryNodeHistograms(session, left_smaller ? right : left, &stats.orders);
  for (const auto& [name, direct] : larger) {
    SCOPED_TRACE(feature + " split, histogram of " + name);
    const core::Histogram derived =
        core::SubtractHistogram(parent.at(name), smaller.at(name));
    EXPECT_EQ(derived.size(), direct.size());
    std::map<uint32_t, size_t> direct_bins;
    for (size_t i = 0; i < direct.size(); ++i) direct_bins[direct.slot[i]] = i;
    const std::set<uint32_t> smaller_slots(smaller.at(name).slot.begin(),
                                           smaller.at(name).slot.end());
    for (size_t i = 0; i < derived.size(); ++i) {
      const uint32_t slot = derived.slot[i];
      auto it = direct_bins.find(slot);
      if (it == direct_bins.end()) {
        ADD_FAILURE() << "derived bin " << i << " is not in the query's";
        continue;
      }
      EXPECT_EQ(derived.c[i], direct.c[it->second]) << "bin " << i;
      EXPECT_TRUE(
          test_util::RelNear(derived.s[i], direct.s[it->second], 1e-12))
          << "bin " << i;
      if (i > 0) {
        EXPECT_GT(slot, derived.slot[i - 1]) << "bin " << i << " out of order";
      }
      stats.in_both[name] += smaller_slots.count(slot);
    }
    for (const uint32_t slot : parent.at(name).slot) {
      if (direct_bins.count(slot) == 0) stats.dropped[name].insert(slot);
    }
    EXPECT_EQ(stats.dropped[name].size(),
              parent.at(name).size() - derived.size());
  }
  return stats;
}

/// The derived larger child equals its own query on a snowflake: a numeric
/// fact feature, a categorical and a numeric dimension feature, and a fact
/// feature holding NULLs. A bin whose rows all go to the smaller child is
/// dropped.
TEST(SiblingSubtractionTest, DerivedChildMatchesItsOwnQuery) {
  for (const size_t null_every : {size_t{0}, size_t{5}}) {
    SCOPED_TRACE("null_every=" + std::to_string(null_every));
    Database db(Profile(/*use_planner=*/true, /*threads=*/1));
    BuildCatSnowflake(&db, /*seed=*/31, /*rows=*/4000, {"red", "green", "blue",
                                                        "teal"},
                      /*second_effect=*/0.0, null_every);
    Dataset ds = MakeCatDataset(&db);
    core::TrainParams params;
    params.boosting = "gbdt";
    core::Session session(&ds, params);
    session.Prepare();
    if (null_every > 0) {
      const auto& nulls = ds.graph().relation(session.y_fact()).null_features;
      ASSERT_EQ(nulls, std::vector<std::string>{"x0"});
    }

    // x0 <= 2 sends about a quarter of the rows left: every x0 bin up to 2
    // lies wholly in the smaller child and must be dropped.
    DerivationStats x0 = ExpectDerivationMatchesQuery(session, "x0", 2.0, "");
    ASSERT_GT(x0.dropped["x0"].size(), 0u);
    for (const uint32_t slot : x0.dropped["x0"]) {
      EXPECT_LE(x0.orders.at("x0").ValueAt(slot).d, 2.0);
    }
    EXPECT_EQ(x0.in_both["x0"], 0u);
    EXPECT_GT(x0.in_both["f1"], 0u);

    // Splits on a dimension: the category's bin and the low f2 values go
    // wholly to one child.
    DerivationStats g1 = ExpectDerivationMatchesQuery(session, "g1", 0, "red");
    EXPECT_EQ(g1.dropped["g1"].size(), 1u);
    DerivationStats f2 = ExpectDerivationMatchesQuery(session, "f2", 250, "");
    EXPECT_GT(f2.dropped["f2"].size(), 0u);
    session.Cleanup();
  }
}

/// On the IMDB-like galaxy, a split on `person` sends a movie's cast rows to
/// both children, so a movie_companies row's tuples sit in both: its bins
/// are split between the children, not moved whole.
TEST(SiblingSubtractionTest, GalaxyManyToManyRowsSitInBothChildren) {
  Database db(Profile(/*use_planner=*/true, /*threads=*/1));
  data::ImdbConfig config;
  config.num_movies = 60;
  config.num_persons = 120;
  config.cast_per_movie = 4;
  Dataset ds = data::MakeImdb(&db, config);
  core::TrainParams params;
  params.boosting = "gbdt";
  core::Session session(&ds, params);
  session.Prepare();
  DerivationStats person =
      ExpectDerivationMatchesQuery(session, "f_person", 300, "");
  EXPECT_EQ(person.in_both["f_person"], 0u);
  EXPECT_GT(person.in_both["f_mc"], 0u);
  EXPECT_GT(person.in_both["f_movie"], 0u);
  // And a split on the many-to-many relation itself.
  DerivationStats mc = ExpectDerivationMatchesQuery(session, "f_mc", 500, "");
  EXPECT_GT(mc.in_both["f_role"], 0u);
  session.Cleanup();
}

/// A categorical fact feature on a fact large enough for its histograms to
/// be read back from the leaf's shared GROUPING SETS table: subtraction
/// matches dictionary codes, so every read must share one dictionary, and
/// the trained models must pass the split oracle.
TEST(SiblingSubtractionTest, SharedScanCategoricalFactPassesSplitOracle) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Database db(Profile(/*use_planner=*/true, threads));
    Rng rng(5);
    const size_t rows = 12000;
    const std::vector<std::string> cats = {"a", "b", "c", "d", "e", "f"};
    std::vector<int64_t> k(rows);
    std::vector<double> x(rows), y(rows);
    std::vector<std::string> cat(rows);
    for (size_t i = 0; i < rows; ++i) {
      k[i] = rng.NextInt(0, 9);
      x[i] = static_cast<double>(rng.NextInt(0, 300));
      cat[i] = cats[static_cast<size_t>(rng.NextInt(0, 5))];
      y[i] = (cat[i] == "b" ? 7.0 : 0.0) - (cat[i] == "e" ? 3.0 : 0.0) +
             0.02 * x[i] + 0.5 * static_cast<double>(k[i]) +
             rng.NextGaussian();
    }
    db.RegisterTable(TableBuilder("fact")
                         .AddInts("k", k)
                         .AddDoubles("x", x)
                         .AddStrings("cat", cat)
                         .AddDoubles("y", y)
                         .Build());
    db.RegisterTable(TableBuilder("dim")
                         .AddInts("k", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
                         .AddDoubles("f", {0, 3, 6, 2, 5, 1, 4, 0, 3, 6})
                         .Build());
    Dataset ds(&db);
    ds.AddTable("fact", {"x", "cat"}, "y");
    ds.AddTable("dim", {"f"});
    ds.AddJoin("fact", "dim", {"k"});
    core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = 3;
    params.num_leaves = 8;
    const core::Ensemble model = Train(params, ds).model;
    size_t shared_reads = 0, category_splits = 0;
    for (const auto& e : db.QueryLog()) {
      const bool shared = e.sql.find("_sets WHERE") != std::string::npos;
      if (e.tag == "feature" && shared) ++shared_reads;
    }
    for (const auto& tree : model.trees) {
      for (const auto& node : tree.nodes) {
        category_splits += !node.is_leaf && node.categorical;
      }
    }
    EXPECT_GT(shared_reads, 0u);
    EXPECT_GT(category_splits, 0u);
    EXPECT_TRUE(split_oracle::CheckModel(model, ds, params));
  }
}

/// Snowflake fact -> d1 -> d1a, N:1 on each edge. Below a split on d1a's g,
/// fact->d1 and d1->d1a borrow d1a's selector and lack the groups that the
/// branch's g predicate drops; d1->d1a also joins the borrowed fact->d1. The
/// target steps at g = 5, at x0 = 5, and at g = 2 and g = 8 inside the two
/// branches: both branches split at x0 <= 5, so their children share every
/// predicate outside d1a, and each still has a g split to find. A key that
/// ignored d1a's predicates would hand one branch's d1->d1a to the other.
/// Fair's c = 100 queries both children of every split.
TEST(BatchedSplitTest, SnowflakeBorrowedMessagesPassSplitOracle) {
  for (const char* objective : {"rmse", "fair"}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(objective) + " threads=" +
                   std::to_string(threads));
      Database db(Profile(/*use_planner=*/true, threads));
      Rng rng(77);
      const int64_t kD1 = 60, kD1a = 12;
      std::vector<int64_t> d1k, d1ak, d1a_keys;
      std::vector<double> f1, g;
      for (int64_t i = 0; i < kD1a; ++i) {
        d1a_keys.push_back(i);
        g.push_back(static_cast<double>(i));
      }
      for (int64_t i = 0; i < kD1; ++i) {
        d1k.push_back(i);
        d1ak.push_back(rng.NextInt(0, kD1a - 1));
        f1.push_back(static_cast<double>(rng.NextInt(1, 50)));
      }
      const size_t rows = 6000;
      std::vector<int64_t> k1(rows);
      std::vector<double> x0(rows), y(rows);
      for (size_t i = 0; i < rows; ++i) {
        k1[i] = rng.NextInt(0, kD1 - 1);
        x0[i] = static_cast<double>(rng.NextInt(0, 9));
        const int64_t a = d1ak[static_cast<size_t>(k1[i])];
        const double gv = g[static_cast<size_t>(a)];
        y[i] = (gv > 2 ? 1.5 : 0.0) + (gv > 5 ? 6.0 : 0.0) +
               (gv > 8 ? 1.5 : 0.0) + (x0[i] > 5 ? 3.0 : 0.0) +
               0.3 * rng.NextGaussian();
      }
      db.RegisterTable(TableBuilder("fact")
                           .AddInts("k1", k1)
                           .AddDoubles("x0", x0)
                           .AddDoubles("y", y)
                           .Build());
      db.RegisterTable(TableBuilder("d1")
                           .AddInts("k1", d1k)
                           .AddInts("k1a", d1ak)
                           .AddDoubles("f1", f1)
                           .Build());
      db.RegisterTable(TableBuilder("d1a")
                           .AddInts("k1a", d1a_keys)
                           .AddDoubles("g", g)
                           .Build());
      Dataset ds(&db);
      ds.AddTable("fact", {"x0"}, "y");
      ds.AddTable("d1", {"f1"});
      ds.AddTable("d1a", {"g"});
      ds.AddJoin("fact", "d1", {"k1"});
      ds.AddJoin("d1", "d1a", {"k1a"});
      core::TrainParams params;
      params.objective = objective;
      params.objective_param = std::string(objective) == "fair" ? 100 : 0;
      params.boosting = "gbdt";
      params.num_iterations = 3;
      params.num_leaves = 8;
      const core::Ensemble model = Train(params, ds).model;
      EXPECT_TRUE(split_oracle::CheckModel(model, ds, params));
    }
  }
}

/// A fact feature holding both -0.0 and 0.0: GROUP BY bins them apart, while
/// the split predicate and Predict treat them as one value. The root must
/// split at ±0 with both bins' rows on the left, as the oracle checks.
TEST(BatchedSplitTest, SignedZerosSplitAsOneValue) {
  Database db(Profile(/*use_planner=*/true, /*threads=*/1));
  std::vector<int64_t> k;
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    k.push_back(i % 5);
    x.push_back(i < 30 ? -0.0 : (i < 60 ? 0.0 : 1.0));
    y.push_back(i < 30 ? 10.0 : 0.0);
  }
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("k", k)
                       .AddDoubles("x", x)
                       .AddDoubles("y", y)
                       .Build());
  db.RegisterTable(TableBuilder("dim")
                       .AddInts("k", {0, 1, 2, 3, 4})
                       .AddDoubles("f", {1, 1, 1, 1, 1})
                       .Build());
  Dataset ds(&db);
  ds.AddTable("fact", {"x"}, "y");
  ds.AddTable("dim", {"f"});
  ds.AddJoin("fact", "dim", {"k"});
  core::TrainParams params;
  params.boosting = "dt";
  params.num_leaves = 2;
  const core::Ensemble model = Train(params, ds).model;
  ASSERT_EQ(model.trees.size(), 1u);
  const core::TreeModel& tree = model.trees[0];
  ASSERT_EQ(tree.nodes.size(), 3u);
  EXPECT_EQ(tree.nodes[0].feature, "x");
  EXPECT_EQ(tree.nodes[0].threshold, 0.0);
  EXPECT_EQ(tree.nodes[static_cast<size_t>(tree.nodes[0].left)].count, 60.0);
  EXPECT_TRUE(split_oracle::CheckModel(model, ds, params));
}

/// An int64 fact feature holding 2^53 and 2^53 + 1, which no double
/// threshold separates: the two share a slot, so the root cannot split
/// between them, and the dt passes the split oracle.
TEST(BatchedSplitTest, IntsBeyondDoublePrecisionSplitAsOneValue) {
  Database db(Profile(/*use_planner=*/true, /*threads=*/1));
  const int64_t big = int64_t{1} << 53;
  std::vector<int64_t> k, x;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    k.push_back(i % 5);
    x.push_back(i < 30 ? big : (i < 60 ? big + 1 : (i < 90 ? 5 : -3)));
    // big + 1 alone would be the best left side, were it separable.
    y.push_back(i < 30 ? 0.0 : (i < 60 ? 12.0 : (i < 90 ? 3.0 : 1.0)));
  }
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("k", k)
                       .AddInts("x", x)
                       .AddDoubles("y", y)
                       .Build());
  db.RegisterTable(TableBuilder("dim")
                       .AddInts("k", {0, 1, 2, 3, 4})
                       .AddDoubles("f", {1, 1, 1, 1, 1})
                       .Build());
  Dataset ds(&db);
  ds.AddTable("fact", {"x"}, "y");
  ds.AddTable("dim", {"f"});
  ds.AddJoin("fact", "dim", {"k"});
  core::TrainParams params;
  params.boosting = "dt";
  params.num_leaves = 4;
  const core::Ensemble model = Train(params, ds).model;
  ASSERT_EQ(model.trees.size(), 1u);
  size_t x_splits = 0;
  for (const core::TreeNode& node : model.trees[0].nodes) {
    if (node.is_leaf) continue;
    ++x_splits;
    EXPECT_EQ(node.feature, "x");
    EXPECT_LT(node.threshold, static_cast<double>(big));
  }
  EXPECT_EQ(x_splits, 2u);  // -3 | 5 | {2^53, 2^53 + 1}
  EXPECT_TRUE(split_oracle::CheckModel(model, ds, params));
}

// ---------------------------------------------------------------------------
// Kernel unit tests: the rules of BestSplitFromHistogram (core/split.h).
// ---------------------------------------------------------------------------

/// A one-attribute histogram query result: rows (set_id = 0, value, c, s).
exec::ExecTable HistogramResult(exec::VectorData values,
                                std::vector<double> c, std::vector<double> s) {
  exec::ExecTable result;
  result.rows = c.size();
  std::vector<int64_t> set_id(c.size(), 0);
  result.cols.push_back(
      {"", "set_id", exec::VectorData::FromInts(std::move(set_id))});
  result.cols.push_back({"", "x", std::move(values)});
  result.cols.push_back({"", "c", exec::VectorData::FromDoubles(std::move(c))});
  result.cols.push_back({"", "s", exec::VectorData::FromDoubles(std::move(s))});
  return result;
}

/// A one-attribute histogram result read as a tree's root: the order it
/// fixes and its histogram in that order.
struct RootHistogram {
  core::FeatureOrder order;
  core::Histogram hist;
};

RootHistogram Root(exec::VectorData values, std::vector<double> c,
                   std::vector<double> s) {
  const exec::ExecTable result =
      HistogramResult(std::move(values), std::move(c), std::move(s));
  RootHistogram out;
  out.order =
      core::OrdersFromResult(result, std::vector<core::FeatureOrder>(1)).at(0);
  out.hist = core::HistogramsFromResult(result, {out.order}).at(0);
  return out;
}

/// A float64 root histogram whose bins arrive in the given (aggregation)
/// order.
RootHistogram Root(std::vector<double> vals, std::vector<double> c,
                   std::vector<double> s) {
  return Root(exec::VectorData::FromDoubles(std::move(vals)), std::move(c),
              std::move(s));
}

/// A categorical root histogram over codes of a dictionary "a", "b", ...
RootHistogram CategoricalRoot(std::vector<int64_t> codes,
                              std::vector<double> c, std::vector<double> s) {
  auto dict = std::make_shared<Dictionary>();
  for (const int64_t code : codes) {
    while (static_cast<int64_t>(dict->size()) <= code) {
      dict->GetOrAdd(std::string(1, static_cast<char>('a' + dict->size())));
    }
  }
  return Root(exec::VectorData::FromCodes(std::move(codes), dict),
              std::move(c), std::move(s));
}

TEST(BatchedSplitKernelTest, NumericPrefixSumsAndArgmax) {
  core::CriterionParams p;
  p.c_total = 6;
  p.s_total = 12;
  p.min_leaf = 1;
  p.halved = true;
  // Bins arrive in group first-occurrence order, values unsorted.
  const RootHistogram bins = Root({3.0, 1.0, 2.0}, {2, 2, 2}, {2, 8, 2});
  core::HistogramSplit hs =
      core::BestSplitFromHistogram(bins.hist, bins.order, p);
  ASSERT_TRUE(hs.valid);
  // Cumulative (c, s) by ascending val: (2,8) @1, (4,10) @2, (6,12) @3.
  // val=3 fails the c <= 5 bound; splitting at val=1 separates the high-s
  // group and must win.
  EXPECT_EQ(hs.val.d, 1.0);
  EXPECT_EQ(hs.c, 2.0);
  EXPECT_EQ(hs.s, 8.0);
  double expect = core::CriterionValue(2.0, 8.0, p);
  EXPECT_EQ(hs.criteria, expect);
  EXPECT_TRUE(std::isfinite(hs.criteria));
}

TEST(BatchedSplitKernelTest, TiesKeepLowestSlot) {
  core::CriterionParams p;
  p.c_total = 4;
  p.s_total = 0;
  p.min_leaf = 1;
  p.halved = true;
  // Symmetric histogram: cumulative (1, -1) at val=1 and (3, 1) at val=3
  // score identically (s^2/c + s^2/(C-c)); a later slot needs a strictly
  // greater criterion, so the lowest slot, the smallest threshold, wins
  // whatever order the bins arrive in.
  const RootHistogram bins = Root({3.0, 1.0, 2.0}, {1, 1, 1}, {1, -1, 1});
  core::HistogramSplit hs =
      core::BestSplitFromHistogram(bins.hist, bins.order, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.d, 1.0);  // the lowest slot among equal criteria
  double tied = core::CriterionValue(1, -1, p);
  EXPECT_EQ(hs.criteria, tied);
}

TEST(BatchedSplitKernelTest, CategoricalSkipsPrefixSums) {
  core::CriterionParams p;
  p.c_total = 10;
  p.s_total = 10;
  p.min_leaf = 2;
  p.halved = true;
  const RootHistogram bins = CategoricalRoot({0, 1, 2}, {1, 4, 5}, {9, 8, -7});
  core::HistogramSplit hs =
      core::BestSplitFromHistogram(bins.hist, bins.order, p);
  ASSERT_TRUE(hs.valid);
  // Bin 0 fails min_leaf; bins 1 and 2 compete on their own (c, s).
  double crit1 = core::CriterionValue(4, 8, p);
  double crit2 = core::CriterionValue(5, -7, p);
  EXPECT_EQ(hs.criteria, std::max(crit1, crit2));
}

TEST(BatchedSplitKernelTest, OutOfBoundsBinsAreInvalid) {
  core::CriterionParams p;
  p.c_total = 4;
  p.s_total = 4;
  p.min_leaf = 3;  // no prefix c lands in [3, 1]: nothing passes
  p.halved = true;
  const RootHistogram bins = Root({1.0, 2.0}, {2, 2}, {2, 2});
  core::HistogramSplit hs =
      core::BestSplitFromHistogram(bins.hist, bins.order, p);
  EXPECT_FALSE(hs.valid);
}

TEST(BatchedSplitKernelTest, DivisionByZeroMirrorsSqlNull) {
  core::CriterionParams p;
  p.c_total = 2;
  p.s_total = 2;
  p.lambda = 0;
  p.min_leaf = 0;  // lets c = 0 pass the bounds
  p.halved = true;
  // c = 0 with lambda = 0 divides by zero: a NULL (NaN) criterion, which
  // wins over every finite one — the kernel must surface it (the trainer
  // then rejects the non-finite candidate).
  const RootHistogram bins = Root({1.0, 2.0}, {0, 1}, {1, 1});
  core::HistogramSplit hs =
      core::BestSplitFromHistogram(bins.hist, bins.order, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.d, 1.0);
  EXPECT_TRUE(std::isnan(hs.criteria));
}

/// -0.0 and 0.0 compare equal, so `x <= -0` and `x <= 0` take the same
/// rows, but GROUP BY keeps them in two bins. In either bin order, both
/// bins share one slot: one candidate.
TEST(BatchedSplitKernelTest, SignedZerosShareOneCandidate) {
  core::CriterionParams p;
  p.c_total = 100;
  p.s_total = 300;
  p.min_leaf = 1;
  p.halved = true;
  for (const bool neg_first : {true, false}) {
    SCOPED_TRACE(neg_first ? "-0.0 first" : "0.0 first");
    const RootHistogram bins =
        neg_first ? Root({-0.0, 0.0, 1.0}, {30, 30, 40}, {300, 0, 0})
                  : Root({0.0, -0.0, 1.0}, {30, 30, 40}, {0, 300, 0});
    core::HistogramSplit hs =
        core::BestSplitFromHistogram(bins.hist, bins.order, p);
    ASSERT_TRUE(hs.valid);
    // x <= 1 leaves nothing right; x <= ±0 takes 60 rows and all of s.
    EXPECT_EQ(hs.val.d, 0.0);
    EXPECT_EQ(hs.c, 60.0);
    EXPECT_EQ(hs.s, 300.0);
    EXPECT_EQ(hs.criteria, core::CriterionValue(60, 300, p));
  }
}

/// The hand-off: a root's -0.0 and 0.0 bins, and a later node's, read into
/// one slot holding both bins' c and s, in either arrival order.
TEST(BatchedSplitKernelTest, SignedZeroBinsReadIntoOneSlot) {
  for (const bool neg_first : {true, false}) {
    SCOPED_TRACE(neg_first ? "-0.0 first" : "0.0 first");
    // -0.0 carries s 300 and 0.0 carries s 0.
    const std::vector<double> zeros = neg_first
                                          ? std::vector<double>{-0.0, 0.0}
                                          : std::vector<double>{0.0, -0.0};
    const std::vector<double> c = {30, 30};
    const std::vector<double> s = neg_first ? std::vector<double>{300, 0}
                                            : std::vector<double>{0, 300};
    const RootHistogram root = Root({1.0, zeros[0], -1.0, zeros[1]},
                                    {40, c[0], 5, c[1]}, {0, s[0], 0, s[1]});
    ASSERT_EQ(root.order.num_slots(), 3u);
    EXPECT_EQ(root.order.ValueAt(1).d, 0.0);
    ASSERT_EQ(root.hist.size(), 3u);
    EXPECT_EQ(root.hist.slot, (std::vector<uint32_t>{0, 1, 2}));
    EXPECT_EQ(root.hist.c[1], 60.0);
    EXPECT_EQ(root.hist.s[1], 300.0);
    const std::vector<core::Histogram> child = core::HistogramsFromResult(
        HistogramResult(exec::VectorData::FromDoubles(zeros), c, s),
        {root.order});
    ASSERT_EQ(child.at(0).size(), 1u);
    EXPECT_EQ(child[0].slot[0], 1u);
    EXPECT_EQ(child[0].c[0], 60.0);
    EXPECT_EQ(child[0].s[0], 300.0);
  }
}

/// An int64 feature is ordered as the doubles its thresholds become:
/// 2^53 and 2^53 + 1 are one double, so they share a slot and a candidate.
TEST(BatchedSplitKernelTest, IntsBeyondDoublePrecisionShareOneCandidate) {
  const int64_t big = int64_t{1} << 53;
  const RootHistogram root =
      Root(exec::VectorData::FromInts({big + 1, 7, big}), {10, 20, 30},
           {10, 0, 50});
  ASSERT_EQ(root.order.num_slots(), 2u);
  ASSERT_EQ(root.hist.size(), 2u);
  EXPECT_EQ(root.hist.c[1], 40.0);
  EXPECT_EQ(root.hist.s[1], 60.0);
  core::CriterionParams p;
  p.c_total = 60;
  p.s_total = 60;
  p.min_leaf = 1;
  p.halved = true;
  // x <= 7 is the only split that leaves rows on both sides.
  const core::HistogramSplit hs =
      core::BestSplitFromHistogram(root.hist, root.order, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.d, 7.0);
  EXPECT_EQ(hs.c, 20.0);
  EXPECT_EQ(root.order.ValueAt(1).d, static_cast<double>(big));
}

/// Every node's rows are a subset of its root's, so a bin whose value the
/// root did not hold is an error, for numeric and categorical features; so
/// is, in a subtraction, a child's bin outside its parent's histogram.
TEST(BatchedSplitKernelTest, BinOutsideRootOrderIsAnError) {
  const RootHistogram root = Root({1.0, 2.0, 3.0}, {1, 1, 1}, {1, 1, 1});
  EXPECT_THROW(core::HistogramsFromResult(
                   HistogramResult(exec::VectorData::FromDoubles({2.0, 4.0}),
                                   {1, 1}, {1, 1}),
                   {root.order}),
               JbError);
  auto dict = std::make_shared<Dictionary>();
  dict->GetOrAdd("a");
  dict->GetOrAdd("b");
  dict->GetOrAdd("c");
  const RootHistogram cat =
      Root(exec::VectorData::FromCodes({0, 2}, dict), {1, 1}, {1, 1});
  EXPECT_NO_THROW(core::HistogramsFromResult(
      HistogramResult(exec::VectorData::FromCodes({2}, dict), {1}, {1}),
      {cat.order}));
  EXPECT_THROW(core::HistogramsFromResult(
                   HistogramResult(exec::VectorData::FromCodes({1}, dict), {1},
                                   {1}),
                   {cat.order}),
               JbError);
  core::Histogram parent, child;
  parent.slot = {0, 2};
  parent.c = {2, 2};
  parent.s = {1, 1};
  child.slot = {1};
  child.c = {1};
  child.s = {1};
  EXPECT_THROW(core::SubtractHistogram(parent, child), JbError);
}

/// A later tree's root keeps the last tree's order when that order holds
/// every value the root does, since slots the root lacks change no split,
/// and sorts afresh when the root holds a new value.
TEST(BatchedSplitKernelTest, RootKeepsLastOrderThatHoldsItsValues) {
  const RootHistogram first = Root({3.0, 1.0, 2.0}, {1, 1, 1}, {1, 1, 1});
  ASSERT_EQ(first.order.num_slots(), 3u);
  const exec::ExecTable subset = HistogramResult(
      exec::VectorData::FromDoubles({3.0, 1.0}), {2, 2}, {5, -1});
  const std::vector<core::FeatureOrder> kept =
      core::OrdersFromResult(subset, {first.order});
  EXPECT_EQ(kept[0].num_slots(), 3u);
  const core::Histogram hist = core::HistogramsFromResult(subset, kept)[0];
  EXPECT_EQ(hist.slot, (std::vector<uint32_t>{0, 2}));
  core::CriterionParams p;
  p.c_total = 4;
  p.s_total = 4;
  p.halved = true;
  const core::HistogramSplit with_kept =
      core::BestSplitFromHistogram(hist, kept[0], p);
  const RootHistogram fresh = Root({3.0, 1.0}, {2, 2}, {5, -1});
  const core::HistogramSplit with_fresh =
      core::BestSplitFromHistogram(fresh.hist, fresh.order, p);
  ASSERT_TRUE(with_kept.valid);
  EXPECT_EQ(with_kept.val.d, with_fresh.val.d);
  EXPECT_EQ(with_kept.c, with_fresh.c);
  EXPECT_EQ(with_kept.criteria, with_fresh.criteria);
  const exec::ExecTable grown = HistogramResult(
      exec::VectorData::FromDoubles({1.0, 4.0}), {2, 2}, {5, -1});
  EXPECT_EQ(core::OrdersFromResult(grown, {first.order})[0].num_slots(), 2u);
}

/// A NULL bin (NaN or the int sentinel) is dropped where the histogram
/// result is read (HistogramsFromResult), so it is neither summed nor a
/// candidate wherever it arrives: its rows stay in the totals and go right.
TEST(BatchedSplitKernelTest, NullBinsStayOutOfSumsAndCandidates) {
  core::CriterionParams p;
  p.c_total = 9;  // 5 of the 9 rows are NULL
  p.s_total = 50;
  p.min_leaf = 1;
  p.halved = true;
  for (const TypeId type : {TypeId::kFloat64, TypeId::kInt64}) {
    for (size_t at = 0; at < 3; ++at) {
      SCOPED_TRACE(std::string(TypeName(type)) + " NULL bin at " +
                   std::to_string(at));
      std::vector<double> vals = {1.0, 2.0}, c = {2, 2}, s = {2, 0};
      const auto pos = static_cast<std::ptrdiff_t>(at);
      vals.insert(vals.begin() + pos, NullFloat64());
      c.insert(c.begin() + pos, 5);
      s.insert(s.begin() + pos, 48);
      exec::VectorData values = exec::VectorData::FromDoubles(vals);
      if (type == TypeId::kInt64) {
        std::vector<int64_t> ints;
        for (double v : vals) {
          ints.push_back(std::isnan(v) ? kNullInt64 : static_cast<int64_t>(v));
        }
        values = exec::VectorData::FromInts(std::move(ints));
      }
      const RootHistogram root = Root(std::move(values), c, s);
      EXPECT_EQ(root.hist.size(), 2u);
      core::HistogramSplit hs =
          core::BestSplitFromHistogram(root.hist, root.order, p);
      ASSERT_TRUE(hs.valid);
      // Cumulative (2, 2) at 1.0 and (4, 2) at 2.0; the NULL rows count in
      // neither.
      EXPECT_EQ(hs.val.AsDouble(), 2.0);
      EXPECT_EQ(hs.c, 4.0);
      EXPECT_EQ(hs.s, 2.0);
      EXPECT_EQ(hs.criteria, core::CriterionValue(4, 2, p));
    }
  }
  // Categorical: the NULL bin scores best on its own, but the best non-NULL
  // category must win instead of no split at all.
  auto dict = std::make_shared<Dictionary>();
  const int64_t a = dict->GetOrAdd("a"), b = dict->GetOrAdd("b");
  const RootHistogram root =
      Root(exec::VectorData::FromCodes({kNullInt64, a, b}, dict), {5, 2, 2},
           {48, 2, 0});
  ASSERT_GT(core::CriterionValue(5, 48, p), core::CriterionValue(2, 0, p));
  core::HistogramSplit hs =
      core::BestSplitFromHistogram(root.hist, root.order, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.s, "b");
  EXPECT_EQ(hs.c, 2.0);
  EXPECT_EQ(hs.criteria, core::CriterionValue(2, 0, p));
}

// ---------------------------------------------------------------------------
// Randomized: the slot hand-off, kernel and subtraction against brute force.
// ---------------------------------------------------------------------------

/// One histogram row as the reference reads it: the value as the double a
/// threshold compares (a categorical feature's code), and its c and s.
struct RefRow {
  double value;
  double c;
  double s;
};

/// Equal, or both NaN.
bool SameDouble(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

/// `acc` plus `x`, a NaN adding nothing.
double RefAdd(double acc, double x) {
  if (std::isnan(x)) return acc;
  return std::isnan(acc) ? x : acc + x;
}

/// Per distinct value (under ==, ascending), the sums of its rows' c and s.
std::map<double, std::pair<double, double>> RefBins(
    const std::vector<RefRow>& rows) {
  std::map<double, std::pair<double, double>> out;
  for (const RefRow& r : rows) {
    auto [it, fresh] = out.try_emplace(r.value, r.c, r.s);
    if (!fresh) {
      it->second.first = RefAdd(it->second.first, r.c);
      it->second.second = RefAdd(it->second.second, r.s);
    }
  }
  return out;
}

struct RefSplit {
  bool valid = false;
  double value = 0;
  double c = 0;
  double s = 0;
  double criteria = 0;
};

/// Brute force: for each distinct value v in ascending order, sum every row
/// with value <= v (numeric, from 0) or == v (categorical), score it, and
/// keep the first best (strictly greater wins; the first NaN criterion wins
/// over every finite one).
RefSplit RefBestSplit(const std::vector<RefRow>& rows, bool categorical,
                      const core::CriterionParams& p) {
  RefSplit best;
  bool win_null = false;
  for (const auto& [v, unused] : RefBins(rows)) {
    double c = categorical ? NullFloat64() : 0.0;
    double s = c;
    for (const RefRow& r : rows) {
      if (categorical ? r.value == v : r.value <= v) {
        c = RefAdd(c, r.c);
        s = RefAdd(s, r.s);
      }
    }
    if (!(c >= p.min_leaf && c <= p.c_total - p.min_leaf)) continue;
    const double crit = core::CriterionValue(c, s, p);
    if (best.valid &&
        (win_null || (!std::isnan(crit) && !(crit > best.criteria)))) {
      continue;
    }
    win_null = std::isnan(crit);
    best = {true, v, c, s, crit};
  }
  return best;
}

/// Typed values of one random histogram column, with a reference double per
/// row (NaN for NULL).
struct RandomColumn {
  TypeId type;
  DictionaryPtr dict;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<double> ref;

  exec::VectorData Rows(const std::vector<size_t>& pick) const {
    std::vector<int64_t> i;
    std::vector<double> d;
    for (const size_t r : pick) {
      if (type == TypeId::kFloat64) {
        d.push_back(dbls[r]);
      } else {
        i.push_back(ints[r]);
      }
    }
    if (type == TypeId::kFloat64) return exec::VectorData::FromDoubles(d);
    if (type == TypeId::kInt64) return exec::VectorData::FromInts(i);
    return exec::VectorData::FromCodes(i, dict);
  }
};

RandomColumn MakeRandomColumn(TypeId type, size_t n, Rng* rng) {
  const int64_t big = int64_t{1} << 53;
  const std::vector<double> float_pool = {-2.5, -1.0, -0.0, 0.0, 0.5,
                                          1.0,  3.0,  7.25, 1e300};
  const std::vector<int64_t> int_pool = {-3, 0, 1, 2, 5, big, big + 1, big + 2,
                                         -big, -big - 1, INT64_MAX};
  RandomColumn col;
  col.type = type;
  if (type == TypeId::kString) {
    col.dict = std::make_shared<Dictionary>();
    for (const char* name : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
      col.dict->GetOrAdd(name);
    }
  }
  for (size_t r = 0; r < n; ++r) {
    const bool null = rng->NextInt(0, 9) == 0;
    if (type == TypeId::kFloat64) {
      const double v =
          null ? NullFloat64()
               : (rng->NextInt(0, 3) == 0
                      ? static_cast<double>(rng->NextInt(-20, 20)) / 4
                      : float_pool[static_cast<size_t>(rng->NextInt(
                            0, static_cast<int64_t>(float_pool.size()) - 1))]);
      col.dbls.push_back(v);
      col.ref.push_back(v);
    } else {
      int64_t v =
          type == TypeId::kString
              ? rng->NextInt(0, 7)
              : int_pool[static_cast<size_t>(rng->NextInt(
                    0, static_cast<int64_t>(int_pool.size()) - 1))];
      if (null) v = kNullInt64;
      col.ints.push_back(v);
      col.ref.push_back(null ? NullFloat64() : static_cast<double>(v));
    }
  }
  return col;
}

/// A small integer, NaN one time in ten.
double RandomCell(Rng* rng, int64_t lo, int64_t hi) {
  return rng->NextInt(0, 9) == 0 ? NullFloat64()
                                 : static_cast<double>(rng->NextInt(lo, hi));
}

/// Random histograms of int, float and string columns, with duplicate
/// values, -0.0 and 0.0, ints beyond 2^53, NULL values and NaN c or s: the
/// slot kernel must pick the reference's split, and each link of a chain of
/// sibling subtractions must equal the reference's per-value difference.
/// c and s are small integers, so every sum is exact in any order.
TEST(BatchedSplitKernelTest, RandomizedAgainstBruteForce) {
  Rng rng(2029);
  size_t compared = 0, valid = 0, dropped = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const TypeId type =
        std::vector<TypeId>{TypeId::kFloat64, TypeId::kInt64,
                            TypeId::kString}[static_cast<size_t>(trial % 3)];
    const bool categorical = type == TypeId::kString;
    const size_t n = static_cast<size_t>(rng.NextInt(1, 24));
    const RandomColumn col = MakeRandomColumn(type, n, &rng);
    std::vector<double> c(n), s(n);
    for (size_t r = 0; r < n; ++r) {
      c[r] = RandomCell(&rng, 0, 6);
      s[r] = RandomCell(&rng, -12, 12);
    }
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    const RootHistogram root = Root(col.Rows(all), c, s);
    SCOPED_TRACE("trial " + std::to_string(trial));

    // Level 0 is the root; each later level subtracts a random child from
    // the level before. A child holds some of that level's values, each
    // with its c cut to [0, c], and maybe a NULL row.
    std::vector<RefRow> ref_rows;
    std::map<double, size_t> row_of;  // a root row holding each value
    for (size_t r = 0; r < n; ++r) {
      if (std::isnan(col.ref[r])) continue;
      ref_rows.push_back({col.ref[r], c[r], s[r]});
      row_of.emplace(col.ref[r], r);
    }
    const auto null_row = std::find_if(col.ref.begin(), col.ref.end(),
                                       [](double v) { return std::isnan(v); });
    core::Histogram hist = root.hist;
    for (int level = 0; level < 4; ++level) {
      SCOPED_TRACE("level " + std::to_string(level));
      if (level > 0) {
        std::vector<size_t> pick;
        std::vector<double> cc, cs;
        std::vector<RefRow> child_rows;
        for (const auto& [v, cs_pair] : RefBins(ref_rows)) {
          if (rng.NextInt(0, 1) == 0) continue;
          const double cur_c = cs_pair.first;
          pick.push_back(row_of.at(v));
          cc.push_back(std::isnan(cur_c)
                           ? RandomCell(&rng, 0, 6)
                           : static_cast<double>(rng.NextInt(
                                 0, static_cast<int64_t>(cur_c))));
          cs.push_back(RandomCell(&rng, -12, 12));
          child_rows.push_back({v, cc.back(), cs.back()});
        }
        if (null_row != col.ref.end() && rng.NextInt(0, 1) == 0) {
          pick.push_back(static_cast<size_t>(null_row - col.ref.begin()));
          cc.push_back(1);
          cs.push_back(1);
        }
        const core::Histogram child =
            core::HistogramsFromResult(HistogramResult(col.Rows(pick), cc, cs),
                                       {root.order})
                .at(0);
        hist = core::SubtractHistogram(hist, child);
        const auto minus = RefBins(child_rows);
        std::vector<RefRow> next;
        for (const auto& [v, cs_pair] : RefBins(ref_rows)) {
          double dc = cs_pair.first, ds = cs_pair.second;
          auto it = minus.find(v);
          if (it != minus.end()) {
            dc -= it->second.first;
            ds -= it->second.second;
          }
          if (dc == 0.0) {
            ++dropped;
            continue;
          }
          next.push_back({v, dc, ds});
        }
        ref_rows = std::move(next);
      }
      // The histogram holds the reference's bins in ascending value order.
      const auto bins = RefBins(ref_rows);
      ASSERT_EQ(hist.size(), bins.size());
      size_t i = 0;
      for (const auto& [v, cs_pair] : bins) {
        const Value at = root.order.ValueAt(hist.slot[i]);
        EXPECT_EQ(categorical ? static_cast<double>(at.i) : at.d, v);
        EXPECT_TRUE(SameDouble(hist.c[i], cs_pair.first)) << i;
        EXPECT_TRUE(SameDouble(hist.s[i], cs_pair.second)) << i;
        ++i;
      }

      core::CriterionParams p;
      p.c_total = static_cast<double>(rng.NextInt(0, 40));
      p.s_total = static_cast<double>(rng.NextInt(-30, 30));
      p.lambda = static_cast<double>(rng.NextInt(0, 1));
      p.min_leaf = static_cast<double>(rng.NextInt(0, 2));
      p.halved = rng.NextInt(0, 1) == 1;
      const core::HistogramSplit got =
          core::BestSplitFromHistogram(hist, root.order, p);
      const RefSplit want = RefBestSplit(ref_rows, categorical, p);
      ++compared;
      ASSERT_EQ(got.valid, want.valid);
      if (!want.valid) continue;
      ++valid;
      EXPECT_EQ(categorical ? static_cast<double>(got.val.i) : got.val.d,
                want.value);
      EXPECT_EQ(got.c, want.c);
      EXPECT_TRUE(SameDouble(got.s, want.s));  // a categorical s may be NaN
      EXPECT_TRUE(SameDouble(got.criteria, want.criteria));
    }
  }
  // The trials reached every rule.
  EXPECT_GT(valid, compared / 4);
  EXPECT_GT(dropped, 100u);
}

}  // namespace
}  // namespace joinboost
