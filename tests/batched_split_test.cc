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
/// trainer reads them: one BatchedHistograms query per relation.
std::map<std::string, core::Histogram> QueryNodeHistograms(
    core::Session& session, const factor::PredicateSet& preds) {
  std::map<int, std::vector<std::string>> by_rel;
  for (const auto& f : session.graph().AllFeatures()) {
    by_rel[session.graph().RelationOfFeature(f)].push_back(f);
  }
  std::vector<factor::HistogramRequest> requests;
  for (const auto& [rel, feats] : by_rel) requests.push_back({rel, feats});
  const factor::LeafHistograms queries =
      session.fac().BatchedHistograms(requests, preds, "message");
  std::map<std::string, core::Histogram> out;
  for (size_t j = 0; j < requests.size(); ++j) {
    auto res = session.db().Query(queries.sql[j], "feature");
    std::vector<core::Histogram> hists =
        core::HistogramsFromResult(*res, requests[j].attrs.size());
    for (size_t i = 0; i < hists.size(); ++i) {
      out[requests[j].attrs[i]] = std::move(hists[i]);
    }
  }
  session.fac().ReleaseShared(queries);
  return out;
}

/// What one derivation showed, per feature.
struct DerivationStats {
  /// Values of the parent bins whose c reached 0.
  std::map<std::string, std::set<int64_t>> dropped;
  /// Number of bins with rows in both children.
  std::map<std::string, size_t> in_both;
};

/// Splits the root on `feature` (`f <= threshold`, or `f = category`),
/// queries the child with the smaller c (the left one on a tie) and derives
/// the other's histograms as root − smaller. Each derived histogram must
/// hold the bin set of the larger child's own query, with bit-equal counts,
/// sums within 1e-12 relative, and the bins in the root's order.
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

  auto parent = QueryNodeHistograms(session, root);
  auto smaller = QueryNodeHistograms(session, left_smaller ? left : right);
  auto larger = QueryNodeHistograms(session, left_smaller ? right : left);
  DerivationStats stats;
  for (const auto& [name, direct] : larger) {
    SCOPED_TRACE(feature + " split, histogram of " + name);
    const core::Histogram derived =
        core::SubtractHistogram(parent.at(name), smaller.at(name));
    EXPECT_EQ(derived.type, direct.type);
    EXPECT_EQ(derived.bins.size(), direct.bins.size());
    std::map<int64_t, const core::Histogram::Bin*> direct_bins;
    for (const auto& bin : direct.bins) direct_bins[bin.value] = &bin;
    std::map<int64_t, size_t> parent_pos, smaller_c;
    for (size_t i = 0; i < parent.at(name).bins.size(); ++i) {
      parent_pos[parent.at(name).bins[i].value] = i;
    }
    for (const auto& bin : smaller.at(name).bins) smaller_c[bin.value] = 1;
    size_t last_pos = 0;
    for (size_t i = 0; i < derived.bins.size(); ++i) {
      const core::Histogram::Bin& bin = derived.bins[i];
      auto it = direct_bins.find(bin.value);
      if (it == direct_bins.end()) {
        ADD_FAILURE() << "derived bin " << i << " is not in the query's";
        continue;
      }
      EXPECT_EQ(bin.c, it->second->c) << "bin " << i;
      EXPECT_TRUE(test_util::RelNear(bin.s, it->second->s, 1e-12))
          << "bin " << i;
      const size_t pos = parent_pos.at(bin.value);
      if (i > 0) {
        EXPECT_GT(pos, last_pos) << "bin " << i << " out of order";
      }
      last_pos = pos;
      stats.in_both[name] += smaller_c.count(bin.value);
    }
    for (const auto& bin : parent.at(name).bins) {
      if (direct_bins.count(bin.value) == 0) {
        stats.dropped[name].insert(bin.value);
      }
    }
    EXPECT_EQ(stats.dropped[name].size(),
              parent.at(name).bins.size() - derived.bins.size());
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
    for (int64_t bits : x0.dropped["x0"]) {
      double v;
      std::memcpy(&v, &bits, sizeof v);
      EXPECT_LE(v, 2.0);
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

// ---------------------------------------------------------------------------
// Kernel unit tests: the rules of BestSplitFromHistogram (core/split.h).
// ---------------------------------------------------------------------------

core::Histogram::Bin Bin(double val, double c, double s) {
  core::Histogram::Bin bin;
  std::memcpy(&bin.value, &val, sizeof val);
  bin.c = c;
  bin.s = s;
  return bin;
}

/// A float64 histogram holding `bins` in the given (aggregation) order.
core::Histogram Hist(std::vector<core::Histogram::Bin> bins) {
  core::Histogram hist;
  hist.type = TypeId::kFloat64;
  hist.bins = std::move(bins);
  return hist;
}

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

TEST(BatchedSplitKernelTest, NumericPrefixSumsAndArgmax) {
  core::CriterionParams p;
  p.c_total = 6;
  p.s_total = 12;
  p.min_leaf = 1;
  p.halved = true;
  // Bins arrive in group first-occurrence order, values unsorted.
  core::Histogram bins = Hist({Bin(3.0, 2, 2), Bin(1.0, 2, 8), Bin(2.0, 2, 2)});
  core::HistogramSplit hs = core::BestSplitFromHistogram(bins, false, p);
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

TEST(BatchedSplitKernelTest, TiesKeepFirstBinInGroupOrder) {
  core::CriterionParams p;
  p.c_total = 4;
  p.s_total = 0;
  p.min_leaf = 1;
  p.halved = true;
  // Symmetric histogram: cumulative (1, -1) at val=1 and (3, 1) at val=3
  // score identically (s^2/c + s^2/(C-c)); a later bin needs a strictly
  // greater criterion, so the first in bin order wins — val=3 here.
  core::Histogram bins =
      Hist({Bin(3.0, 1, 1), Bin(1.0, 1, -1), Bin(2.0, 1, 1)});
  core::HistogramSplit hs = core::BestSplitFromHistogram(bins, false, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.d, 3.0);  // first in bin order among equal criteria
  double tied = core::CriterionValue(1, -1, p);
  EXPECT_EQ(hs.criteria, tied);
}

TEST(BatchedSplitKernelTest, CategoricalSkipsPrefixSums) {
  core::CriterionParams p;
  p.c_total = 10;
  p.s_total = 10;
  p.min_leaf = 2;
  p.halved = true;
  core::Histogram bins = Hist({Bin(0, 1, 9), Bin(1, 4, 8), Bin(2, 5, -7)});
  core::HistogramSplit hs = core::BestSplitFromHistogram(bins, true, p);
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
  core::Histogram bins = Hist({Bin(1.0, 2, 2), Bin(2.0, 2, 2)});
  core::HistogramSplit hs = core::BestSplitFromHistogram(bins, false, p);
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
  core::Histogram bins = Hist({Bin(1.0, 0, 1), Bin(2.0, 1, 1)});
  core::HistogramSplit hs = core::BestSplitFromHistogram(bins, false, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.d, 1.0);
  EXPECT_TRUE(std::isnan(hs.criteria));
}

/// -0.0 and 0.0 compare equal, so `x <= -0` and `x <= 0` take the same
/// rows, but GROUP BY keeps them in two bins. In either bin order, both
/// bins must take the running sums through both: one candidate.
TEST(BatchedSplitKernelTest, SignedZerosShareOneCandidate) {
  core::CriterionParams p;
  p.c_total = 100;
  p.s_total = 300;
  p.min_leaf = 1;
  p.halved = true;
  const core::Histogram::Bin neg = Bin(-0.0, 30, 300), pos = Bin(0.0, 30, 0),
                             one = Bin(1.0, 40, 0);
  for (const bool neg_first : {true, false}) {
    SCOPED_TRACE(neg_first ? "-0.0 first" : "0.0 first");
    const core::Histogram bins =
        neg_first ? Hist({neg, pos, one}) : Hist({pos, neg, one});
    core::HistogramSplit hs = core::BestSplitFromHistogram(bins, false, p);
    ASSERT_TRUE(hs.valid);
    // x <= 1 leaves nothing right; x <= ±0 takes 60 rows and all of s.
    EXPECT_EQ(hs.val.d, 0.0);
    EXPECT_EQ(hs.c, 60.0);
    EXPECT_EQ(hs.s, 300.0);
    EXPECT_EQ(hs.criteria, core::CriterionValue(60, 300, p));
  }
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
      const std::vector<core::Histogram> hists = core::HistogramsFromResult(
          HistogramResult(std::move(values), c, s), 1);
      ASSERT_EQ(hists.size(), 1u);
      EXPECT_EQ(hists[0].bins.size(), 2u);
      core::HistogramSplit hs =
          core::BestSplitFromHistogram(hists[0], false, p);
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
  const std::vector<core::Histogram> hists = core::HistogramsFromResult(
      HistogramResult(exec::VectorData::FromCodes({kNullInt64, a, b}, dict),
                      {5, 2, 2}, {48, 2, 0}),
      1);
  ASSERT_GT(core::CriterionValue(5, 48, p), core::CriterionValue(2, 0, p));
  core::HistogramSplit hs = core::BestSplitFromHistogram(hists[0], true, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.s, "b");
  EXPECT_EQ(hs.c, 2.0);
  EXPECT_EQ(hs.criteria, core::CriterionValue(2, 0, p));
}

}  // namespace
}  // namespace joinboost
