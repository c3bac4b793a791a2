// Split search: one GROUPING SETS histogram query per relation per leaf and
// a C++ threshold kernel. Full trains must pass the independent split oracle
// (split_oracle.h) and be bit-identical across {planner on/off} x {1, N
// threads}, and must issue one split query per relation per leaf. Plus unit
// coverage of the BestSplitFromHistogram kernel's rules.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/split.h"
#include "core/trainer.h"
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
/// cats[1].
void BuildCatSnowflake(Database* db, uint64_t seed, size_t rows,
                       const std::vector<std::string>& cats = {"red", "green",
                                                               "blue", "teal"},
                       double second_effect = 0.0) {
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

void ExpectModelsBitIdentical(const core::Ensemble& a, const core::Ensemble& b,
                              const std::string& label) {
  ASSERT_EQ(a.trees.size(), b.trees.size()) << label;
  EXPECT_EQ(a.base_score, b.base_score) << label;
  for (size_t t = 0; t < a.trees.size(); ++t) {
    const auto& ta = a.trees[t].nodes;
    const auto& tb = b.trees[t].nodes;
    ASSERT_EQ(ta.size(), tb.size()) << label << " tree " << t;
    for (size_t n = 0; n < ta.size(); ++n) {
      SCOPED_TRACE(label + " tree " + std::to_string(t) + " node " +
                   std::to_string(n));
      EXPECT_EQ(ta[n].is_leaf, tb[n].is_leaf);
      EXPECT_EQ(ta[n].feature, tb[n].feature);
      EXPECT_EQ(ta[n].relation, tb[n].relation);
      EXPECT_EQ(ta[n].categorical, tb[n].categorical);
      EXPECT_EQ(ta[n].threshold, tb[n].threshold);  // bit-exact doubles
      EXPECT_EQ(ta[n].category, tb[n].category);
      EXPECT_EQ(ta[n].category_str, tb[n].category_str);
      EXPECT_EQ(ta[n].gain, tb[n].gain);
      EXPECT_EQ(ta[n].prediction, tb[n].prediction);
      EXPECT_EQ(ta[n].count, tb[n].count);
      EXPECT_EQ(ta[n].sum, tb[n].sum);
    }
  }
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
      ExpectModelsBitIdentical(first, res.model, label);
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
      ExpectModelsBitIdentical(first, model, label);
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
// Kernel unit tests: the rules of BestSplitFromHistogram (core/split.h).
// ---------------------------------------------------------------------------

core::HistogramEntry Bin(Value val, double c, double s) {
  core::HistogramEntry e;
  e.val = std::move(val);
  e.c = Value::Double(c);
  e.s = Value::Double(s);
  return e;
}

core::HistogramEntry Bin(double val, double c, double s) {
  return Bin(Value::Double(val), c, s);
}

TEST(BatchedSplitKernelTest, NumericPrefixSumsAndArgmax) {
  core::CriterionParams p;
  p.c_total = 6;
  p.s_total = 12;
  p.min_leaf = 1;
  p.halved = true;
  // Bins arrive in group first-occurrence order, values unsorted.
  std::vector<core::HistogramEntry> bins = {Bin(3.0, 2, 2), Bin(1.0, 2, 8),
                                            Bin(2.0, 2, 2)};
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
  std::vector<core::HistogramEntry> bins = {Bin(3.0, 1, 1), Bin(1.0, 1, -1),
                                            Bin(2.0, 1, 1)};
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
  std::vector<core::HistogramEntry> bins = {Bin(0, 1, 9), Bin(1, 4, 8),
                                            Bin(2, 5, -7)};
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
  std::vector<core::HistogramEntry> bins = {Bin(1.0, 2, 2), Bin(2.0, 2, 2)};
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
  std::vector<core::HistogramEntry> bins = {Bin(1.0, 0, 1), Bin(2.0, 1, 1)};
  core::HistogramSplit hs = core::BestSplitFromHistogram(bins, false, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.d, 1.0);
  EXPECT_TRUE(std::isnan(hs.criteria));
}

/// A NULL bin (NaN or the int sentinel) is neither summed nor a candidate,
/// wherever it arrives: its rows stay in the totals and go right.
TEST(BatchedSplitKernelTest, NullBinsStayOutOfSumsAndCandidates) {
  core::CriterionParams p;
  p.c_total = 9;  // 5 of the 9 rows are NULL
  p.s_total = 50;
  p.min_leaf = 1;
  p.halved = true;
  for (const Value& null_val : {Value::Double(NullFloat64()),
                                Value::Int(kNullInt64)}) {
    for (size_t at = 0; at < 3; ++at) {
      SCOPED_TRACE("NULL bin at " + std::to_string(at));
      std::vector<core::HistogramEntry> bins = {Bin(1.0, 2, 2),
                                                Bin(2.0, 2, 0)};
      bins.insert(bins.begin() + static_cast<std::ptrdiff_t>(at),
                  Bin(null_val, 5, 48));
      core::HistogramSplit hs = core::BestSplitFromHistogram(bins, false, p);
      ASSERT_TRUE(hs.valid);
      // Cumulative (2, 2) at 1.0 and (4, 2) at 2.0; the NULL rows count in
      // neither.
      EXPECT_EQ(hs.val.d, 2.0);
      EXPECT_EQ(hs.c, 4.0);
      EXPECT_EQ(hs.s, 2.0);
      EXPECT_EQ(hs.criteria, core::CriterionValue(4, 2, p));
    }
  }
  // Categorical: the NULL bin scores best on its own, but the best non-NULL
  // category must win instead of no split at all.
  Value a = Value::Str("a"), b = Value::Str("b");
  a.i = 0;
  b.i = 1;
  std::vector<core::HistogramEntry> bins = {
      Bin(Value::Null(TypeId::kString), 5, 48), Bin(a, 2, 2), Bin(b, 2, 0)};
  ASSERT_GT(core::CriterionValue(5, 48, p), core::CriterionValue(2, 0, p));
  core::HistogramSplit hs = core::BestSplitFromHistogram(bins, true, p);
  ASSERT_TRUE(hs.valid);
  EXPECT_EQ(hs.val.s, "b");
  EXPECT_EQ(hs.c, 2.0);
  EXPECT_EQ(hs.criteria, core::CriterionValue(2, 0, p));
}

}  // namespace
}  // namespace joinboost
