#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/evaluate.h"
#include "core/flat_forest.h"
#include "core/session.h"
#include "factor/message_passing.h"
#include "joinboost.h"
#include "serve/serving.h"
#include "test_util.h"
#include "util/check.h"

namespace joinboost {
namespace {

using test_util::BuildSmallSnowflake;
using test_util::MakeSnowflakeDataset;

core::TrainParams SmallGbdt(int iterations = 5) {
  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = iterations;
  params.num_leaves = 4;
  params.learning_rate = 0.3;
  return params;
}

/// RowView over an ExecTable with exactly the JoinedEval::Row semantics the
/// per-row path uses: numeric = Value::AsDouble promotion, categorical = raw
/// dictionary code. The reference side of the bit-identity tests.
class TableRow : public core::RowView {
 public:
  TableRow(const exec::ExecTable* t, size_t row) : t_(t), row_(row) {}
  double GetNumeric(const std::string& feature) const override {
    int idx = t_->Find("", feature);
    JB_CHECK(idx >= 0);
    return t_->cols[static_cast<size_t>(idx)].data.GetValue(row_).AsDouble();
  }
  int64_t GetCategory(const std::string& feature) const override {
    int idx = t_->Find("", feature);
    JB_CHECK(idx >= 0);
    return (*t_->cols[static_cast<size_t>(idx)].data.ints)[row_];
  }

 private:
  const exec::ExecTable* t_;
  size_t row_;
};

// ---------------------------------------------------------------------------
// FlatForest: batched prediction must be bit-identical to per-row Predict.
// ---------------------------------------------------------------------------

TEST(FlatForestTest, BitIdenticalToPerRowPredictOnTrainedModel) {
  exec::Database db(EngineProfile::DSwap());
  BuildSmallSnowflake(&db, 11, 400);
  Dataset ds = MakeSnowflakeDataset(&db);
  TrainResult res = Train(SmallGbdt(), ds);
  ASSERT_FALSE(res.model.trees.empty());

  core::JoinedEval eval = core::MaterializeJoin(ds);
  core::FlatForest forest = core::FlatForest::Compile(res.model);
  EXPECT_EQ(forest.num_trees(), res.model.trees.size());

  std::vector<double> batched = forest.PredictBatch(eval.table());
  ASSERT_EQ(batched.size(), eval.rows());
  for (size_t r = 0; r < eval.rows(); ++r) {
    // Exact equality: same FP addition order, same null/NaN routing.
    EXPECT_EQ(batched[r], eval.Predict(res.model, r)) << "row " << r;
  }
}

TEST(FlatForestTest, RangePredictionsConcatenateToTheFullBatch) {
  exec::Database db(EngineProfile::DSwap());
  BuildSmallSnowflake(&db, 12, 257);  // odd size: uneven final chunk
  Dataset ds = MakeSnowflakeDataset(&db);
  TrainResult res = Train(SmallGbdt(3), ds);

  core::JoinedEval eval = core::MaterializeJoin(ds);
  core::FlatForest forest = core::FlatForest::Compile(res.model);
  std::vector<double> full = forest.PredictBatch(eval.table());

  std::vector<double> chunked;
  const size_t kChunk = 64;
  for (size_t begin = 0; begin < eval.rows(); begin += kChunk) {
    size_t end = std::min(begin + kChunk, eval.rows());
    forest.PredictRange(eval.table(), begin, end, &chunked);
  }
  EXPECT_EQ(chunked, full);
}

TEST(FlatForestTest, HandBuiltForestCoversCategoricalNullAndAverage) {
  // Hand-built two-tree forest exercising the paths a trained snowflake
  // model misses: categorical splits, int64 nulls routing right through the
  // NaN promotion, and random-forest averaging.
  core::Ensemble model;
  model.base_score = 10.0;
  model.average = true;

  core::TreeModel t1;  // split on categorical code 2 of "color"
  core::TreeNode root;
  root.is_leaf = false;
  root.feature = "color";
  root.categorical = true;
  root.category = 2;
  root.left = 1;
  root.right = 2;
  core::TreeNode l, r;
  l.prediction = 1.0;
  r.prediction = -1.0;
  t1.nodes = {root, l, r};
  model.trees.push_back(t1);

  core::TreeModel t2;  // numeric split: x <= 5 (nulls go right)
  core::TreeNode root2;
  root2.is_leaf = false;
  root2.feature = "x";
  root2.threshold = 5.0;
  root2.left = 1;
  root2.right = 2;
  core::TreeNode l2, r2;
  l2.prediction = 100.0;
  r2.prediction = -100.0;
  t2.nodes = {root2, l2, r2};
  model.trees.push_back(t2);

  exec::ExecTable input;
  auto dict = std::make_shared<Dictionary>();
  dict->GetOrAdd("red");    // 0
  dict->GetOrAdd("green");  // 1
  dict->GetOrAdd("blue");   // 2
  input.cols.push_back(
      {"", "color",
       exec::VectorData::FromCodes({2, 0, kNullInt64, 2}, dict)});
  input.cols.push_back(
      {"", "x", exec::VectorData::FromInts({3, 7, kNullInt64, 5})});
  input.rows = 4;

  core::FlatForest forest = core::FlatForest::Compile(model);
  std::vector<double> got = forest.PredictBatch(input);
  ASSERT_EQ(got.size(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(got[r], model.Predict(TableRow(&input, r))) << "row " << r;
  }
  // Spot-check the semantics directly: row 0 = (blue, 3) -> (+1 + 100)/2.
  EXPECT_EQ(got[0], 10.0 + (1.0 + 100.0) / 2);
  // Row 2 = (null, null): null code != 2 -> right; null x -> NaN -> right.
  EXPECT_EQ(got[2], 10.0 + (-1.0 - 100.0) / 2);
}

// ---------------------------------------------------------------------------
// ServingContext: snapshot pinning, versioned reads, counters.
// ---------------------------------------------------------------------------

exec::ExecTable FactRows(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<int64_t> k1(n), k2(n);
  std::vector<double> x0(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    k1[i] = rng.NextInt(0, 16);
    k2[i] = rng.NextInt(0, 10);
    x0[i] = rng.NextDouble() * 10;
    y[i] = rng.NextGaussian();
  }
  exec::ExecTable out;
  out.cols.push_back({"", "k1", exec::VectorData::FromInts(std::move(k1))});
  out.cols.push_back({"", "k2", exec::VectorData::FromInts(std::move(k2))});
  out.cols.push_back({"", "x0", exec::VectorData::FromDoubles(std::move(x0))});
  out.cols.push_back({"", "y", exec::VectorData::FromDoubles(std::move(y))});
  out.rows = n;
  return out;
}

TEST(ServingTest, SessionsPinTheirSnapshotAcrossAppends) {
  exec::Database db(EngineProfile::DSwap());
  BuildSmallSnowflake(&db, 21, 300);
  serve::ServingContext ctx(&db, {"fact", "d1", "d2"});

  const std::string q =
      "SELECT COUNT(*) AS c, SUM(fact.y) AS s FROM fact "
      "JOIN d1 ON fact.k1 = d1.k1";
  serve::ServingContext::Session before = ctx.OpenSession();
  auto r1 = before.Query(q);
  ASSERT_EQ(r1->rows, 1u);
  EXPECT_EQ(r1->GetValue(0, 0).i, 300);

  ctx.Append("fact", FactRows(99, 50));

  // The pinned session still sees the pre-append fact table, bit-for-bit.
  auto r2 = before.Query(q);
  EXPECT_EQ(r2->GetValue(0, 0).i, 300);
  EXPECT_EQ(r2->GetValue(0, 1).d, r1->GetValue(0, 1).d);

  // A fresh session sees the appended rows under a newer version.
  serve::ServingContext::Session after = ctx.OpenSession();
  EXPECT_GT(after.version(), before.version());
  auto r3 = after.Query(q);
  EXPECT_EQ(r3->GetValue(0, 0).i, 350);

  EXPECT_EQ(ctx.snapshots_published(), 2u);  // ctor + append
  EXPECT_EQ(ctx.snapshot_reads(), 3u);
}

TEST(ServingTest, PredictBatchServesThePinnedModel) {
  exec::Database db(EngineProfile::DSwap());
  BuildSmallSnowflake(&db, 22, 300);
  Dataset ds = MakeSnowflakeDataset(&db);
  TrainResult res = Train(SmallGbdt(4), ds);
  core::JoinedEval eval = core::MaterializeJoin(ds);

  serve::ServingContext ctx(&db, {"fact", "d1", "d2"});
  serve::ServingContext::Session unmodeled = ctx.OpenSession();
  EXPECT_THROW(unmodeled.PredictBatch(eval.table()), JbError);

  ctx.PublishModel(res.model);
  serve::ServingContext::Session s = ctx.OpenSession();
  std::vector<double> preds = s.PredictBatch(eval.table());
  ASSERT_EQ(preds.size(), eval.rows());
  for (size_t r = 0; r < eval.rows(); ++r) {
    EXPECT_EQ(preds[r], eval.Predict(res.model, r)) << "row " << r;
  }

  // A model with fewer trees published later must not affect the session
  // that pinned the full model.
  core::Ensemble prefix = res.model;
  prefix.trees.resize(1);
  ctx.PublishModel(prefix);
  std::vector<double> again = s.PredictBatch(eval.table());
  EXPECT_EQ(again, preds);
  serve::ServingContext::Session s2 = ctx.OpenSession();
  std::vector<double> pruned = s2.PredictBatch(eval.table());
  EXPECT_NE(pruned, preds);

  EXPECT_EQ(ctx.batched_predictions(), 3 * eval.rows());
}

// ---------------------------------------------------------------------------
// Stress: N reader sessions vs one writer publishing appends + new trees.
// Every session's results must be bit-identical to some published snapshot.
// Runs under TSan in the sanitizer CI config; JB_SERVE_ROUNDS deepens it.
// ---------------------------------------------------------------------------

TEST(ServingStressTest, ReadersAlwaysObserveAPublishedSnapshot) {
  exec::Database db(EngineProfile::DSwap());
  BuildSmallSnowflake(&db, 31, 300);
  Dataset ds = MakeSnowflakeDataset(&db);
  TrainResult res = Train(SmallGbdt(4), ds);
  core::JoinedEval eval = core::MaterializeJoin(ds);

  // Fixed probe batch: predictions vary only with the snapshot's model.
  exec::ExecTable probe;
  probe.cols = eval.table().cols;
  probe.rows = eval.table().rows;

  serve::ServingContext ctx(&db, {"fact", "d1", "d2"});
  const std::string q =
      "SELECT COUNT(*) AS c, SUM(fact.y) AS s FROM fact "
      "JOIN d1 ON fact.k1 = d1.k1 JOIN d2 ON fact.k2 = d2.k2";

  struct Expected {
    int64_t count = 0;
    double sum = 0;
    std::vector<double> preds;
  };
  std::mutex exp_mu;
  std::condition_variable exp_cv;
  std::map<uint64_t, Expected> expected;  // version -> reference results

  // The writer (and the main thread, for the initial snapshot) records the
  // ground truth for each version right after publishing it.
  auto record = [&](uint64_t version) {
    serve::ServingContext::Session s = ctx.OpenSession();
    ASSERT_EQ(s.version(), version);  // single writer: current == published
    auto r = s.Query(q);
    Expected e;
    e.count = r->GetValue(0, 0).i;
    e.sum = r->GetValue(0, 1).d;
    e.preds = s.PredictBatch(probe);
    {
      std::lock_guard<std::mutex> lock(exp_mu);
      expected[version] = std::move(e);
    }
    exp_cv.notify_all();
  };
  record(ctx.PublishModel(res.model)->version);

  int rounds = 6;
  if (const char* env = std::getenv("JB_SERVE_ROUNDS")) {
    rounds = std::max(1, std::atoi(env));
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < rounds; ++round) {
      uint64_t v;
      if (round % 2 == 0) {
        v = ctx.Append("fact", FactRows(1000 + static_cast<uint64_t>(round),
                                        40))
                ->version;
      } else {
        core::Ensemble prefix = res.model;
        prefix.trees.resize(1 + static_cast<size_t>(round) % res.model
                                                                 .trees.size());
        v = ctx.PublishModel(prefix)->version;
      }
      record(v);
    }
    done.store(true);
    exp_cv.notify_all();
  });

  const int kReaders = 4;
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      do {  // at least one full read even if the writer finishes first
        serve::ServingContext::Session s = ctx.OpenSession();
        auto r = s.Query(q);
        std::vector<double> preds = s.PredictBatch(probe);

        Expected e;
        {
          // The writer records each version right after publishing; wait the
          // short gap out rather than spinning.
          std::unique_lock<std::mutex> lock(exp_mu);
          exp_cv.wait(lock, [&] {
            return expected.count(s.version()) > 0;
          });
          e = expected[s.version()];
        }
        EXPECT_EQ(r->GetValue(0, 0).i, e.count) << "version " << s.version();
        EXPECT_EQ(r->GetValue(0, 1).d, e.sum) << "version " << s.version();
        EXPECT_EQ(preds, e.preds) << "version " << s.version();
        reads.fetch_add(1);
      } while (!done.load());
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  // ctor + initial model + one publish per round, no torn extras.
  EXPECT_EQ(ctx.snapshots_published(), 2u + static_cast<uint64_t>(rounds));
  // Each record() and each reader loop issues one query + one prediction.
  EXPECT_GE(ctx.snapshot_reads(),
            2u * (1u + static_cast<uint64_t>(rounds)) + 2u * reads.load());
}

// Satellite: concurrent reader vs UPDATE must never see a torn table. The
// writer bumps two columns in lockstep; any reader observing a mix of old
// and new payloads would break the a-b invariant.
TEST(ServingStressTest, SqlUpdateIsNeverTornForConcurrentReaders) {
  exec::Database db(EngineProfile::DSwap());
  const size_t kRows = 2000;
  std::vector<double> a(kRows), b(kRows);
  std::vector<int64_t> k(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    a[i] = static_cast<double>(i);
    b[i] = static_cast<double>(i) + 7;
    k[i] = static_cast<int64_t>(i);
  }
  db.RegisterTable(TableBuilder("t")
                       .AddInts("k", k)
                       .AddDoubles("a", a)
                       .AddDoubles("b", b)
                       .Build());
  const double kInvariant = -7.0 * static_cast<double>(kRows);  // Σa - Σb

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 20; ++i) {
      db.Execute("UPDATE t SET a = a + 1, b = b + 1");
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      do {
        auto r = db.Query("SELECT SUM(t.a) AS sa, SUM(t.b) AS sb FROM t");
        double sa = r->GetValue(0, 0).d;
        double sb = r->GetValue(0, 1).d;
        EXPECT_EQ(sa - sb, kInvariant)
            << "torn read: sa=" << sa << " sb=" << sb;
      } while (!done.load());
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  auto r = db.Query("SELECT SUM(t.a) AS sa FROM t");
  double expect_sa = 0;
  for (size_t i = 0; i < kRows; ++i) expect_sa += static_cast<double>(i) + 20;
  EXPECT_EQ(r->GetValue(0, 0).d, expect_sa);
}

// ---------------------------------------------------------------------------
// Satellite: the Factorizer message cache is now guarded by its own mutex.
// Concurrent aggregate requests from multiple threads must produce the same
// totals as a serial run (and race-free under TSan).
// ---------------------------------------------------------------------------

TEST(ServingStressTest, FactorizerServesConcurrentAggregateRequests) {
  exec::Database db(EngineProfile::DSwap());
  BuildSmallSnowflake(&db, 41, 300);
  Dataset ds = MakeSnowflakeDataset(&db);
  core::TrainParams params;
  params.boosting = "dt";
  core::Session session(&ds, params);
  session.Prepare();

  factor::PredicateSet none;
  semiring::VarianceElem serial =
      session.fac().TotalAggregate(session.y_fact(), none, "serial");

  session.fac().ClearCache();
  const int kThreads = 4;
  std::vector<semiring::VarianceElem> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Mix cache-missing and cache-hitting requests across threads; the
      // factorizer's mutex serializes materialization of shared messages.
      factor::PredicateSet preds;
      if (t % 2 == 1) preds.Add(0, "x0 <= 5");
      (void)session.fac().TotalAggregate(session.y_fact(), preds,
                                         "concurrent");
      got[static_cast<size_t>(t)] =
          session.fac().TotalAggregate(session.y_fact(), none, "concurrent");
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)].c, serial.c) << "thread " << t;
    EXPECT_EQ(got[static_cast<size_t>(t)].s, serial.s) << "thread " << t;
  }
}

}  // namespace
}  // namespace joinboost
