#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "core/evaluate.h"
#include "core/session.h"
#include "factor/message_passing.h"
#include "joinboost.h"
#include "util/rng.h"

namespace joinboost {
namespace {

/// Random acyclic join graph: a chain or star of `k` relations with random
/// (possibly duplicated) keys so join multiplicities exceed 1, Y on relation
/// 0. This is the general (non-snowflake) message-passing stress case.
struct RandomGraph {
  std::unique_ptr<exec::Database> db;
  std::unique_ptr<Dataset> ds;
};

RandomGraph MakeRandomGraph(uint64_t seed, bool chain) {
  RandomGraph out;
  out.db = std::make_unique<exec::Database>();
  Rng rng(seed);
  const int k = 4;
  std::vector<std::string> names;
  for (int r = 0; r < k; ++r) {
    std::string name = "rel" + std::to_string(r);
    size_t rows = 20 + rng.NextBounded(30);
    std::vector<int64_t> key(rows), key2(rows);
    std::vector<double> feat(rows), y(rows);
    for (size_t i = 0; i < rows; ++i) {
      key[i] = rng.NextInt(0, 5);   // duplicates => multiplicities
      key2[i] = rng.NextInt(0, 5);
      feat[i] = static_cast<double>(rng.NextInt(1, 50));
      y[i] = rng.NextGaussian() * 3;
    }
    TableBuilder builder(name);
    builder.AddInts("k" + std::to_string(r), key);
    if (r + 1 < k) builder.AddInts("k" + std::to_string(r + 1), key2);
    builder.AddDoubles("f" + std::to_string(r), feat);
    if (r == 0) builder.AddDoubles("y", y);
    out.db->RegisterTable(builder.Build());
    names.push_back(name);
  }
  out.ds = std::make_unique<Dataset>(out.db.get());
  for (int r = 0; r < k; ++r) {
    out.ds->AddTable(names[static_cast<size_t>(r)],
                     {"f" + std::to_string(r)}, r == 0 ? "y" : "");
  }
  if (chain) {
    // rel0 -k1- rel1 -k2- rel2 -k3- rel3
    for (int r = 0; r + 1 < k; ++r) {
      out.ds->AddJoin(names[static_cast<size_t>(r)],
                      names[static_cast<size_t>(r + 1)],
                      {"k" + std::to_string(r + 1)});
    }
  } else {
    // star around rel0? rel0 only has k0,k1 — use chain edges shuffled is
    // equivalent; keep chain topology but pick a middle root later.
    for (int r = 0; r + 1 < k; ++r) {
      out.ds->AddJoin(names[static_cast<size_t>(r)],
                      names[static_cast<size_t>(r + 1)],
                      {"k" + std::to_string(r + 1)});
    }
  }
  return out;
}

class MessagePassingPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(MessagePassingPropertyTest, FactorizedEqualsMaterializedAggregates) {
  RandomGraph g = MakeRandomGraph(GetParam(), true);
  core::TrainParams params;
  params.boosting = "dt";
  params.track_q = true;
  core::Session session(g.ds.get(), params);
  session.Prepare();

  // Every relation works as a message-passing root (paper §3.1: any relation
  // containing the grouping attribute can be the root).
  core::JoinedEval eval = core::MaterializeJoin(*g.ds);
  double c = static_cast<double>(eval.rows());
  double s = 0, q = 0;
  for (size_t i = 0; i < eval.rows(); ++i) {
    s += eval.YValue(i);
    q += eval.YValue(i) * eval.YValue(i);
  }
  factor::PredicateSet none;
  for (size_t root = 0; root < g.ds->graph().num_relations(); ++root) {
    semiring::VarianceElem tot = session.fac().TotalAggregate(
        static_cast<int>(root), none, "test");
    EXPECT_NEAR(tot.c, c, 1e-6 * std::max(1.0, c)) << "root " << root;
    EXPECT_NEAR(tot.s, s, 1e-6 * std::max(1.0, std::fabs(s)))
        << "root " << root;
    EXPECT_NEAR(tot.q, q, 1e-6 * std::max(1.0, std::fabs(q)))
        << "root " << root;
  }
}

TEST_P(MessagePassingPropertyTest, PredicatesMatchMaterializedFilter) {
  RandomGraph g = MakeRandomGraph(GetParam() ^ 0xABC, true);
  core::TrainParams params;
  params.boosting = "dt";
  core::Session session(g.ds.get(), params);
  session.Prepare();

  // Predicate on a non-root relation: γ(σ_{f2<=25}(R⋈)).
  factor::PredicateSet preds;
  preds.Add(2, "f2 <= 25");
  semiring::VarianceElem tot =
      session.fac().TotalAggregate(session.y_fact(), preds, "test");

  core::JoinedEval eval = core::MaterializeJoin(*g.ds);
  int f2_idx = eval.table().Find("", "f2");
  ASSERT_GE(f2_idx, 0);
  double c = 0, s = 0;
  for (size_t i = 0; i < eval.rows(); ++i) {
    double f2 =
        eval.table().cols[static_cast<size_t>(f2_idx)].data.GetValue(i)
            .AsDouble();
    if (f2 <= 25) {
      c += 1;
      s += eval.YValue(i);
    }
  }
  EXPECT_NEAR(tot.c, c, 1e-6 * std::max(1.0, c));
  EXPECT_NEAR(tot.s, s, 1e-6 * std::max(1.0, std::fabs(s)));
}

TEST_P(MessagePassingPropertyTest, CacheHitsOnRepeatedRequests) {
  RandomGraph g = MakeRandomGraph(GetParam() ^ 0x123, true);
  core::TrainParams params;
  params.boosting = "dt";
  core::Session session(g.ds.get(), params);
  session.Prepare();

  factor::PredicateSet none;
  session.fac().TotalAggregate(0, none, "test");
  size_t misses_before = session.fac().cache_misses();
  session.fac().TotalAggregate(0, none, "test");
  EXPECT_EQ(session.fac().cache_misses(), misses_before);
  EXPECT_GT(session.fac().cache_hits(), 0u);

  // A predicate on relation 3 only affects messages whose subtree covers
  // rel 3: aggregating at root 3 reuses every message flowing 0->1->2->3
  // (this is exactly the parent/child sharing of §5.5.1, Figure 6).
  session.fac().TotalAggregate(3, none, "test");  // warm the 0->..->3 chain
  factor::PredicateSet preds;
  preds.Add(3, "f3 <= 25");
  size_t hits_before = session.fac().cache_hits();
  size_t misses2 = session.fac().cache_misses();
  session.fac().TotalAggregate(3, preds, "test");
  EXPECT_GT(session.fac().cache_hits(), hits_before);
  EXPECT_EQ(session.fac().cache_misses(), misses2);  // all messages reused
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessagePassingPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(MessagePassingTest, EpochBumpInvalidatesMessages) {
  exec::Database db;
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("k", {1, 1, 2})
                       .AddDoubles("y", {1.0, 2.0, 3.0})
                       .Build());
  db.RegisterTable(
      TableBuilder("dim").AddInts("k", {1, 2}).AddDoubles("f", {5, 6}).Build());
  Dataset ds(&db);
  ds.AddTable("fact", {}, "y");
  ds.AddTable("dim", {"f"});
  ds.AddJoin("fact", "dim", {"k"});

  core::TrainParams params;
  params.boosting = "dt";
  core::Session session(&ds, params);
  session.Prepare();

  factor::PredicateSet none;
  semiring::VarianceElem before =
      session.fac().TotalAggregate(1, none, "test");
  EXPECT_NEAR(before.s, 6.0, 1e-9);

  // Mutate the lifted fact annotations; without an epoch bump the cached
  // message toward dim would serve stale data.
  db.Execute("UPDATE " + session.FactTable(session.y_fact()) +
             " SET s = s + 1.0");
  session.fac().BumpEpoch(session.y_fact());
  semiring::VarianceElem after = session.fac().TotalAggregate(1, none, "test");
  EXPECT_NEAR(after.s, 9.0, 1e-9);
}

TEST(MessagePassingTest, IdentityMessageDropped) {
  // Unpredicated unique-key complete dimension: the message is elided
  // entirely (Appendix D.2).
  exec::Database db;
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("k", {1, 1, 2})
                       .AddDoubles("y", {1.0, 2.0, 3.0})
                       .Build());
  db.RegisterTable(
      TableBuilder("dim").AddInts("k", {1, 2}).AddDoubles("f", {5, 6}).Build());
  Dataset ds(&db);
  ds.AddTable("fact", {}, "y");
  ds.AddTable("dim", {"f"});
  ds.AddJoin("fact", "dim", {"k"});
  core::TrainParams params;
  params.boosting = "dt";
  core::Session session(&ds, params);
  session.Prepare();

  factor::PredicateSet none;
  factor::Message m = session.fac().GetMessage(1, 0, none, "test");
  EXPECT_EQ(m.kind, factor::Message::Kind::kNone);

  // With a predicate it becomes a semi-join selection message.
  factor::PredicateSet preds;
  preds.Add(1, "f <= 5");
  factor::Message sel = session.fac().GetMessage(1, 0, preds, "test");
  EXPECT_EQ(sel.kind, factor::Message::Kind::kSelection);
}

TEST(MessagePassingTest, MissingKeysForceFullMessage) {
  // dim lacks k=2: dropping its message would over-count; a full message
  // (or selection) must be produced instead.
  exec::Database db;
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("k", {1, 1, 2})
                       .AddDoubles("y", {1.0, 2.0, 3.0})
                       .Build());
  db.RegisterTable(
      TableBuilder("dim").AddInts("k", {1}).AddDoubles("f", {5}).Build());
  Dataset ds(&db);
  ds.AddTable("fact", {}, "y");
  ds.AddTable("dim", {"f"});
  ds.AddJoin("fact", "dim", {"k"});
  core::TrainParams params;
  params.boosting = "dt";
  core::Session session(&ds, params);
  session.Prepare();

  factor::PredicateSet none;
  factor::Message m = session.fac().GetMessage(1, 0, none, "test");
  EXPECT_NE(m.kind, factor::Message::Kind::kNone);

  semiring::VarianceElem tot =
      session.fac().TotalAggregate(session.y_fact(), none, "test");
  EXPECT_NEAR(tot.c, 2.0, 1e-9);  // the k=2 fact row does not join
  EXPECT_NEAR(tot.s, 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Shared-scan messages: a leaf's same-input misses (and the fact's own
// histogram) are computed by one GROUPING SETS statement, then split.
// ---------------------------------------------------------------------------

/// Star around `fact` (9,000 rows, enough for the fact histogram to share
/// the scan): dimensions da and db on their own keys, dd1 and dd2 both on
/// k_d — two messages with one key list. Relation ids follow AddTable order.
class SharedScanTest : public ::testing::Test {
 protected:
  static constexpr int kFact = 0, kDa = 1, kDb = 2, kDd1 = 3, kDd2 = 4;

  void SetUp() override { Build(9000); }

  void Build(size_t rows) {
    session_.reset();  // the session cleans up through ds_ and db_
    ds_.reset();
    db_ = std::make_unique<exec::Database>();
    Rng rng(2468);
    std::vector<int64_t> ka(rows), kb(rows), kd(rows);
    std::vector<double> x0(rows), y(rows);
    for (size_t i = 0; i < rows; ++i) {
      ka[i] = rng.NextInt(0, 39);
      kb[i] = rng.NextInt(0, 19);
      kd[i] = rng.NextInt(0, 59);
      x0[i] = static_cast<double>(rng.NextInt(0, 9));
      y[i] = 0.1 * static_cast<double>(ka[i]) + x0[i] + rng.NextGaussian();
    }
    db_->RegisterTable(TableBuilder("fact")
                           .AddInts("k_a", ka)
                           .AddInts("k_b", kb)
                           .AddInts("k_d", kd)
                           .AddDoubles("x0", x0)
                           .AddDoubles("y", y)
                           .Build());
    auto dim = [&](const std::string& name, const std::string& key,
                   const std::string& feat, int64_t n) {
      std::vector<int64_t> k;
      std::vector<double> f;
      for (int64_t i = 0; i < n; ++i) {
        k.push_back(i);
        f.push_back(static_cast<double>(rng.NextInt(1, 100)));
      }
      db_->RegisterTable(TableBuilder(name).AddInts(key, k).AddDoubles(feat, f)
                             .Build());
    };
    dim("da", "k_a", "fa", 40);
    dim("db", "k_b", "fb", 20);
    dim("dd1", "k_d", "fd1", 60);
    dim("dd2", "k_d", "fd2", 60);
    ds_ = std::make_unique<Dataset>(db_.get());
    ds_->AddTable("fact", {"x0"}, "y");
    ds_->AddTable("da", {"fa"});
    ds_->AddTable("db", {"fb"});
    ds_->AddTable("dd1", {"fd1"});
    ds_->AddTable("dd2", {"fd2"});
    ds_->AddJoin("fact", "da", {"k_a"});
    ds_->AddJoin("fact", "db", {"k_b"});
    ds_->AddJoin("fact", "dd1", {"k_d"});
    ds_->AddJoin("fact", "dd2", {"k_d"});
    core::TrainParams params;
    params.boosting = "gbdt";
    session_ = std::make_unique<core::Session>(ds_.get(), params);
    session_->Prepare();
  }

  /// The predicated leaf: fa <= 50 turns da's message into a selector.
  factor::PredicateSet LeafPreds() const {
    factor::PredicateSet preds;
    preds.Add(kDa, "fa <= 50");
    return preds;
  }

  std::vector<factor::HistogramRequest> Requests() const {
    return {{kFact, {"x0"}}, {kDa, {"fa"}}, {kDb, {"fb"}},
            {kDd1, {"fd1"}}, {kDd2, {"fd2"}}};
  }

  /// Shared-scan tables still registered in the catalog.
  size_t SharedTablesLeft() const {
    size_t n = 0;
    for (const auto& t : db_->catalog().ListTables()) {
      if (t.find("_sets") != std::string::npos) ++n;
    }
    return n;
  }

  /// Statements logged under `tag` that scan the lifted fact.
  size_t FactPasses(const std::string& tag) const {
    const std::string from = "FROM " + session_->FactTable(kFact) + " ";
    size_t n = 0;
    for (const auto& e : db_->QueryLog()) {
      if (e.tag == tag && e.sql.find(from) != std::string::npos) ++n;
    }
    return n;
  }

  std::unique_ptr<exec::Database> db_;
  std::unique_ptr<Dataset> ds_;
  std::unique_ptr<core::Session> session_;
};

/// Row-by-row equality, doubles compared bit for bit.
void ExpectSameRows(const exec::ExecTable& got, const exec::ExecTable& want,
                    const std::string& label) {
  ASSERT_EQ(got.cols.size(), want.cols.size()) << label;
  ASSERT_EQ(got.rows, want.rows) << label;
  for (size_t c = 0; c < want.cols.size(); ++c) {
    EXPECT_EQ(got.cols[c].name, want.cols[c].name) << label;
    for (size_t r = 0; r < want.rows; ++r) {
      Value g = got.GetValue(r, c), w = want.GetValue(r, c);
      ASSERT_EQ(g.type, w.type) << label << " col " << c;
      ASSERT_EQ(g.null, w.null) << label << " row " << r << " col " << c;
      if (w.null) continue;
      EXPECT_EQ(g.i, w.i) << label << " row " << r << " col " << c;
      EXPECT_EQ(std::memcmp(&g.d, &w.d, sizeof(double)), 0)
          << label << " row " << r << " col " << c;
      EXPECT_EQ(g.s, w.s) << label << " row " << r << " col " << c;
    }
  }
}

TEST_F(SharedScanTest, SharedMessagesMatchStandaloneGroupBy) {
  factor::Factorizer& fac = session_->fac();
  const factor::PredicateSet preds = LeafPreds();
  factor::LeafHistograms hists =
      fac.BatchedHistograms(Requests(), preds, "message");
  ASSERT_EQ(hists.sql.size(), 5u);
  ASSERT_EQ(hists.shared_tables.size(), 1u);

  // Each message comes back from the cache; its table must hold exactly
  // what the single-message GROUP BY computes, in the same row order.
  const std::string f = session_->FactTable(kFact);
  factor::Message sel = fac.GetMessage(kDa, kFact, preds, "test");
  ASSERT_EQ(sel.kind, factor::Message::Kind::kSelection);
  const std::string semi = " SEMI JOIN " + sel.table + " ON " + f +
                           ".k_a = " + sel.table + ".k_a";
  struct Expect {
    int to;
    std::string key;
    std::string join;
  };
  const Expect expects[] = {
      {kDa, "k_a", ""}, {kDb, "k_b", semi}, {kDd1, "k_d", semi},
      {kDd2, "k_d", semi}};
  for (const Expect& e : expects) {
    factor::Message m = fac.GetMessage(kFact, e.to, preds, "test");
    ASSERT_EQ(m.kind, factor::Message::Kind::kFull);
    const std::string key = f + "." + e.key;
    const std::string standalone = "SELECT " + key + ", SUM(1) AS c, SUM(" +
                                   f + ".s) AS s FROM " + f + e.join +
                                   " GROUP BY " + key;
    ExpectSameRows(*db_->Query("SELECT * FROM " + m.table),
                   *db_->Query(standalone),
                   "message to " + std::to_string(e.to));
  }

  // The fact's histogram reads its sets back from the shared table, renumbered
  // like its own GROUPING SETS query.
  EXPECT_NE(hists.sql[0].find(hists.shared_tables[0]), std::string::npos);
  ExpectSameRows(*db_->Query(hists.sql[0]),
                 *db_->Query("SELECT GROUPING_ID() AS set_id, x0, SUM(1) AS c, "
                             "SUM(" + f + ".s) AS s FROM " + f + semi +
                             " GROUP BY GROUPING SETS ((x0))"),
                 "fact histogram");
  fac.ReleaseShared(hists);
  EXPECT_EQ(SharedTablesLeft(), 0u);
}

TEST_F(SharedScanTest, OneFactPassPerDistinctInput) {
  session_->fac().BatchedHistograms(Requests(), LeafPreds(), "message");
  // Inputs: the fact semi-joined with da's selector (messages to db, dd1,
  // dd2 and the fact histogram) and the bare fact (message to da). One
  // statement each; computed one by one they were five.
  EXPECT_EQ(FactPasses("message"), 2u);
}

TEST_F(SharedScanTest, SameKeyListSharesOneTable) {
  factor::Factorizer& fac = session_->fac();
  const factor::PredicateSet preds = LeafPreds();
  fac.ReleaseShared(fac.BatchedHistograms(Requests(), preds, "message"));
  factor::Message to_dd1 = fac.GetMessage(kFact, kDd1, preds, "test");
  factor::Message to_dd2 = fac.GetMessage(kFact, kDd2, preds, "test");
  EXPECT_EQ(to_dd1.table, to_dd2.table);
  // ...and one grouping set between them.
  const std::string set = "(" + session_->FactTable(kFact) + ".k_d)";
  for (const auto& e : db_->QueryLog()) {
    if (e.sql.find("GROUPING SETS") == std::string::npos) continue;
    if (e.sql.find("CREATE TABLE") == std::string::npos) continue;
    EXPECT_EQ(e.sql.find(set), e.sql.rfind(set)) << e.sql;
  }
}

TEST_F(SharedScanTest, AllCacheHitsIssueNoSharedStatement) {
  factor::Factorizer& fac = session_->fac();
  fac.ReleaseShared(
      fac.BatchedHistograms(Requests(), LeafPreds(), "message"));
  const size_t misses = fac.cache_misses();
  factor::LeafHistograms again =
      fac.BatchedHistograms(Requests(), LeafPreds(), "again");
  EXPECT_EQ(fac.cache_misses(), misses);
  EXPECT_EQ(db_->CountForTag("again"), 0u);
  EXPECT_TRUE(again.shared_tables.empty());
  EXPECT_EQ(again.sql[0].find("_sets"), std::string::npos) << again.sql[0];
}

TEST_F(SharedScanTest, SmallRelationHistogramKeepsItsOwnQuery) {
  Build(1000);  // below the row count where a shared histogram pays
  factor::LeafHistograms hists =
      session_->fac().BatchedHistograms(Requests(), LeafPreds(), "message");
  EXPECT_TRUE(hists.shared_tables.empty());
  EXPECT_EQ(hists.sql[0].find("_sets"), std::string::npos);
  EXPECT_NE(hists.sql[0].find("GROUP BY GROUPING SETS"), std::string::npos);
  // The messages still share their scan: combined + bare-fact message. With
  // no histogram to read it, the shared table is dropped after the splits.
  EXPECT_EQ(FactPasses("message"), 2u);
  EXPECT_EQ(SharedTablesLeft(), 0u);
}

TEST_F(SharedScanTest, FailedSharedStatementLeavesNoDanglingCacheEntry) {
  factor::Factorizer& fac = session_->fac();
  factor::PredicateSet bad = LeafPreds();
  bad.Add(kFact, "no_such_column > 0");
  EXPECT_ANY_THROW(fac.BatchedHistograms(Requests(), bad, "message"));
  // Had the failed walk left its planned entries cached, this would return
  // a message naming a table that was never created instead of retrying.
  EXPECT_ANY_THROW(fac.GetMessage(kFact, kDb, bad, "message"));
  // A valid leaf still trains over the same factorizer.
  factor::LeafHistograms ok =
      fac.BatchedHistograms(Requests(), LeafPreds(), "message");
  for (const auto& sql : ok.sql) EXPECT_GE(db_->Query(sql)->rows, 1u);
  fac.ReleaseShared(ok);
}

}  // namespace
}  // namespace joinboost
