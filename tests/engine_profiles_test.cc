#include <gtest/gtest.h>

#include "data/generators.h"
#include "joinboost.h"

namespace joinboost {
namespace {

/// Every engine profile must execute identical SQL to identical results —
/// the profiles differ in *cost structure*, never in semantics.
class ProfileEquivalenceTest
    : public ::testing::TestWithParam<EngineProfile> {};

TEST_P(ProfileEquivalenceTest, SameQueryResultsAcrossProfiles) {
  exec::Database db(GetParam());
  db.LoadTable(TableBuilder("t")
                   .AddInts("k", {1, 2, 1, 3, 2, 1})
                   .AddDoubles("v", {1.5, 2.5, 3.5, 4.5, 5.5, 6.5})
                   .Build());
  db.LoadTable(TableBuilder("d")
                   .AddInts("k", {1, 2, 3})
                   .AddStrings("name", {"a", "b", "c"})
                   .Build());

  auto agg = db.Query(
      "SELECT d.name AS name, SUM(t.v) AS s, COUNT(*) AS c "
      "FROM t JOIN d ON t.k = d.k GROUP BY d.name ORDER BY name");
  ASSERT_EQ(agg->rows, 3u);
  EXPECT_DOUBLE_EQ(agg->GetValue(0, 1).d, 11.5);  // a: 1.5+3.5+6.5
  EXPECT_EQ(agg->GetValue(0, 2).i, 3);
  EXPECT_DOUBLE_EQ(agg->GetValue(1, 1).d, 8.0);   // b: 2.5+5.5
  EXPECT_DOUBLE_EQ(agg->GetValue(2, 1).d, 4.5);   // c

  db.Execute("CREATE TABLE t2 AS SELECT k, v * 2 AS v FROM t WHERE k <> 3");
  EXPECT_DOUBLE_EQ(db.QueryScalarDouble("SELECT SUM(v) AS s FROM t2"), 39.0);

  auto upd = db.Execute("UPDATE t2 SET v = v + 1 WHERE k = 1");
  EXPECT_EQ(upd.affected, 3u);
  EXPECT_DOUBLE_EQ(db.QueryScalarDouble("SELECT SUM(v) AS s FROM t2"), 42.0);
}

TEST_P(ProfileEquivalenceTest, TrainingIdenticalModelsAcrossProfiles) {
  exec::Database db(GetParam());
  data::FavoritaConfig config;
  config.sales_rows = 3000;
  config.num_items = 40;
  config.num_stores = 6;
  config.num_dates = 30;
  config.extra_features_per_dim = 0;
  Dataset ds = data::MakeFavorita(&db, config);

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 3;
  params.num_leaves = 4;
  params.update_strategy = "auto";  // resolves per profile capability
  TrainResult res = Train(params, ds);

  core::JoinedEval eval = core::MaterializeJoin(ds);
  auto curve = eval.RmseCurve(res.model);
  EXPECT_LT(curve.back(), curve.front());
  // Store the rmse in a static map keyed by nothing: instead assert a fixed
  // deterministic value band shared by all profiles via the curve monotony
  // plus exact model agreement with the reference profile below.
  static double reference_rmse = -1;
  if (reference_rmse < 0) {
    reference_rmse = curve.back();
  } else {
    EXPECT_NEAR(curve.back(), reference_rmse, 1e-9);
  }
}

/// An EngineProfile that gtest prints as its name. ctest names each
/// value-parameterized test after its printed parameter, and gtest's default
/// byte dump of an EngineProfile begins with a heap pointer, so those names
/// change from one build to the next.
struct NamedProfile : EngineProfile {};

void PrintTo(const NamedProfile& profile, std::ostream* os) {
  *os << profile.name;
}

class ProfileNullKeyTest : public ::testing::TestWithParam<NamedProfile> {};

// A NULL join key matches nothing, not even another NULL, as in SQL; a left
// join null-extends its row. GROUP BY keeps one NULL group. Int keys take
// the array path on columnar profiles and the hash path under X-row; double
// keys take the hash path everywhere.
TEST_P(ProfileNullKeyTest, NullJoinKeysMatchNothing) {
  for (bool planner : {true, false}) {
    SCOPED_TRACE(planner ? "planner on" : "planner off");
    EngineProfile profile = GetParam();
    profile.use_planner = planner;
    exec::Database db(profile);
    const double nan = NullFloat64();
    db.LoadTable(TableBuilder("a")
                     .AddInts("k", {1, kNullInt64, 2})
                     .AddDoubles("x", {1.0, nan, 2.0})
                     .Build());
    db.LoadTable(TableBuilder("b")
                     .AddInts("k", {kNullInt64, 1})
                     .AddDoubles("x", {nan, 1.0})
                     .AddInts("tag", {10, 20})
                     .Build());
    auto count = [&](const std::string& sql) {
      return db.QueryScalarDouble(sql);
    };
    for (const char* key : {"k", "x"}) {
      SCOPED_TRACE(key);
      const std::string on =
          std::string(" ON a.") + key + " = b." + key;
      EXPECT_EQ(count("SELECT COUNT(*) AS c FROM a JOIN b" + on), 1);
      EXPECT_EQ(count("SELECT COUNT(*) AS c FROM a SEMI JOIN b" + on), 1);
      EXPECT_EQ(count("SELECT COUNT(*) AS c FROM a ANTI JOIN b" + on), 2);
      EXPECT_EQ(count("SELECT COUNT(*) AS c FROM a LEFT JOIN b" + on), 3);
      EXPECT_EQ(count("SELECT COUNT(b.tag) AS c FROM a LEFT JOIN b" + on), 1);
      EXPECT_EQ(count(std::string("SELECT COUNT(*) AS c FROM a WHERE a.") +
                      key + " IN (SELECT b." + key + " FROM b)"),
                1);
    }
    db.LoadTable(TableBuilder("g")
                     .AddInts("k", {1, kNullInt64, 2, kNullInt64, 1})
                     .AddDoubles("x", {1.0, nan, 2.0, nan, 1.0})
                     .Build());
    for (const char* key : {"k", "x"}) {
      SCOPED_TRACE(key);
      auto groups = db.Query(std::string("SELECT g.") + key +
                             " AS key, COUNT(*) AS c FROM g GROUP BY g." +
                             key);
      ASSERT_EQ(groups->rows, 3u);  // 1, NULL, 2 in first-occurrence order
      EXPECT_TRUE(groups->GetValue(1, 0).null);
      EXPECT_EQ(groups->GetValue(1, 1).i, 2);
      EXPECT_EQ(groups->GetValue(0, 1).i, 2);
      EXPECT_EQ(groups->GetValue(2, 1).i, 1);
      EXPECT_EQ(count(std::string("SELECT COUNT(*) AS c FROM (SELECT "
                                  "DISTINCT g.") +
                      key + " FROM g)"),
                3);
    }
  }
}

template <typename Profile>
std::string ProfileParamName(const ::testing::TestParamInfo<Profile>& info) {
  std::string name = info.param.name;
  for (auto& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ProfileEquivalenceTest,
    ::testing::Values(EngineProfile::XCol(), EngineProfile::XRow(),
                      EngineProfile::DDisk(), EngineProfile::DMem(),
                      EngineProfile::DSwap()),
    ProfileParamName<EngineProfile>);

INSTANTIATE_TEST_SUITE_P(
    Profiles, ProfileNullKeyTest,
    ::testing::Values(NamedProfile{EngineProfile::XCol()},
                      NamedProfile{EngineProfile::XRow()},
                      NamedProfile{EngineProfile::DDisk()},
                      NamedProfile{EngineProfile::DMem()},
                      NamedProfile{EngineProfile::DSwap()}),
    ProfileParamName<NamedProfile>);

TEST(ProfileBehaviourTest, WalRecordsUpdates) {
  exec::Database db(EngineProfile::DDisk());
  db.LoadTable(
      TableBuilder("t").AddInts("k", {1, 2}).AddDoubles("v", {1, 2}).Build());
  size_t before = db.wal().num_records();
  db.Execute("UPDATE t SET v = v + 1");
  EXPECT_GT(db.wal().num_records(), before);
  EXPECT_EQ(db.wal().VerifyAll(), db.wal().num_records());
}

TEST(ProfileBehaviourTest, MvccVersionsUpdates) {
  exec::Database db(EngineProfile::DMem());
  db.LoadTable(
      TableBuilder("t").AddInts("k", {1, 2}).AddDoubles("v", {1, 2}).Build());
  db.Execute("UPDATE t SET v = v + 1 WHERE k = 1");
  EXPECT_EQ(db.versions().num_undo_records(), 1u);
  VersionStore::Undo undo;
  ASSERT_TRUE(db.versions().PopLast(&undo));
  EXPECT_EQ(undo.old_doubles, (std::vector<double>{1.0}));
}

TEST(ProfileBehaviourTest, CompressionAppliedAtRest) {
  exec::Database db(EngineProfile::DDisk());
  std::vector<int64_t> k(50000, 3);
  db.LoadTable(TableBuilder("t").AddInts("k", k).Build());
  auto t = db.catalog().Get("t");
  EXPECT_TRUE(t->column("k")->encoded());
  EXPECT_LT(t->ByteSize(), 50000 * 8 / 8);  // constant column packs tightly
}

TEST(ProfileBehaviourTest, DoublesStayPlainWhileIntsEncode) {
  // No double codec shrinks float columns, so every write path of a
  // compressing profile leaves them plain at 8 bytes per value, while int
  // columns keep frame-of-reference encoding.
  for (const EngineProfile& profile :
       {EngineProfile::DSwap(), EngineProfile::XCol()}) {
    SCOPED_TRACE(profile.name);
    exec::Database db(profile);
    auto check = [&](const std::string& name) {
      auto table = db.catalog().Get(name);
      for (size_t i = 0; i < table->num_columns(); ++i) {
        SCOPED_TRACE(name + "." + table->schema().field(i).name);
        const auto& col = table->column(i);
        if (col->type() == TypeId::kFloat64) {
          EXPECT_FALSE(col->encoded());
          EXPECT_EQ(col->ByteSize(), col->size() * 8);
        } else {
          EXPECT_TRUE(col->encoded());
        }
      }
    };
    std::vector<int64_t> k(10000);
    std::vector<double> v(10000);
    for (size_t i = 0; i < k.size(); ++i) {
      k[i] = static_cast<int64_t>(i % 7);
      v[i] = 0.5 * static_cast<double>(i);
    }
    db.LoadTable(TableBuilder("t").AddInts("k", k).AddDoubles("v", v).Build());
    check("t");
    db.Execute("CREATE TABLE c AS SELECT k, v * 2 AS w FROM t");
    check("c");
    db.Execute("UPDATE t SET v = v + 1, k = k + 1 WHERE k = 3");
    check("t");
  }
}

TEST(ProfileBehaviourTest, SwapRequiresCapability) {
  exec::Database db(EngineProfile::DMem());  // no column swap
  db.LoadTable(TableBuilder("a").AddDoubles("v", {1}).Build());
  db.LoadTable(TableBuilder("b").AddDoubles("v", {2}).Build());
  EXPECT_THROW(db.SwapColumns("a", "v", "b", "v"), JbError);
}

}  // namespace
}  // namespace joinboost
