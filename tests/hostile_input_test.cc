#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/morsel.h"
#include "joinboost.h"
#include "split_oracle.h"
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

TEST(HostileInputTest, TargetOutsideTheObjectiveDomainIsRejected) {
  // Log-link objectives: poisson and tweedie need y >= 0, gamma y > 0.
  struct Case {
    const char* objective;
    const char* bad_y;
  };
  for (const Case& c : {Case{"poisson", "-1.5"}, Case{"tweedie", "-0.25"},
                        Case{"gamma", "0.0"}}) {
    SCOPED_TRACE(c.objective);
    exec::Database db(EngineProfile::DSwap());
    test_util::BuildSmallSnowflake(&db, 3, 200);
    db.Execute("UPDATE fact SET y = ABS(y) + 1.0");
    db.Execute(std::string("UPDATE fact SET y = ") + c.bad_y +
               " WHERE k1 = 2");
    Dataset ds = test_util::MakeSnowflakeDataset(&db);
    core::TrainParams params;
    params.num_iterations = 2;
    params.objective = c.objective;
    const size_t statements = db.QueryLog().size();
    try {
      Train(params, ds);
      ADD_FAILURE() << "training accepted a target outside the domain";
    } catch (const JbError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.objective), std::string::npos) << what;
      EXPECT_NE(what.find("fact.y"), std::string::npos) << what;
    }
    EXPECT_EQ(db.QueryLog().size(), statements) << "SQL ran before the check";
  }
}

/// Σ (y − prediction of the first `t` trees) over the materialized join:
/// the residual sum that tree `t`'s root must start from.
double ResidualSum(const core::Ensemble& model, size_t t,
                   const core::JoinedEval& eval) {
  core::Ensemble prefix = model;
  prefix.trees.resize(t);
  double sum = 0;
  for (size_t r = 0; r < eval.rows(); ++r) {
    sum += eval.YValue(r) - eval.Predict(prefix, r);
  }
  return sum;
}

/// d1 rebuilt with a categorical feature `c1` that is NULL for keys 5 and
/// 6. With `null_signal` false, the fact rows of category 'a' get a far
/// larger target, so the first split is c1 = 'a' and the NULL rows belong
/// to its right child. With it true, the NULL rows get that target instead:
/// the NULL bin scores best, yet no split can select it, so the best split
/// is c1 = 'b' (NULL rows right, with 'a').
void AddNullCategory(exec::Database* db, bool null_signal) {
  auto dict = std::make_shared<Dictionary>();
  std::vector<int64_t> keys, codes;
  for (int64_t k = 0; k < 17; ++k) {
    keys.push_back(k);
    codes.push_back(k == 5 || k == 6 ? kNullInt64
                                     : dict->GetOrAdd(k % 3 == 0 ? "a" : "b"));
  }
  Schema schema;
  schema.AddField({"k1", TypeId::kInt64});
  schema.AddField({"c1", TypeId::kString});
  std::vector<ColumnPtr> cols = {
      ColumnBuilder(TypeId::kInt64).AppendInts(std::move(keys)).Build(),
      ColumnBuilder(TypeId::kString, dict).AppendCodes(std::move(codes)).Build()};
  db->catalog().Drop("d1");
  db->RegisterTable(std::make_shared<Table>("d1", schema, std::move(cols)));
  db->Execute(null_signal
                  ? "UPDATE fact SET y = y + 50 WHERE k1 IN (5, 6)"
                  : "UPDATE fact SET y = y + 50 WHERE k1 IN (0, 3, 9, 12, 15)");
}

/// fact rebuilt with an int64 feature `xi` = floor(10·x0) that is NULL on
/// every fifth row; those rows get a far larger target.
void AddNullInt(exec::Database* db) {
  auto res = db->Query("SELECT k1, k2, x0, y FROM fact");
  std::vector<int64_t> k1, k2, xi;
  std::vector<double> x0, y;
  for (size_t r = 0; r < res->rows; ++r) {
    const bool null = r % 5 == 0;
    k1.push_back(res->GetValue(r, 0).i);
    k2.push_back(res->GetValue(r, 1).i);
    x0.push_back(res->GetValue(r, 2).d);
    xi.push_back(null ? kNullInt64
                      : static_cast<int64_t>(std::floor(10 * x0.back())));
    y.push_back(res->GetValue(r, 3).d + (null ? 50 : 0));
  }
  db->catalog().Drop("fact");
  db->RegisterTable(TableBuilder("fact")
                        .AddInts("k1", k1)
                        .AddInts("k2", k2)
                        .AddDoubles("x0", x0)
                        .AddInts("xi", xi)
                        .AddDoubles("y", y)
                        .Build());
}

TEST(HostileInputTest, NullFeatureRowsKeepTheirResidual) {
  // TreeModel::Predict sends a NULL feature right, and the right child's
  // (c, s) is parent − left, so the SQL of the right child must admit the
  // NULL rows too; otherwise they keep a stale residual and every later
  // tree starts from the wrong sums. The split kernel must leave the NULL
  // rows out of every left side and out of the candidates, which the split
  // oracle checks node by node.
  enum class Input { kNanDouble, kNullInt, kNullCategory, kNullCategoryBest };
  const std::pair<Input, const char*> inputs[] = {
      {Input::kNanDouble, "float64 NaN"},
      {Input::kNullInt, "int64 NULL"},
      {Input::kNullCategory, "categorical NULL"},
      {Input::kNullCategoryBest, "categorical NULL scoring best"}};
  for (const auto& [input, name] : inputs) {
    for (const char* strategy : {"swap", "create", "update", "naive_u"}) {
      SCOPED_TRACE(std::string(name) + " " + strategy);
      exec::Database db(EngineProfile::DSwap());
      test_util::BuildSmallSnowflake(&db, 5, 400);
      Dataset ds(&db);
      std::string feature;
      switch (input) {
        case Input::kNanDouble:
          // NaN is the float NULL.
          db.Execute(
              "UPDATE fact SET x0 = 1e999 - 1e999, y = y + 50 WHERE k1 < 4");
          feature = "x0";
          break;
        case Input::kNullInt:
          AddNullInt(&db);
          feature = "xi";
          break;
        case Input::kNullCategory:
        case Input::kNullCategoryBest:
          AddNullCategory(&db, input == Input::kNullCategoryBest);
          feature = "c1";
          break;
      }
      if (feature == "c1") {
        ds.AddTable("fact", {}, "y");
        ds.AddTable("d1", {"c1"});
      } else {
        ds.AddTable("fact", {feature}, "y");
        ds.AddTable("d1", {"f1"});
      }
      ds.AddTable("d2", {"f2"});
      ds.AddJoin("fact", "d1", {"k1"});
      ds.AddJoin("fact", "d2", {"k2"});
      core::TrainParams params;
      params.num_iterations = 3;
      params.num_leaves = 4;
      params.update_strategy = strategy;
      TrainResult res = Train(params, ds);

      bool split_on_feature = false;
      for (const auto& node : res.model.trees[0].nodes) {
        split_on_feature |= !node.is_leaf && node.feature == feature;
      }
      EXPECT_TRUE(split_on_feature);
      core::JoinedEval eval = core::MaterializeJoin(ds);
      for (size_t t = 1; t < res.model.trees.size(); ++t) {
        double want = ResidualSum(res.model, t, eval);
        EXPECT_TRUE(test_util::RelNear(res.model.trees[t].nodes[0].sum, want,
                                       1e-9))
            << "tree " << t << ": root sum " << res.model.trees[t].nodes[0].sum
            << ", model residual sum " << want;
      }
      EXPECT_TRUE(split_oracle::CheckModel(res.model, ds, params));
    }
  }
}

/// INT64 extremes as join, GROUP BY and IN keys and as MIN/MAX/SUM arguments
/// (INT64_MIN is the NULL sentinel, so INT64_MIN + 1 is the smallest key).
/// Next to small keys they span a box far wider than any array, so the keys
/// are hashed; a narrow run at the top of the range fits a box, so the keys
/// index arrays. Either way every answer is the one a nested loop over the
/// key values gives, on a columnar and a row-at-a-time profile, planner on
/// and off.
TEST(HostileInputTest, Int64ExtremeKeysJoinGroupAndProbeExactly) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = kNullInt64 + 1;
  struct Case {
    const char* name;
    std::vector<int64_t> dim;   // distinct build keys
    std::vector<int64_t> fact;  // probe keys, some absent from `dim`
    bool boxed;                 // the array path fits the build keys
  };
  const Case cases[] = {
      {"wide", {kMax, kMin, 0, 1, 2}, {2, kMax, 7, kMin, kMax - 1, kMax, 0},
       false},
      {"narrow", {kMax - 10, kMax - 4, kMax - 1, kMax},
       {kMax, 3, kMax - 4, kMin, kMax - 11, kMax, kMax - 10, kMax - 2},
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // The path each operator takes follows the keys' box.
    exec::VectorData dk = exec::VectorData::FromInts(c.dim);
    const uint64_t limit =
        exec::morsel::kBoxSlotsPerRow * (c.dim.size() + c.fact.size());
    exec::morsel::KeyBox box;
    EXPECT_EQ(exec::morsel::FitKeyBox({&dk}, c.dim.size(), /*null_slot=*/false,
                                      limit, &box),
              c.boxed);
    size_t matches = 0;
    for (int64_t f : c.fact) {
      for (int64_t d : c.dim) matches += f == d ? 1 : 0;
    }
    // (key, rows) in first-occurrence order, over all fact keys and over
    // the matched ones (whose box is the build keys' box).
    using Groups = std::vector<std::pair<int64_t, int64_t>>;
    auto group = [](Groups* groups, int64_t k) {
      auto it = std::find_if(groups->begin(), groups->end(),
                             [&](const auto& g) { return g.first == k; });
      if (it == groups->end()) {
        groups->emplace_back(k, 1);
      } else {
        ++it->second;
      }
    };
    Groups groups, matched_groups;
    for (int64_t f : c.fact) {
      group(&groups, f);
      if (std::find(c.dim.begin(), c.dim.end(), f) != c.dim.end()) {
        group(&matched_groups, f);
      }
    }
    std::vector<int64_t> weight(c.dim.size());
    for (size_t i = 0; i < weight.size(); ++i) {
      weight[i] = static_cast<int64_t>(i) + 1;
    }
    for (const EngineProfile& base :
         {EngineProfile::DSwap(), EngineProfile::XRow()}) {
      for (bool planner : {true, false}) {
        SCOPED_TRACE(base.name + (planner ? " planner on" : " planner off"));
        EngineProfile profile = base;
        profile.use_planner = planner;
        exec::Database db(profile);
        db.LoadTable(TableBuilder("d")
                         .AddInts("k", c.dim)
                         .AddInts("w", weight)
                         .Build());
        db.LoadTable(TableBuilder("f").AddInts("k", c.fact).Build());
        auto scalar = [&](const std::string& sql) {
          return db.QueryScalarDouble(sql);
        };
        const double n = static_cast<double>(c.fact.size());
        const double m = static_cast<double>(matches);
        EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM f JOIN d ON f.k = d.k"), m);
        EXPECT_EQ(
            scalar("SELECT COUNT(*) AS c FROM f SEMI JOIN d ON f.k = d.k"), m);
        EXPECT_EQ(
            scalar("SELECT COUNT(*) AS c FROM f ANTI JOIN d ON f.k = d.k"),
            n - m);
        EXPECT_EQ(
            scalar("SELECT COUNT(d.w) AS c FROM f LEFT JOIN d ON f.k = d.k"),
            m);
        EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM f WHERE f.k IN "
                         "(SELECT d.k FROM d)"),
                  m);
        // Each joined row carries its own build key back.
        auto joined = db.Query(
            "SELECT f.k AS fk, d.k AS dk, d.w AS w FROM f JOIN d "
            "ON f.k = d.k");
        ASSERT_EQ(joined->rows, matches);
        for (size_t r = 0; r < joined->rows; ++r) {
          const int64_t fk = joined->GetValue(r, 0).i;
          EXPECT_EQ(fk, joined->GetValue(r, 1).i);
          const size_t at = static_cast<size_t>(
              std::find(c.dim.begin(), c.dim.end(), fk) - c.dim.begin());
          ASSERT_LT(at, c.dim.size());
          EXPECT_EQ(joined->GetValue(r, 2).i, weight[at]);
        }
        auto check_groups = [](const exec::ExecTable& t, const Groups& want) {
          ASSERT_EQ(t.rows, want.size());
          for (size_t g = 0; g < want.size(); ++g) {
            EXPECT_EQ(t.GetValue(g, 0).i, want[g].first) << "group " << g;
            EXPECT_EQ(t.GetValue(g, 1).i, want[g].second) << "group " << g;
          }
        };
        check_groups(
            *db.Query("SELECT f.k AS k, COUNT(*) AS c FROM f GROUP BY f.k"),
            groups);
        // MIN and MAX of the keys stay exact int64s (no trip through double).
        auto range = db.Query("SELECT MIN(f.k) AS lo, MAX(f.k) AS hi FROM f");
        EXPECT_EQ(range->GetValue(0, 0).i,
                  *std::min_element(c.fact.begin(), c.fact.end()));
        EXPECT_EQ(range->GetValue(0, 1).i,
                  *std::max_element(c.fact.begin(), c.fact.end()));
        // A SUM that leaves the int64 range is a typed error, not a wrapped
        // value.
        int64_t sum = 0;
        bool overflow = false;
        for (int64_t k : c.dim) {
          overflow |= __builtin_add_overflow(sum, k, &sum);
        }
        if (overflow) {
          EXPECT_THROW(db.Query("SELECT SUM(d.k) AS s FROM d"), JbError);
        } else {
          EXPECT_EQ(db.Query("SELECT SUM(d.k) AS s FROM d")->GetValue(0, 0).i,
                    sum);
        }
        check_groups(*db.Query("SELECT d.k AS k, COUNT(*) AS c FROM f JOIN d "
                               "ON f.k = d.k GROUP BY d.k"),
                     matched_groups);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NULLs in NOT IN, and int = float keys, against nested loops under SQL's
// three-valued logic.
// ---------------------------------------------------------------------------

using Cell = std::optional<double>;  ///< nullopt = NULL
using RowValue = std::vector<Cell>;

enum class Tri { kFalse, kTrue, kNull };

/// `x = s` for row values: FALSE when a column pair differs, else NULL when
/// a cell is NULL, else TRUE.
Tri RowEquals(const RowValue& x, const RowValue& s) {
  bool unknown = false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!x[i] || !s[i]) {
      unknown = true;
    } else if (*x[i] != *s[i]) {
      return Tri::kFalse;
    }
  }
  return unknown ? Tri::kNull : Tri::kTrue;
}

/// `x IN S` (OR of `x = s` over S; FALSE over an empty S), or NOT of it.
Tri InSet(const RowValue& x, const std::vector<RowValue>& set, bool negated) {
  Tri in = Tri::kFalse;
  for (const RowValue& s : set) {
    const Tri eq = RowEquals(x, s);
    if (eq == Tri::kTrue) {
      in = Tri::kTrue;
      break;
    }
    if (eq == Tri::kNull) in = Tri::kNull;
  }
  if (!negated || in == Tri::kNull) return in;
  return in == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
}

/// Rows of `probes` for which the predicate is TRUE.
double CountTrue(const std::vector<RowValue>& probes,
                 const std::vector<RowValue>& set, bool negated) {
  double n = 0;
  for (const RowValue& x : probes) n += InSet(x, set, negated) == Tri::kTrue;
  return n;
}

std::vector<int64_t> IntsOf(const std::vector<Cell>& cells) {
  std::vector<int64_t> out;
  for (const Cell& c : cells) {
    out.push_back(c ? static_cast<int64_t>(*c) : kNullInt64);
  }
  return out;
}

std::vector<double> DoublesOf(const std::vector<Cell>& cells) {
  std::vector<double> out;
  for (const Cell& c : cells) out.push_back(c ? *c : NullFloat64());
  return out;
}

std::vector<RowValue> Rows(const std::vector<Cell>& a,
                           const std::vector<Cell>& b = {}) {
  std::vector<RowValue> out;
  for (size_t r = 0; r < a.size(); ++r) {
    out.push_back(b.empty() ? RowValue{a[r]} : RowValue{a[r], b[r]});
  }
  return out;
}

const EngineProfile kNullProfiles[] = {EngineProfile::DSwap(),
                                       EngineProfile::XRow()};

/// SQL's NOT IN: `x NOT IN S` is true over an empty S and false for a
/// member of S; otherwise it is true only when every row of S differs from
/// x in a column where both are non-NULL (for one column: x is not NULL and
/// S holds no NULL). Over IN subqueries whose keys take the array path and
/// the hash path, row values, and literal lists, on a columnar and a
/// row-at-a-time profile, planner on and off. NOT IN over an empty S keeps
/// the NULL probes.
TEST(HostileInputTest, NotInFollowsSqlWithNulls) {
  const std::optional<double> N;
  const std::vector<Cell> pk = {1, 2, 3, N, 7, N, 2, 9};
  const std::vector<Cell> pj = {5, N, 6, 5, N, 8, 6, 1};
  const std::vector<Cell> px = {1.0, N, 2.5, 3, N, -1, 2, 9};
  // Int sets: dense keys take the array path, a far key the hash path.
  const std::vector<std::pair<const char*, std::vector<Cell>>> int_sets = {
      {"dense", {1, 2, 5}},
      {"dense_null", {N, N, 2}},
      {"wide", {1, 2, 1000000007}},
      {"wide_null", {N, 2, 1000000007}},
      {"all_null", {N}},
  };
  const std::vector<Cell> fx = {2.5, N, 3};
  const std::vector<Cell> ta = {1, 2, N}, tb = {5, N, 6};
  const std::vector<Cell> ua = {1, 3}, ub = {5, 7};
  for (const EngineProfile& base : kNullProfiles) {
    for (const bool planner : {true, false}) {
      SCOPED_TRACE(base.name + (planner ? " planner on" : " planner off"));
      EngineProfile profile = base;
      profile.use_planner = planner;
      exec::Database db(profile);
      db.LoadTable(TableBuilder("p")
                       .AddInts("k", IntsOf(pk))
                       .AddInts("j", IntsOf(pj))
                       .AddDoubles("x", DoublesOf(px))
                       .Build());
      for (const auto& [name, v] : int_sets) {
        db.LoadTable(TableBuilder(name).AddInts("v", IntsOf(v)).Build());
      }
      db.LoadTable(TableBuilder("fs").AddDoubles("v", DoublesOf(fx)).Build());
      db.LoadTable(TableBuilder("t")
                       .AddInts("a", IntsOf(ta))
                       .AddInts("b", IntsOf(tb))
                       .Build());
      db.LoadTable(TableBuilder("u")
                       .AddInts("a", IntsOf(ua))
                       .AddInts("b", IntsOf(ub))
                       .Build());
      auto count = [&](const std::string& where) {
        return db.QueryScalarDouble("SELECT COUNT(*) AS c FROM p WHERE " +
                                    where);
      };
      for (const bool negated : {false, true}) {
        const std::string op = negated ? " NOT IN " : " IN ";
        for (const auto& [name, v] : int_sets) {
          SCOPED_TRACE(std::string(name) + op);
          const std::string sub =
              std::string("(SELECT s.v FROM ") + name + " s)";
          EXPECT_EQ(count("p.k" + op + sub),
                    CountTrue(Rows(pk), Rows(v), negated));
          // An empty result: NOT IN holds for every row, NULL probes too.
          EXPECT_EQ(count("p.k" + op + std::string("(SELECT s.v FROM ") +
                          name + " s WHERE s.v > 2000000000)"),
                    negated ? static_cast<double>(pk.size()) : 0.0);
        }
        SCOPED_TRACE(op);
        EXPECT_EQ(count("p.x" + op + "(SELECT s.v FROM fs s)"),
                  CountTrue(Rows(px), Rows(fx), negated));
        EXPECT_EQ(count("(p.k, p.j)" + op + "(SELECT t.a, t.b FROM t)"),
                  CountTrue(Rows(pk, pj), Rows(ta, tb), negated));
        EXPECT_EQ(count("(p.k, p.j)" + op + "(SELECT u.a, u.b FROM u)"),
                  CountTrue(Rows(pk, pj), Rows(ua, ub), negated));
        EXPECT_EQ(count("p.k" + op + "(1, 2)"),
                  CountTrue(Rows(pk), Rows({1, 2}), negated));
        EXPECT_EQ(count("p.k" + op + "(1, NULL)"),
                  CountTrue(Rows(pk), Rows({1, N}), negated));
        EXPECT_EQ(count("p.x" + op + "(2.5, 7.0)"),
                  CountTrue(Rows(px), Rows({2.5, 7.0}), negated));
        EXPECT_EQ(count("p.x" + op + "(NULL, 2.5)"),
                  CountTrue(Rows(px), Rows({N, 2.5}), negated));
      }
    }
  }
}

/// An int64 key against a float64 one matches when the two are equal as
/// doubles (-0.0 and 0.0 included), whichever side is built, in inner, semi
/// and anti joins and IN, on a columnar and a row-at-a-time profile, planner
/// on and off, against nested loops.
TEST(HostileInputTest, IntAndFloatKeysMatchAsDoubles) {
  const std::optional<double> N;
  const int64_t big = int64_t{1} << 53;
  const std::vector<Cell> ik = {1, 2, 3, 3, N, 0, 7};
  const std::vector<Cell> fx = {1.0, 3.0, 3.0, 2.5, N, -0.0, 8.0, 0.0};
  for (const EngineProfile& base : kNullProfiles) {
    for (const bool planner : {true, false}) {
      SCOPED_TRACE(base.name + (planner ? " planner on" : " planner off"));
      EngineProfile profile = base;
      profile.use_planner = planner;
      exec::Database db(profile);
      db.LoadTable(TableBuilder("i").AddInts("k", IntsOf(ik)).Build());
      db.LoadTable(TableBuilder("f").AddDoubles("x", DoublesOf(fx)).Build());
      // Beyond 2^53 an int is the double it rounds to, as RowsEqual reads it.
      db.LoadTable(TableBuilder("bi").AddInts("k", {big + 1, 5}).Build());
      db.LoadTable(TableBuilder("bf")
                       .AddDoubles("x", {static_cast<double>(big), 6.0})
                       .Build());
      auto scalar = [&](const std::string& sql) {
        return db.QueryScalarDouble(sql);
      };
      double pairs = 0, f_matched = 0, i_matched = 0;
      for (const Cell& x : fx) {
        bool any = false;
        for (const Cell& k : ik) {
          const bool eq = x && k && *x == *k;
          pairs += eq;
          any |= eq;
        }
        f_matched += any;
      }
      for (const Cell& k : ik) {
        i_matched += InSet({k}, Rows(fx), false) == Tri::kTrue;
      }
      const double nf = static_cast<double>(fx.size());
      const double ni = static_cast<double>(ik.size());
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM f JOIN i ON f.x = i.k"),
                pairs);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM i JOIN f ON i.k = f.x"),
                pairs);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM f SEMI JOIN i ON f.x = i.k"),
                f_matched);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM f ANTI JOIN i ON f.x = i.k"),
                nf - f_matched);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM i SEMI JOIN f ON i.k = f.x"),
                i_matched);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM i ANTI JOIN f ON i.k = f.x"),
                ni - i_matched);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM f WHERE f.x IN "
                       "(SELECT i.k FROM i)"),
                f_matched);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM i WHERE i.k IN "
                       "(SELECT f.x FROM f)"),
                i_matched);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM i WHERE i.k NOT IN "
                       "(SELECT f.x FROM f WHERE f.x > -1)"),
                CountTrue(Rows(ik), Rows({1.0, 3.0, 3.0, 2.5, -0.0, 8.0, 0.0}),
                          true));
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM bi JOIN bf ON bi.k = bf.x"),
                1.0);
      EXPECT_EQ(scalar("SELECT COUNT(*) AS c FROM bf WHERE bf.x IN "
                       "(SELECT bi.k FROM bi)"),
                1.0);
    }
  }
}

/// Degenerate shapes: an all-NULL feature, an empty fact or dimension, and
/// more leaves asked for than rows. Each trains a model that passes the
/// split oracle, as gbdt and as dt, and never splits on the all-NULL
/// feature.
TEST(HostileInputTest, DegenerateInputsPassSplitOracle) {
  enum class Input { kAllNullFeature, kEmptyFact, kEmptyDimension, kFiveRows };
  const std::pair<Input, const char*> inputs[] = {
      {Input::kAllNullFeature, "all-NULL feature"},
      {Input::kEmptyFact, "empty fact"},
      {Input::kEmptyDimension, "empty dimension"},
      {Input::kFiveRows, "5-row fact, 64 leaves"}};
  for (const auto& [input, name] : inputs) {
    for (const char* boosting : {"gbdt", "dt"}) {
      SCOPED_TRACE(std::string(name) + " " + boosting);
      exec::Database db(EngineProfile::DSwap());
      const size_t rows = input == Input::kEmptyFact  ? 0
                          : input == Input::kFiveRows ? 5
                                                      : 400;
      test_util::BuildSmallSnowflake(&db, 11, rows);
      if (input == Input::kAllNullFeature) {
        db.Execute("UPDATE fact SET x0 = 1e999 - 1e999");
      } else if (input == Input::kEmptyDimension) {
        db.catalog().Drop("d2");
        db.RegisterTable(
            TableBuilder("d2").AddInts("k2", {}).AddDoubles("f2", {}).Build());
      }
      Dataset ds = test_util::MakeSnowflakeDataset(&db);
      core::TrainParams params;
      params.boosting = boosting;
      params.num_iterations = 3;
      params.num_leaves = input == Input::kFiveRows ? 64 : 4;
      TrainResult res = Train(params, ds);
      ASSERT_FALSE(res.model.trees.empty());
      for (const auto& tree : res.model.trees) {
        for (const auto& node : tree.nodes) {
          EXPECT_FALSE(input == Input::kAllNullFeature && !node.is_leaf &&
                       node.feature == "x0");
        }
        if (input == Input::kFiveRows) {
          EXPECT_LE(tree.NumLeaves(), 5u);
        }
      }
      EXPECT_TRUE(split_oracle::CheckModel(res.model, ds, params));
    }
  }
}

}  // namespace
}  // namespace joinboost
