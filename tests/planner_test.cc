#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluate.h"
#include "core/params.h"
#include "core/train.h"
#include "data/generators.h"
#include "exec/engine.h"
#include "plan/logical_plan.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "storage/table.h"
#include "test_util.h"

namespace joinboost {
namespace {

using exec::Database;
using exec::ExecTable;

// ---------------------------------------------------------------------------
// Differential harness: every query must return identical results with the
// planner on and off (EngineProfile::use_planner).
// ---------------------------------------------------------------------------

std::string CellText(const Value& v) {
  if (v.null) return "NULL";
  char buf[64];
  switch (v.type) {
    case TypeId::kFloat64:
      std::snprintf(buf, sizeof(buf), "%.17g", v.d);
      return buf;
    case TypeId::kString:
      return v.s;
    case TypeId::kInt64:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v.i));
      return buf;
  }
  return "?";
}

std::vector<std::string> RowStrings(const ExecTable& t) {
  std::vector<std::string> rows;
  rows.reserve(t.rows);
  for (size_t r = 0; r < t.rows; ++r) {
    std::string row;
    for (size_t c = 0; c < t.cols.size(); ++c) {
      if (c) row += "|";
      row += CellText(t.GetValue(r, c));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Bit-identical comparison. Ordered queries compare row-by-row; unordered
/// ones compare the sorted row multisets (join reordering may legally change
/// the physical output order of unordered queries).
void ExpectSameResults(const ExecTable& planned, const ExecTable& unplanned,
                       bool ordered) {
  ASSERT_EQ(planned.rows, unplanned.rows);
  ASSERT_EQ(planned.cols.size(), unplanned.cols.size());
  for (size_t c = 0; c < planned.cols.size(); ++c) {
    EXPECT_EQ(planned.cols[c].name, unplanned.cols[c].name);
  }
  std::vector<std::string> a = RowStrings(planned);
  std::vector<std::string> b = RowStrings(unplanned);
  if (!ordered) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
  }
  EXPECT_EQ(a, b);
}

void LoadDifferentialTables(Database* db) {
  db->RegisterTable(TableBuilder("r")
                        .AddInts("a", {1, 1, 2, 2})
                        .AddInts("b", {2, 3, 1, 2})
                        .Build());
  db->RegisterTable(TableBuilder("s")
                        .AddInts("a", {1, 1, 2})
                        .AddInts("c", {2, 1, 3})
                        .Build());
  db->RegisterTable(TableBuilder("t")
                        .AddInts("a", {1, 1, 2})
                        .AddInts("d", {1, 2, 2})
                        .Build());
  db->RegisterTable(TableBuilder("small")
                        .AddInts("a", {1})
                        .AddInts("z", {42})
                        .Build());
  db->RegisterTable(TableBuilder("keys").AddInts("a", {2}).Build());
  db->RegisterTable(TableBuilder("names")
                        .AddInts("id", {1, 2, 3})
                        .AddStrings("name", {"ann", "bob", "ann"})
                        .Build());
  db->RegisterTable(TableBuilder("wide")
                        .AddInts("a", {1, 2, 3, 4})
                        .AddDoubles("v", {1.5, 2.5, 3.5, 4.5})
                        .AddDoubles("w", {0.1, 0.2, 0.3, 0.4})
                        .AddInts("u", {7, 8, 9, 10})
                        .Build());
  // bigx and smallx both expose a column named `x`: unqualified references
  // are ambiguous and bind first-match in the written join order.
  db->RegisterTable(TableBuilder("bigx")
                        .AddInts("k", {1, 1, 2, 2, 3})
                        .AddInts("x", {2, 2, 3, 3, 4})
                        .Build());
  db->RegisterTable(TableBuilder("smallx")
                        .AddInts("k2", {1, 2})
                        .AddInts("x", {9, 9})
                        .Build());
  // p and q have globally unique column names, so joins over them are
  // reorder-eligible unless something else (e.g. SELECT *) forbids it.
  db->RegisterTable(TableBuilder("p")
                        .AddInts("pk", {1, 1, 2, 2})
                        .AddInts("pv", {10, 11, 12, 13})
                        .Build());
  db->RegisterTable(
      TableBuilder("q").AddInts("qk", {2}).AddInts("qv", {77}).Build());
}

struct DiffQuery {
  const char* sql;
  bool ordered;  ///< result order is pinned by ORDER BY
};

class PlannerDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineProfile on = EngineProfile::DSwap();
    EngineProfile off = EngineProfile::DSwap();
    off.use_planner = false;
    planned_ = std::make_unique<Database>(on);
    unplanned_ = std::make_unique<Database>(off);
    LoadDifferentialTables(planned_.get());
    LoadDifferentialTables(unplanned_.get());
  }
  std::unique_ptr<Database> planned_;
  std::unique_ptr<Database> unplanned_;
};

TEST_F(PlannerDifferentialTest, EveryQueryShapeMatchesUnplannedExecution) {
  const DiffQuery queries[] = {
      // sql_engine_test.cc shapes
      {"SELECT a, b FROM r WHERE b >= 2", false},
      {"SELECT 1 + 2 AS x, 3.5 * 2 AS y", false},
      {"SELECT a, SUM(b) AS s, COUNT(*) AS c FROM r GROUP BY a ORDER BY a",
       true},
      {"SELECT SUM(b) AS s, COUNT(*) AS c, AVG(b) AS m FROM r", false},
      {"SELECT r.a AS a, COUNT(*) AS c FROM r JOIN s ON r.a = s.a "
       "GROUP BY r.a ORDER BY a",
       true},
      {"SELECT COUNT(*) AS c FROM r JOIN s ON r.a = s.a JOIN t ON r.a = t.a",
       false},
      {"SELECT COUNT(*) AS c FROM r WHERE a IN (SELECT a FROM s WHERE c > 2)",
       false},
      {"SELECT SUM(CASE WHEN b > 2 THEN 1 ELSE 0 END) AS big FROM r", false},
      {"SELECT a, SUM(b) OVER (ORDER BY a) AS cum FROM "
       "(SELECT a, SUM(b) AS b FROM r GROUP BY a) ORDER BY a",
       true},
      {"SELECT a, b FROM r ORDER BY b DESC LIMIT 2", true},
      {"SELECT DISTINCT a FROM r", false},
      {"SELECT COUNT(*) AS c FROM names WHERE name = 'ann'", false},
      {"SELECT COUNT(*) AS c FROM r SEMI JOIN keys ON r.a = keys.a", false},
      {"SELECT COUNT(*) AS c FROM r ANTI JOIN keys ON r.a = keys.a", false},
      // WHERE on semi/anti right sides must be pushed below the join (their
      // columns are gone from the join output).
      {"SELECT COUNT(*) AS c FROM r SEMI JOIN s ON r.a = s.a "
       "WHERE s.c >= 2",
       false},
      {"SELECT COUNT(*) AS c FROM r ANTI JOIN s ON r.a = s.a "
       "WHERE s.c >= 2",
       false},
      // Ambiguous unqualified `x` (bigx.x and smallx.x): join reordering
      // must stand down so first-match binding keeps the written order.
      {"SELECT x AS v FROM r JOIN bigx ON r.a = bigx.k "
       "JOIN smallx ON r.a = smallx.k2 ORDER BY v",
       true},
      // SELECT * pins the physical column order: reordering must stand down
      // (ExpectSameResults also compares column names positionally).
      {"SELECT * FROM r JOIN p ON r.a = p.pk JOIN q ON r.a = q.qk", false},
      // Constant-false conjunct inside ON must stay a residual filter, not
      // collapse the whole condition (the equi key would vanish).
      {"SELECT COUNT(*) AS c FROM r JOIN s ON r.a = s.a AND 1 = 2", false},
      {"SELECT COUNT(*) AS c FROM r JOIN s ON r.a = s.a AND 1 = 1", false},
      // outer-join semantics: WHERE on the nullable side must not be pushed
      {"SELECT r.a AS a, small.z AS z FROM r LEFT JOIN small "
       "ON r.a = small.a ORDER BY a",
       true},
      {"SELECT r.a AS a FROM r LEFT JOIN small ON r.a = small.a "
       "WHERE small.z IS NULL ORDER BY a",
       true},
      // opaque derived table (SELECT *) disables static pushdown/pruning
      {"SELECT COUNT(*) AS c FROM (SELECT * FROM r) AS sub "
       "JOIN s ON sub.a = s.a",
       false},
      // constant folding + short circuits
      {"SELECT a FROM r WHERE 1 = 0", false},
      {"SELECT a FROM r WHERE 1 = 1 AND a = 2 ORDER BY a", true},
      {"SELECT a FROM r WHERE 2 + 2 = 5 OR b > 2", false},
      // IN list, BETWEEN, residual join predicates, multi-way + filter
      {"SELECT a FROM r WHERE a IN (1, 3) ORDER BY a", true},
      {"SELECT a + 0 AS a2, b FROM r WHERE b BETWEEN 2 AND 3 ORDER BY a2, b",
       true},
      {"SELECT r.b AS b FROM r JOIN s ON r.a = s.a AND r.b < s.c", false},
      {"SELECT SUM(r.b * s.c) AS v FROM r JOIN s ON r.a = s.a "
       "JOIN t ON r.a = t.a WHERE t.d = 2",
       false},
      {"SELECT * FROM r ORDER BY a, b", true},
      // projection pruning source shapes
      {"SELECT SUM(v) AS sv FROM wide WHERE a > 1", false},
      {"SELECT wide.a AS a, SUM(wide.v) AS sv FROM wide "
       "JOIN r ON wide.a = r.a GROUP BY wide.a ORDER BY a",
       true},
  };
  for (const auto& q : queries) {
    SCOPED_TRACE(q.sql);
    auto a = planned_->Query(q.sql);
    auto b = unplanned_->Query(q.sql);
    ExpectSameResults(*a, *b, q.ordered);
  }
}

TEST_F(PlannerDifferentialTest, UpdateAfterPlannedSelectsStaysIdentical) {
  for (Database* db : {planned_.get(), unplanned_.get()}) {
    db->Execute("CREATE TABLE u AS SELECT a, b FROM r");
    db->Execute("UPDATE u SET b = b * 2 + 1 WHERE a = 1");
  }
  auto a = planned_->Query("SELECT a, b FROM u ORDER BY a, b");
  auto b = unplanned_->Query("SELECT a, b FROM u ORDER BY a, b");
  ExpectSameResults(*a, *b, /*ordered=*/true);
}

// ---------------------------------------------------------------------------
// EXPLAIN golden tests over message-passing query shapes.
// ---------------------------------------------------------------------------

/// Run an EXPLAIN statement and join its plan lines.
std::string ExplainOf(Database* db, const std::string& q) {
  auto t = db->Query(q);
  std::string out;
  for (size_t r = 0; r < t->rows; ++r) {
    out += t->GetValue(r, 0).s;
    out += "\n";
  }
  return out;
}

class PlannerExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(EngineProfile::DSwap());
    db_->RegisterTable(TableBuilder("fact")
                           .AddInts("k1", {0, 0, 1, 1, 2, 2, 0, 1})
                           .AddInts("k2", {0, 1, 0, 1, 0, 1, 0, 1})
                           .AddDoubles("s", {1, 2, 3, 4, 5, 6, 7, 8})
                           .AddDoubles("x0", {.1, .6, .7, .2, .9, 1.8, .4, 2})
                           .Build());
    db_->RegisterTable(TableBuilder("m")
                           .AddInts("k1", {0, 1, 2})
                           .AddInts("c", {2, 3, 1})
                           .AddDoubles("s", {1.5, 2.5, 3.5})
                           .Build());
    db_->RegisterTable(TableBuilder("sel").AddInts("k1", {0, 2}).Build());
  }

  std::string ExplainText(const std::string& explain_sql) {
    return ExplainOf(db_.get(), explain_sql);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerExplainTest, MessageQueryGolden) {
  // The §5.3 message shape: join the child message, filter on the node's
  // predicate, group by the edge key.
  std::string text = ExplainText(
      "EXPLAIN SELECT fact.k1, SUM(fact.s * m.c) AS s FROM fact "
      "JOIN m ON fact.k1 = m.k1 WHERE fact.x0 > 0.5 GROUP BY fact.k1");
  // The fact scan estimate is the heuristic range selectivity, 8 * 0.3 =
  // 2.4, and the inner join keeps the larger side: max(2.4, 3) = 3.
  EXPECT_EQ(text,
            "Project [k1, s] (rows~1, cols=2)\n"
            "  Aggregate keys=[fact.k1] aggs=1 (rows~1, cols=2)\n"
            "    Join INNER on (fact.k1 = m.k1) (rows~3, cols=5)\n"
            "      Scan fact [k1, s, x0] filter=(fact.x0 > 0.5) "
            "(rows~2/8, cols=3/4)\n"
            "      Scan m [k1, c] (rows~3/3, cols=2/3)\n"
            "-- rules: pushed=1\n");
}

TEST_F(PlannerExplainTest, SelectorQueryGolden) {
  // The §5.3.1 selector shape: DISTINCT keys under a semi-join.
  std::string text = ExplainText(
      "EXPLAIN SELECT DISTINCT fact.k1 FROM fact "
      "SEMI JOIN sel ON fact.k1 = sel.k1 WHERE fact.x0 > 0.5");
  // Heuristic fact estimate 8 * 0.3 = 2.4; the semi join halves it to 1.2,
  // and DISTINCT's halving is floored at 1 row.
  EXPECT_EQ(text,
            "Distinct (rows~1)\n"
            "  Project [k1] (rows~1, cols=1)\n"
            "    Join SEMI on (fact.k1 = sel.k1) (rows~1, cols=2)\n"
            "      Scan fact [k1, x0] filter=(fact.x0 > 0.5) "
            "(rows~2/8, cols=2/4)\n"
            "      Scan sel [*] (rows~2/2, cols=1/1)\n"
            "-- rules: pushed=1\n");
}

TEST_F(PlannerExplainTest, TotalAggregateGolden) {
  // The absorption/total-aggregate shape: global SUMs, no GROUP BY.
  std::string text = ExplainText(
      "EXPLAIN SELECT SUM(fact.s * m.c) AS s, SUM(m.c) AS c FROM fact "
      "JOIN m ON fact.k1 = m.k1");
  EXPECT_EQ(text,
            "Project [s, c] (rows~1, cols=2)\n"
            "  Aggregate keys=[] aggs=2 (rows~1, cols=2)\n"
            "    Join INNER on (fact.k1 = m.k1) (rows~8, cols=4)\n"
            "      Scan fact [k1, s] (rows~8/8, cols=2/4)\n"
            "      Scan m [k1, c] (rows~3/3, cols=2/3)\n");
}

TEST_F(PlannerExplainTest, ExplainAnalyzeGolden) {
  // EXPLAIN ANALYZE executes the plan and annotates the data-section nodes
  // (and the root) with observed row counts next to the estimates. The
  // filter keeps 5 of 8 fact rows; 3 distinct k1 groups survive.
  std::string text = ExplainText(
      "EXPLAIN ANALYZE SELECT fact.k1, SUM(fact.s * m.c) AS s FROM fact "
      "JOIN m ON fact.k1 = m.k1 WHERE fact.x0 > 0.5 GROUP BY fact.k1");
  EXPECT_EQ(text,
            "Project [k1, s] (rows~1, act=3, cols=2)\n"
            "  Aggregate keys=[fact.k1] aggs=1 (rows~1, cols=2)\n"
            "    Join INNER on (fact.k1 = m.k1) (rows~3, act=5, cols=5)\n"
            "      Scan fact [k1, s, x0] filter=(fact.x0 > 0.5) "
            "(rows~2/8, act=5, cols=3/4)\n"
            "      Scan m [k1, c] (rows~3/3, act=3, cols=2/3)\n"
            "-- rules: pushed=1\n");
}

TEST(PlannerEngineTest, ExplainAnalyzeWorkReachesPlanStatsTotals) {
  // EXPLAIN ANALYZE executes its statement, so its scan must reach the
  // database totals like any other query's; plain EXPLAIN runs nothing.
  Database db(EngineProfile::DSwap());
  db.RegisterTable(TableBuilder("r").AddInts("a", {1, 2, 3}).Build());
  plan::PlanStats before = db.PlanStatsTotals();
  db.Query("EXPLAIN SELECT COUNT(*) AS c FROM r WHERE r.a > 1");
  EXPECT_EQ((db.PlanStatsTotals() - before).scans, 0u);
  db.Query("EXPLAIN ANALYZE SELECT COUNT(*) AS c FROM r WHERE r.a > 1");
  plan::PlanStats d = db.PlanStatsTotals() - before;
  EXPECT_EQ(d.scans, 1u);
  EXPECT_EQ(d.rows_scan_input, 3u);
  EXPECT_EQ(d.rows_scan_output, 2u);
  EXPECT_EQ(d.queries_planned, 1u);
}

// ---------------------------------------------------------------------------
// Greedy join ordering on a 4-relation snowflake: the written order is
// deliberately suboptimal and the reorder must move the filtered dimension
// first. Pins both the chosen order and the cardinality estimates.
// ---------------------------------------------------------------------------

TEST(SnowflakeExplainTest, GreedyReordersFilteredDimensionFirst) {
  Database db(EngineProfile::DSwap());
  const size_t kRows = 1000;
  std::vector<int64_t> k1(kRows), k2(kRows), k3(kRows);
  std::vector<double> v(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    k1[i] = static_cast<int64_t>(i % 50);
    k2[i] = static_cast<int64_t>(i % 5);
    k3[i] = static_cast<int64_t>(i % 200);
    v[i] = static_cast<double>(i);
  }
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("k1", k1)
                       .AddInts("k2", k2)
                       .AddInts("k3", k3)
                       .AddDoubles("v", v)
                       .Build());
  auto dim = [&](const char* name, const char* key, int64_t n) {
    std::vector<int64_t> k(static_cast<size_t>(n)), a(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      k[static_cast<size_t>(i)] = i;
      a[static_cast<size_t>(i)] = i;
    }
    db.RegisterTable(TableBuilder(name).AddInts(key, k).AddInts("a", a).Build());
  };
  dim("d1", "k1", 50);
  dim("d2", "k2", 5);
  dim("d3", "k3", 200);

  // Written order d1, d2, d3. The filter cuts d2's estimate to 10% of its
  // 5 rows (~1 row), below d1's 50 and d3's 200, so greedy joins d2 first,
  // then d1, then d3.
  auto t = db.Query(
      "EXPLAIN SELECT SUM(fact.v) AS s FROM fact "
      "JOIN d1 ON fact.k1 = d1.k1 "
      "JOIN d2 ON fact.k2 = d2.k2 "
      "JOIN d3 ON fact.k3 = d3.k3 WHERE d2.a = 0");
  std::string text;
  for (size_t r = 0; r < t->rows; ++r) {
    text += t->GetValue(r, 0).s;
    text += "\n";
  }
  EXPECT_EQ(text,
            "Project [s] (rows~1, cols=1)\n"
            "  Aggregate keys=[] aggs=1 (rows~1, cols=1)\n"
            "    Join INNER on (fact.k3 = d3.k3) (rows~1000, cols=8)\n"
            "      Join INNER on (fact.k1 = d1.k1) (rows~1000, cols=7)\n"
            "        Join INNER on (fact.k2 = d2.k2) (rows~1000, cols=6)\n"
            "          Scan fact [*] (rows~1000/1000, cols=4/4)\n"
            "          Scan d2 [*] filter=(d2.a = 0) (rows~1/5, cols=2/2)\n"
            "        Scan d1 [k1] (rows~50/50, cols=1/2)\n"
            "      Scan d3 [k3] (rows~200/200, cols=1/2)\n"
            "-- rules: pushed=1 joins-reordered\n");
}

TEST_F(PlannerExplainTest, ExplainTextIsAFixedPointUnderRoundTrip) {
  const char* queries[] = {
      "SELECT fact.k1, SUM(fact.s * m.c) AS s FROM fact "
      "JOIN m ON fact.k1 = m.k1 WHERE fact.x0 > 0.5 GROUP BY fact.k1",
      "SELECT DISTINCT fact.k1 FROM fact SEMI JOIN sel ON fact.k1 = sel.k1 "
      "WHERE fact.x0 > 0.5",
      "SELECT SUM(fact.s * m.c) AS s, SUM(m.c) AS c FROM fact "
      "JOIN m ON fact.k1 = m.k1",
      "SELECT k1, COUNT(*) AS c FROM fact WHERE x0 > 0.5 AND k2 = 1 "
      "GROUP BY k1 ORDER BY k1 LIMIT 2",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    // EXPLAIN of the original and of its printed round-trip must render the
    // identical plan text.
    sql::Statement ast = sql::Parse(q);
    std::string printed = sql::ToSql(ast);
    EXPECT_EQ(ExplainText("EXPLAIN " + std::string(q)),
              ExplainText("EXPLAIN " + printed));
  }
}

TEST_F(PlannerExplainTest, ExplainStatementRoundTripsThroughPrinter) {
  const std::string q = "EXPLAIN SELECT fact.k1 FROM fact WHERE fact.x0 > 0.5";
  sql::Statement ast = sql::Parse(q);
  ASSERT_EQ(ast.kind, sql::Statement::Kind::kExplain);
  std::string printed = sql::ToSql(ast);
  EXPECT_EQ(printed, sql::ToSql(sql::Parse(printed)));
  auto t = db_->Query(printed);
  ASSERT_GE(t->rows, 1u);
  EXPECT_EQ(t->cols[0].name, "plan");
}

// ---------------------------------------------------------------------------
// Rewrite-rule unit tests.
// ---------------------------------------------------------------------------

TEST(PlannerRulesTest, ConstantFoldingMirrorsEvalSemantics) {
  struct Case {
    const char* in;
    const char* out;
  };
  const Case cases[] = {
      {"1 + 2 * 3", "7"},
      {"2 = 2", "1"},
      {"3 < 2", "0"},
      {"1 / 2", "0.5"},       // '/' promotes to double, as in EvalExpr
      {"7 % 4", "3"},
      {"- (2 + 3)", "-5"},
      {"NOT 0", "1"},
      {"a = 1 + 1", "(a = 2)"},
      {"1 = 1 AND a > 2", "(a > 2)"},
      {"1 = 2 AND a > 2", "0"},
      {"1 = 1 OR a > 2", "1"},
      {"0 OR a > 2", "(a > 2)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.in);
    int folds = 0;
    sql::ExprPtr folded =
        plan::FoldConstants(sql::ParseExpr(c.in), /*bool_ctx=*/true, &folds);
    EXPECT_EQ(sql::ToSql(*folded), c.out);
    EXPECT_GT(folds, 0);
  }
  // Division by zero must not fold (the engine yields NULL at runtime).
  int folds = 0;
  sql::ExprPtr kept =
      plan::FoldConstants(sql::ParseExpr("1 / 0"), /*bool_ctx=*/true, &folds);
  EXPECT_EQ(sql::ToSql(*kept), "(1 / 0)");
  // Outside boolean context AND/OR must not short-circuit (join conditions
  // keep their equi conjuncts even when a sibling folds to FALSE).
  folds = 0;
  sql::ExprPtr on = plan::FoldConstants(sql::ParseExpr("a = b AND 1 = 2"),
                                        /*bool_ctx=*/false, &folds);
  EXPECT_EQ(sql::ToSql(*on), "((a = b) AND 0)");
}

TEST(PlannerRulesTest, TruthyConjunctsAreDroppedNotCountedAsPushdowns) {
  Database db(EngineProfile::DSwap());
  db.RegisterTable(TableBuilder("r").AddInts("a", {1, 2}).Build());
  auto t = db.Query("EXPLAIN SELECT a FROM r WHERE 1 = 1");
  std::string text;
  for (size_t r = 0; r < t->rows; ++r) text += t->GetValue(r, 0).s + "\n";
  EXPECT_EQ(text.find("pushed"), std::string::npos) << text;
  EXPECT_EQ(text.find("filter="), std::string::npos) << text;
  EXPECT_NE(text.find("folded="), std::string::npos) << text;
  EXPECT_EQ(db.PlanStatsTotals().predicates_pushed, 0u);
}

TEST(PlannerRulesTest, GreedyJoinReorderJoinsSmallestRelationFirst) {
  Database db(EngineProfile::DSwap());
  std::vector<int64_t> big_a(100), mid_a(10), tiny_a(2);
  for (size_t i = 0; i < big_a.size(); ++i) {
    big_a[i] = static_cast<int64_t>(i % 10);
  }
  for (size_t i = 0; i < mid_a.size(); ++i) {
    mid_a[i] = static_cast<int64_t>(i);
  }
  tiny_a = {3, 4};
  db.RegisterTable(TableBuilder("big").AddInts("a", big_a).Build());
  db.RegisterTable(TableBuilder("mid").AddInts("a", mid_a).Build());
  db.RegisterTable(TableBuilder("tiny").AddInts("a", tiny_a).Build());

  auto t = db.Query(
      "EXPLAIN SELECT COUNT(*) AS c FROM big JOIN mid ON big.a = mid.a "
      "JOIN tiny ON big.a = tiny.a");
  std::string text;
  for (size_t r = 0; r < t->rows; ++r) text += t->GetValue(r, 0).s + "\n";
  size_t tiny_pos = text.find("Scan tiny");
  size_t mid_pos = text.find("Scan mid");
  ASSERT_NE(tiny_pos, std::string::npos);
  ASSERT_NE(mid_pos, std::string::npos);
  EXPECT_LT(tiny_pos, mid_pos) << text;
  EXPECT_NE(text.find("joins-reordered"), std::string::npos) << text;

  // And the reordered plan returns the same count.
  auto c = db.Query(
      "SELECT COUNT(*) AS c FROM big JOIN mid ON big.a = mid.a "
      "JOIN tiny ON big.a = tiny.a");
  EXPECT_EQ(c->GetValue(0, 0).i, 20);  // a=3 and a=4 appear 10x each in big
}

TEST(GreedyReorderTest, UsesPostFilterEstimatesNotRawRowCounts) {
  // dim_big has 5x the rows of dim_small, but the equality filter on it cuts
  // the heuristic estimate to 10%: 100 < 200, so the greedy reorder must
  // join the *filtered* big dimension first. Ordering by raw catalog row
  // counts would pick dim_small.
  Database db(EngineProfile::DSwap());
  std::vector<int64_t> fk1, fk2;
  for (int i = 0; i < 400; ++i) {
    fk1.push_back(i % 1000);
    fk2.push_back(i % 200);
  }
  std::vector<int64_t> bk, bb, sk;
  for (int i = 0; i < 1000; ++i) {
    bk.push_back(i);
    bb.push_back(i % 7);
  }
  for (int i = 0; i < 200; ++i) sk.push_back(i);
  db.RegisterTable(
      TableBuilder("fact").AddInts("k1", fk1).AddInts("k2", fk2).Build());
  db.RegisterTable(
      TableBuilder("dim_big").AddInts("k1", bk).AddInts("b", bb).Build());
  db.RegisterTable(TableBuilder("dim_small").AddInts("k2", sk).Build());
  std::string text = ExplainOf(
      &db,
      "EXPLAIN SELECT COUNT(*) AS c FROM fact "
      "JOIN dim_small ON fact.k2 = dim_small.k2 "
      "JOIN dim_big ON fact.k1 = dim_big.k1 WHERE dim_big.b = 3");
  size_t big = text.find("Scan dim_big");
  size_t small = text.find("Scan dim_small");
  ASSERT_NE(big, std::string::npos) << text;
  ASSERT_NE(small, std::string::npos) << text;
  EXPECT_LT(big, small) << "filtered big dimension not joined first:\n" << text;
  EXPECT_NE(text.find("joins-reordered"), std::string::npos) << text;
}

TEST(GreedyReorderTest, ThirteenDimensionStarJoinsSmallestDimensionFirst) {
  // 13 dimensions written largest first (d0 has 14 keys, d12 has 2): greedy
  // reverses the order.
  Database db(EngineProfile::DSwap());
  const int kDims = 13;
  TableBuilder fact("fact");
  std::vector<int64_t> v(100, 1);
  for (int d = 0; d < kDims; ++d) {
    int64_t keys = 14 - d;  // descending sizes: greedy reverses the order
    std::vector<int64_t> fk(100);
    for (int i = 0; i < 100; ++i) fk[static_cast<size_t>(i)] = i % keys;
    fact.AddInts("k" + std::to_string(d), fk);
    std::vector<int64_t> dk(static_cast<size_t>(keys));
    for (int64_t i = 0; i < keys; ++i) dk[static_cast<size_t>(i)] = i;
    db.RegisterTable(TableBuilder("d" + std::to_string(d))
                         .AddInts("k" + std::to_string(d), dk)
                         .Build());
  }
  fact.AddInts("v", v);
  db.RegisterTable(fact.Build());
  std::string sql = "SELECT SUM(fact.v) AS s FROM fact";
  for (int d = 0; d < kDims; ++d) {
    std::string n = std::to_string(d);
    sql += " JOIN d" + n + " ON fact.k" + n + " = d" + n + ".k" + n;
  }
  // Scans render in join order after the anchor: d12, d11, ..., d0.
  std::string text = ExplainOf(&db, "EXPLAIN " + sql);
  size_t prev = text.find("Scan fact");
  ASSERT_NE(prev, std::string::npos) << text;
  for (int d = kDims - 1; d >= 0; --d) {
    size_t pos = text.find("Scan d" + std::to_string(d) + " ");
    ASSERT_NE(pos, std::string::npos) << text;
    EXPECT_GT(pos, prev) << "d" << d << " out of greedy order:\n" << text;
    prev = pos;
  }
  plan::PlanStats before = db.PlanStatsTotals();
  auto t = db.Query(sql);
  ASSERT_EQ(t->rows, 1u);
  EXPECT_EQ(t->GetValue(0, 0).AsDouble(), 100.0);
  plan::PlanStats d = db.PlanStatsTotals() - before;
  EXPECT_EQ(d.joins_reordered, 1u) << "greedy did not reorder";
}

// ---------------------------------------------------------------------------
// Greedy join order: the FROM relation stays the anchor, and each step joins
// the feasible clause (its ON condition only needs relations already placed)
// with the smallest post-filter estimate.
// ---------------------------------------------------------------------------

/// Relations in the order their scans render: the FROM anchor first, then
/// the join order (EXPLAIN prints the left-deep join tree pre-order).
std::vector<std::string> ScanOrder(const std::string& explain) {
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = explain.find("Scan ", pos)) != std::string::npos) {
    pos += 5;
    size_t end = explain.find(' ', pos);
    out.push_back(explain.substr(pos, end - pos));
  }
  return out;
}

/// Dimension `name` with a dense key column `key` (0..rows-1) and an
/// attribute `a` equal to the key.
void RegisterDim(Database* db, const std::string& name, const std::string& key,
                 int64_t rows) {
  std::vector<int64_t> k(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) k[static_cast<size_t>(i)] = i;
  db->RegisterTable(TableBuilder(name).AddInts(key, k).AddInts("a", k).Build());
}

/// The same statement through a planner-off engine over the same tables.
double UnplannedScalar(const std::vector<TablePtr>& tables,
                       const std::string& sql) {
  EngineProfile p = EngineProfile::DSwap();
  p.use_planner = false;
  Database db(p);
  for (const TablePtr& t : tables) db.RegisterTable(t);
  return db.QueryScalarDouble(sql);
}

TEST(JoinOrderTest, PicksTheCheapestFeasibleOrder) {
  // Written largest first: c (200 rows), a (50), b (5). Every clause only
  // needs the anchor, so greedy joins b, a, c.
  Database db(EngineProfile::DSwap());
  std::vector<int64_t> ka(1000), kb(1000), kc(1000);
  for (size_t i = 0; i < ka.size(); ++i) {
    ka[i] = static_cast<int64_t>(i % 50);
    kb[i] = static_cast<int64_t>(i % 5);
    kc[i] = static_cast<int64_t>(i % 200);
  }
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("ka", ka)
                       .AddInts("kb", kb)
                       .AddInts("kc", kc)
                       .Build());
  RegisterDim(&db, "a", "ka", 50);
  RegisterDim(&db, "b", "kb", 5);
  RegisterDim(&db, "c", "kc", 200);
  const std::string sql =
      "SELECT COUNT(*) AS n FROM fact JOIN c ON fact.kc = c.kc "
      "JOIN a ON fact.ka = a.ka JOIN b ON fact.kb = b.kb";
  std::string text = ExplainOf(&db, "EXPLAIN " + sql);
  EXPECT_EQ(ScanOrder(text),
            (std::vector<std::string>{"fact", "b", "a", "c"}))
      << text;
  EXPECT_NE(text.find("joins-reordered"), std::string::npos) << text;
  EXPECT_EQ(db.QueryScalarDouble(sql), 1000.0);
}

TEST(JoinOrderTest, DependenciesForceOrder) {
  // x hangs off a (snowflake: its ON condition references a), so even though
  // x is by far the smallest relation it cannot be joined before a. Greedy
  // takes d (50 rows) over a (100 rows), then a, and only then x.
  Database db(EngineProfile::DSwap());
  std::vector<int64_t> fa(400), fd(400);
  for (size_t i = 0; i < fa.size(); ++i) {
    fa[i] = static_cast<int64_t>(i % 100);
    fd[i] = static_cast<int64_t>(i % 50);
  }
  std::vector<int64_t> ak(100), aj(100);
  for (size_t i = 0; i < ak.size(); ++i) {
    ak[i] = static_cast<int64_t>(i);
    aj[i] = static_cast<int64_t>(i % 2);
  }
  db.RegisterTable(
      TableBuilder("fact").AddInts("ka", fa).AddInts("kd", fd).Build());
  db.RegisterTable(TableBuilder("a").AddInts("ka", ak).AddInts("j", aj).Build());
  db.RegisterTable(TableBuilder("x").AddInts("j", {1}).Build());
  RegisterDim(&db, "d", "kd", 50);
  const std::string sql =
      "SELECT COUNT(*) AS n FROM fact JOIN a ON fact.ka = a.ka "
      "JOIN x ON a.j = x.j JOIN d ON fact.kd = d.kd";
  std::string text = ExplainOf(&db, "EXPLAIN " + sql);
  EXPECT_EQ(ScanOrder(text),
            (std::vector<std::string>{"fact", "d", "a", "x"}))
      << text;
  EXPECT_NE(text.find("joins-reordered"), std::string::npos) << text;
  // Odd ka values have j = 1: half the fact rows survive the join with x.
  EXPECT_EQ(db.QueryScalarDouble(sql), 200.0);
  EXPECT_EQ(UnplannedScalar({db.catalog().Get("fact"), db.catalog().Get("a"),
                             db.catalog().Get("x"), db.catalog().Get("d")},
                            sql),
            200.0);
}

TEST(JoinOrderTest, SemiJoinsNeverSatisfyDependencies) {
  // A semi join drops its right side's columns, so placing s never makes s
  // available to d's ON condition. d therefore has no feasible slot, and the
  // planner keeps the written order instead of moving s in front of d.
  Database db(EngineProfile::DSwap());
  db.RegisterTable(TableBuilder("fact").AddInts("k", {0, 1, 2, 3}).Build());
  db.RegisterTable(TableBuilder("s").AddInts("k", {1, 2}).Build());
  RegisterDim(&db, "d", "k", 4);
  std::string text = ExplainOf(
      &db,
      "EXPLAIN SELECT COUNT(*) AS n FROM fact JOIN d ON s.k = d.k "
      "SEMI JOIN s ON fact.k = s.k");
  EXPECT_EQ(ScanOrder(text), (std::vector<std::string>{"fact", "d", "s"}))
      << text;
  EXPECT_EQ(text.find("joins-reordered"), std::string::npos) << text;
}

TEST(JoinOrderTest, TieBreaksAreDeterministic) {
  // Equal estimates keep the written order: p and r (10 rows) tie, as do q
  // and t (5 rows), so greedy joins q, t, p, r.
  Database db(EngineProfile::DSwap());
  std::vector<int64_t> k10(100), k5(100);
  for (size_t i = 0; i < k10.size(); ++i) {
    k10[i] = static_cast<int64_t>(i % 10);
    k5[i] = static_cast<int64_t>(i % 5);
  }
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("kp", k10)
                       .AddInts("kq", k5)
                       .AddInts("kr", k10)
                       .AddInts("kt", k5)
                       .Build());
  RegisterDim(&db, "p", "kp", 10);
  RegisterDim(&db, "q", "kq", 5);
  RegisterDim(&db, "r", "kr", 10);
  RegisterDim(&db, "t", "kt", 5);
  const std::string sql =
      "EXPLAIN SELECT COUNT(*) AS n FROM fact JOIN p ON fact.kp = p.kp "
      "JOIN q ON fact.kq = q.kq JOIN r ON fact.kr = r.kr "
      "JOIN t ON fact.kt = t.kt";
  std::string text = ExplainOf(&db, sql);
  EXPECT_EQ(ScanOrder(text),
            (std::vector<std::string>{"fact", "q", "t", "p", "r"}))
      << text;
  EXPECT_EQ(ExplainOf(&db, sql), text) << "re-planning changed the order";

  // All-equal estimates: the written order is already greedy's choice, so
  // nothing is reordered.
  std::string same = ExplainOf(
      &db,
      "EXPLAIN SELECT COUNT(*) AS n FROM fact JOIN p ON fact.kp = p.kp "
      "JOIN r ON fact.kr = r.kr");
  EXPECT_EQ(ScanOrder(same), (std::vector<std::string>{"fact", "p", "r"}))
      << same;
  EXPECT_EQ(same.find("joins-reordered"), std::string::npos) << same;
}

// ---------------------------------------------------------------------------
// Heuristic selectivity of pushed predicates (plan::EstimateSelectivity):
// the post-filter estimates that drive the greedy join order.
// ---------------------------------------------------------------------------

class SelectivityTest : public ::testing::Test {
 protected:
  double Sel(const std::string& pred) {
    return plan::EstimateSelectivity(*sql::ParseExpr(pred));
  }
};

TEST_F(SelectivityTest, InListsSumPerValueEstimates) {
  // Each listed value keeps 5%, capped at half the rows.
  EXPECT_DOUBLE_EQ(Sel("t.k IN (7)"), 0.05);
  EXPECT_DOUBLE_EQ(Sel("t.k IN (1, 2, 3)"), 0.15);
  std::string many = "t.k IN (0";
  for (int i = 1; i < 20; ++i) many += ", " + std::to_string(i);
  EXPECT_DOUBLE_EQ(Sel(many + ")"), 0.5);
  // NOT IN keeps the complement, like IS NOT NULL.
  EXPECT_DOUBLE_EQ(Sel("t.k NOT IN (1, 2, 3)"), 0.85);
}

TEST_F(SelectivityTest, NullPredicates) {
  EXPECT_DOUBLE_EQ(Sel("t.k IS NULL"), 0.1);
  EXPECT_DOUBLE_EQ(Sel("t.k IS NOT NULL"), 0.9);
}

TEST_F(SelectivityTest, ConjunctionsAndDisjunctionsCombine) {
  // AND multiplies, OR adds (capped at 1), NOT complements.
  EXPECT_DOUBLE_EQ(Sel("t.k = 3 AND t.k < 5"), 0.1 * 0.3);
  EXPECT_DOUBLE_EQ(Sel("t.k = 3 OR t.k = 4"), 0.2);
  EXPECT_DOUBLE_EQ(Sel("t.k <> 3 OR t.k <> 4"), 1.0);
  EXPECT_DOUBLE_EQ(Sel("NOT t.k = 3"), 0.9);
  EXPECT_DOUBLE_EQ(Sel("NOT (t.k = 3 OR t.k IS NULL)"), 0.8);
}

TEST_F(SelectivityTest, UnsupportedShapesFallBackToHeuristics) {
  // Comparisons are classed by operator alone: no literal side, a computed
  // side, an unknown column or a string range all get the operator's guess.
  EXPECT_DOUBLE_EQ(Sel("t.k = t.k"), 0.1);
  EXPECT_DOUBLE_EQ(Sel("t.k + 1 = 3"), 0.1);
  EXPECT_DOUBLE_EQ(Sel("t.missing = 3"), 0.1);
  EXPECT_DOUBLE_EQ(Sel("t.s < 'hot'"), 0.3);
  EXPECT_DOUBLE_EQ(Sel("t.k <> 3"), 0.9);
  // Shapes with no rule at all keep half the rows.
  EXPECT_DOUBLE_EQ(Sel("t.k"), 0.5);
  EXPECT_DOUBLE_EQ(Sel("t.k + 1"), 0.5);
  EXPECT_DOUBLE_EQ(Sel("t.k IN (SELECT u.k FROM u)"), 0.5);
  // Folded literals are exact.
  EXPECT_DOUBLE_EQ(Sel("1"), 1.0);
  EXPECT_DOUBLE_EQ(Sel("0"), 0.0);
}

TEST(PlannerStatsTest, ProjectionPruningSkipsDecompression) {
  // D-Swap compresses the loaded table's int columns (a, u); its double
  // columns (v, w) stay plain and cost no decode. A planned aggregate reads
  // a (filter) and v (agg), so it decodes 1 column: a. The unplanned path
  // reads all four, so it decodes 2: a and u.
  EngineProfile on = EngineProfile::DSwap();
  EngineProfile off = EngineProfile::DSwap();
  off.use_planner = false;
  Database planned(on), unplanned(off);
  for (Database* db : {&planned, &unplanned}) {
    db->LoadTable(TableBuilder("wide")
                      .AddInts("a", {1, 2, 3, 4})
                      .AddDoubles("v", {1.5, 2.5, 3.5, 4.5})
                      .AddDoubles("w", {0.1, 0.2, 0.3, 0.4})
                      .AddInts("u", {7, 8, 9, 10})
                      .Build());
    db->Query("SELECT SUM(v) AS sv FROM wide WHERE a > 1");
  }
  plan::PlanStats with_planner = planned.PlanStatsTotals();
  plan::PlanStats without = unplanned.PlanStatsTotals();
  EXPECT_EQ(with_planner.queries_planned, 1u);
  EXPECT_EQ(with_planner.cols_decompressed, 1u);  // a
  EXPECT_EQ(with_planner.cols_pruned, 2u);        // w, u skipped
  EXPECT_EQ(without.cols_decompressed, 2u);       // a, u
  EXPECT_EQ(without.queries_planned, 0u);
  EXPECT_LT(with_planner.cells_decompressed, without.cells_decompressed);
  EXPECT_EQ(with_planner.predicates_pushed, 1u);
  // Fused scan filter: only rows surviving a > 1 leave the scan.
  EXPECT_EQ(with_planner.rows_scan_input, 4u);
  EXPECT_EQ(with_planner.rows_scan_output, 3u);
}

TEST(PlannerRulesTest, DopEstimateFollowsMorselPolicy) {
  plan::ParallelPolicy p;
  p.threads = 4;
  p.morsel_rows = 16384;
  p.threshold_rows = 8192;
  EXPECT_EQ(p.DopForRows(-1), 1);       // unknown cardinality: stay serial
  EXPECT_EQ(p.DopForRows(4000), 1);     // below threshold
  EXPECT_EQ(p.DopForRows(8192), 1);     // one morsel
  EXPECT_EQ(p.DopForRows(20000), 2);    // two morsels, capped by count
  EXPECT_EQ(p.DopForRows(1000000), 4);  // capped by thread budget
  p.threads = 1;
  EXPECT_EQ(p.DopForRows(1000000), 1);  // serial engine never fans out
}

TEST(PlannerEngineTest, ExplainSurfacesDopOnLargeScansOnly) {
  Database db(EngineProfile::DSwap());
  std::vector<int64_t> big_a(100000), big_b(100000);
  for (size_t i = 0; i < big_a.size(); ++i) {
    big_a[i] = static_cast<int64_t>(i % 97);
    big_b[i] = static_cast<int64_t>(i % 13);
  }
  db.RegisterTable(
      TableBuilder("big").AddInts("a", big_a).AddInts("b", big_b).Build());
  db.RegisterTable(TableBuilder("tiny").AddInts("a", {1, 2, 3}).Build());
  auto text = [&](const std::string& sql) {
    auto t = db.Query(sql);
    std::string out;
    for (size_t r = 0; r < t->rows; ++r) out += t->GetValue(r, 0).s + "\n";
    return out;
  };
  // 100k rows = 7 morsels at the default 16384, more than the thread budget:
  // the scan and the aggregate above it advertise the full pool-clamped DOP.
  std::string big_plan = text(
      "EXPLAIN SELECT a, COUNT(*) AS c FROM big WHERE b > 5 GROUP BY a");
  std::string want = "dop=" + std::to_string(db.exec_threads());
  if (db.exec_threads() > 1) {
    EXPECT_NE(big_plan.find(want), std::string::npos) << big_plan;
  }
  // Tiny tables stay serial and render exactly as before (golden stability).
  std::string tiny_plan = text("EXPLAIN SELECT a FROM tiny WHERE a > 1");
  EXPECT_EQ(tiny_plan.find("dop="), std::string::npos) << tiny_plan;
}

TEST(PlannerEngineTest, IntraQueryThreadsClampedToPoolSize) {
  EngineProfile p = EngineProfile::DSwap();
  p.exec_threads = 1 << 20;
  Database db(p);
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_LE(db.exec_threads(), static_cast<int>(hw) * 2);
  }
  EXPECT_GE(db.exec_threads(), 1);
  // A parallel-cutoff-sized aggregate must not deadlock or over-shard.
  std::vector<int64_t> a(70000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<int64_t>(i % 97);
  db.RegisterTable(TableBuilder("big").AddInts("a", a).Build());
  auto t = db.Query("SELECT a, COUNT(*) AS c FROM big GROUP BY a");
  EXPECT_EQ(t->rows, 97u);
}

// ---------------------------------------------------------------------------
// Full training run: planner on vs off must grow bit-identical models.
// ---------------------------------------------------------------------------

TEST(PlannerTrainEquivalenceTest, PlannerOnOffGrowsIdenticalModels) {
  EngineProfile on = EngineProfile::DSwap();
  EngineProfile off = EngineProfile::DSwap();
  off.use_planner = false;
  Database db_on(on), db_off(off);
  test_util::BuildSmallSnowflake(&db_on, /*seed=*/123, /*rows=*/2000);
  test_util::BuildSmallSnowflake(&db_off, /*seed=*/123, /*rows=*/2000);
  Dataset ds_on = test_util::MakeSnowflakeDataset(&db_on);
  Dataset ds_off = test_util::MakeSnowflakeDataset(&db_off);

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 3;
  params.num_leaves = 4;
  TrainResult res_on = Train(params, ds_on);
  TrainResult res_off = Train(params, ds_off);

  // Same structure, same predictions, bitwise.
  ASSERT_EQ(res_on.model.trees.size(), res_off.model.trees.size());
  EXPECT_EQ(res_on.model.ToString(), res_off.model.ToString());
  core::JoinedEval eval_on = core::MaterializeJoin(ds_on);
  core::JoinedEval eval_off = core::MaterializeJoin(ds_off);
  ASSERT_EQ(eval_on.rows(), eval_off.rows());
  for (size_t r = 0; r < eval_on.rows(); ++r) {
    ASSERT_EQ(eval_on.Predict(res_on.model, r),
              eval_off.Predict(res_off.model, r))
        << "row " << r;
  }
  // The planner must have been active (and have pruned something) on the
  // planned run only.
  EXPECT_GT(res_on.plan_stats.queries_planned, 0u);
  EXPECT_EQ(res_off.plan_stats.queries_planned, 0u);
}

TEST(PlannerTrainEquivalenceTest,
     FavoritaGbdtIsBitIdenticalAcrossPlannerAndThreads) {
  // The same pin on the Favorita snowflake: the greedy-ordered planned train
  // at 1 and 4 threads and the unplanned train grow the same model and
  // predict the same values, bit for bit.
  struct Config {
    const char* label;
    bool use_planner;
    int threads;
  };
  const Config configs[] = {
      {"planner x1", true, 1},
      {"planner x4", true, 4},
      {"planner-off x1", false, 1},
  };
  std::vector<std::string> models;
  std::vector<std::vector<double>> predictions;
  for (const Config& c : configs) {
    EngineProfile p = EngineProfile::DSwap();
    p.use_planner = c.use_planner;
    p.exec_threads = c.threads;
    Database db(p);
    Dataset ds = data::MakeFavorita(&db, test_util::TinyFavorita());
    core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = 5;
    params.num_leaves = 8;
    params.learning_rate = 0.2;
    TrainResult res = Train(params, ds);
    models.push_back(res.model.ToString());
    core::JoinedEval eval = core::MaterializeJoin(ds);
    std::vector<double> preds(eval.rows());
    for (size_t r = 0; r < eval.rows(); ++r) {
      preds[r] = eval.Predict(res.model, r);
    }
    predictions.push_back(std::move(preds));
  }
  for (size_t i = 1; i < models.size(); ++i) {
    EXPECT_EQ(models[0], models[i])
        << "model diverged under config " << configs[i].label;
    ASSERT_EQ(predictions[0].size(), predictions[i].size());
    for (size_t r = 0; r < predictions[0].size(); ++r) {
      ASSERT_EQ(predictions[0][r], predictions[i][r])
          << "prediction diverged at row " << r << " under config "
          << configs[i].label;
    }
  }
}

}  // namespace
}  // namespace joinboost
