#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "exec/engine.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "storage/table.h"

namespace joinboost {
namespace {

using exec::Database;

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(EngineProfile::DSwap());
    db_->RegisterTable(TableBuilder("r")
                           .AddInts("a", {1, 1, 2, 2})
                           .AddInts("b", {2, 3, 1, 2})
                           .Build());
    db_->RegisterTable(TableBuilder("s")
                           .AddInts("a", {1, 1, 2})
                           .AddInts("c", {2, 1, 3})
                           .Build());
    db_->RegisterTable(TableBuilder("t")
                           .AddInts("a", {1, 1, 2})
                           .AddInts("d", {1, 2, 2})
                           .Build());
  }
  std::unique_ptr<Database> db_;
};

TEST_F(SqlEngineTest, SimpleSelect) {
  auto res = db_->Query("SELECT a, b FROM r WHERE b >= 2");
  EXPECT_EQ(res->rows, 3u);
  EXPECT_EQ(res->cols.size(), 2u);
}

TEST_F(SqlEngineTest, SelectExpressionNoFrom) {
  auto res = db_->Query("SELECT 1 + 2 AS x, 3.5 * 2 AS y");
  EXPECT_EQ(res->rows, 1u);
  EXPECT_EQ(res->GetValue(0, 0).i, 3);
  EXPECT_DOUBLE_EQ(res->GetValue(0, 1).d, 7.0);
}

TEST_F(SqlEngineTest, GroupByAggregate) {
  auto res = db_->Query(
      "SELECT a, SUM(b) AS s, COUNT(*) AS c FROM r GROUP BY a ORDER BY a");
  ASSERT_EQ(res->rows, 2u);
  EXPECT_EQ(res->GetValue(0, 0).i, 1);
  EXPECT_EQ(res->GetValue(0, 1).i, 5);
  EXPECT_EQ(res->GetValue(0, 2).i, 2);
  EXPECT_EQ(res->GetValue(1, 1).i, 3);
}

TEST_F(SqlEngineTest, GlobalAggregate) {
  auto res = db_->Query("SELECT SUM(b) AS s, COUNT(*) AS c, AVG(b) AS m FROM r");
  ASSERT_EQ(res->rows, 1u);
  EXPECT_EQ(res->GetValue(0, 0).i, 8);
  EXPECT_EQ(res->GetValue(0, 1).i, 4);
  EXPECT_DOUBLE_EQ(res->GetValue(0, 2).d, 2.0);
}

TEST_F(SqlEngineTest, JoinAggregate) {
  // r(a,b) join s(a,c): a=1 has 2x2 rows, a=2 has 2x1 rows -> 6 rows.
  auto res = db_->Query(
      "SELECT r.a AS a, COUNT(*) AS c FROM r JOIN s ON r.a = s.a "
      "GROUP BY r.a ORDER BY a");
  ASSERT_EQ(res->rows, 2u);
  EXPECT_EQ(res->GetValue(0, 1).i, 4);
  EXPECT_EQ(res->GetValue(1, 1).i, 2);
}

TEST_F(SqlEngineTest, ThreeWayJoinCount) {
  auto res = db_->Query(
      "SELECT COUNT(*) AS c FROM r JOIN s ON r.a = s.a JOIN t ON r.a = t.a");
  // a=1: 2*2*2=8, a=2: 2*1*1=2 -> 10
  EXPECT_EQ(res->GetValue(0, 0).i, 10);
}

TEST_F(SqlEngineTest, InSubquery) {
  auto res = db_->Query(
      "SELECT COUNT(*) AS c FROM r WHERE a IN (SELECT a FROM s WHERE c > 2)");
  EXPECT_EQ(res->GetValue(0, 0).i, 2);  // only a=2 qualifies
}

TEST_F(SqlEngineTest, CaseWhen) {
  auto res = db_->Query(
      "SELECT SUM(CASE WHEN b > 2 THEN 1 ELSE 0 END) AS big FROM r");
  EXPECT_EQ(res->GetValue(0, 0).i, 1);
}

TEST_F(SqlEngineTest, WindowPrefixSum) {
  auto res = db_->Query(
      "SELECT a, SUM(b) OVER (ORDER BY a) AS cum FROM "
      "(SELECT a, SUM(b) AS b FROM r GROUP BY a) ORDER BY a");
  ASSERT_EQ(res->rows, 2u);
  EXPECT_DOUBLE_EQ(res->GetValue(0, 1).d, 5.0);
  EXPECT_DOUBLE_EQ(res->GetValue(1, 1).d, 8.0);
}

TEST_F(SqlEngineTest, CreateTableAsAndDrop) {
  db_->Execute("CREATE TABLE tmp AS SELECT a, SUM(b) AS s FROM r GROUP BY a");
  auto res = db_->Query("SELECT COUNT(*) AS c FROM tmp");
  EXPECT_EQ(res->GetValue(0, 0).i, 2);
  db_->Execute("DROP TABLE tmp");
  EXPECT_FALSE(db_->catalog().Exists("tmp"));
}

TEST_F(SqlEngineTest, UpdateWithWhere) {
  db_->Execute("CREATE TABLE u AS SELECT a, b FROM r");
  auto res = db_->Execute("UPDATE u SET b = b + 10 WHERE a = 1");
  EXPECT_EQ(res.affected, 2u);
  auto sum = db_->QueryScalarDouble("SELECT SUM(b) AS s FROM u");
  EXPECT_DOUBLE_EQ(sum, 8 + 20);
}

TEST_F(SqlEngineTest, OrderByDescLimit) {
  auto res = db_->Query("SELECT a, b FROM r ORDER BY b DESC LIMIT 2");
  ASSERT_EQ(res->rows, 2u);
  EXPECT_EQ(res->GetValue(0, 1).i, 3);
}

TEST_F(SqlEngineTest, DistinctSelect) {
  auto res = db_->Query("SELECT DISTINCT a FROM r");
  EXPECT_EQ(res->rows, 2u);
}

TEST_F(SqlEngineTest, LeftJoinWherePredicateKeepsNullSemantics) {
  // Regression: a WHERE predicate on the nullable side of a LEFT JOIN must
  // run after the join. Pushing it into the right-hand scan (the engine's
  // old behaviour) empties the build side and null-extends every row.
  db_->RegisterTable(
      TableBuilder("small").AddInts("a", {1}).AddInts("z", {42}).Build());
  auto res = db_->Query(
      "SELECT r.a AS a FROM r LEFT JOIN small ON r.a = small.a "
      "WHERE small.z IS NULL ORDER BY a");
  ASSERT_EQ(res->rows, 2u);  // only the a=2 rows have no match
  EXPECT_EQ(res->GetValue(0, 0).i, 2);
  EXPECT_EQ(res->GetValue(1, 0).i, 2);
}

TEST_F(SqlEngineTest, ExplainReturnsPlanText) {
  auto res = db_->Query(
      "EXPLAIN SELECT r.a AS a, COUNT(*) AS c FROM r JOIN s ON r.a = s.a "
      "WHERE r.b >= 2 GROUP BY r.a");
  ASSERT_GE(res->rows, 4u);
  ASSERT_EQ(res->cols.size(), 1u);
  EXPECT_EQ(res->cols[0].name, "plan");
  std::string text;
  for (size_t r = 0; r < res->rows; ++r) text += res->GetValue(r, 0).s + "\n";
  EXPECT_NE(text.find("Aggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("Join INNER"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan r"), std::string::npos) << text;
  EXPECT_NE(text.find("filter="), std::string::npos) << text;
}

TEST_F(SqlEngineTest, LeftJoinProducesNulls) {
  db_->RegisterTable(
      TableBuilder("small").AddInts("a", {1}).AddInts("z", {42}).Build());
  auto res = db_->Query(
      "SELECT r.a AS a, small.z AS z FROM r LEFT JOIN small ON r.a = small.a "
      "ORDER BY a");
  ASSERT_EQ(res->rows, 4u);
  EXPECT_EQ(res->GetValue(0, 1).i, 42);
  EXPECT_TRUE(res->GetValue(3, 1).null);
}

TEST_F(SqlEngineTest, SemiAndAntiJoin) {
  db_->RegisterTable(
      TableBuilder("keys").AddInts("a", {2}).Build());
  auto semi = db_->Query(
      "SELECT COUNT(*) AS c FROM r SEMI JOIN keys ON r.a = keys.a");
  EXPECT_EQ(semi->GetValue(0, 0).i, 2);
  auto anti = db_->Query(
      "SELECT COUNT(*) AS c FROM r ANTI JOIN keys ON r.a = keys.a");
  EXPECT_EQ(anti->GetValue(0, 0).i, 2);
}

TEST_F(SqlEngineTest, StringDictionaryFilter) {
  db_->RegisterTable(TableBuilder("names")
                         .AddInts("id", {1, 2, 3})
                         .AddStrings("name", {"ann", "bob", "ann"})
                         .Build());
  auto res = db_->Query(
      "SELECT COUNT(*) AS c FROM names WHERE name = 'ann'");
  EXPECT_EQ(res->GetValue(0, 0).i, 2);
}

TEST_F(SqlEngineTest, EscapedQuoteFiltersOnTheQuotedValue) {
  db_->RegisterTable(TableBuilder("names")
                         .AddInts("id", {1, 2, 3})
                         .AddStrings("name", {"O'Brien", "x", "O'Brien"})
                         .Build());
  auto res = db_->Query(
      "SELECT COUNT(*) AS c FROM names WHERE name = 'O''Brien'");
  EXPECT_EQ(res->GetValue(0, 0).i, 2);
  // The would-be injection stays one literal that matches nothing.
  res = db_->Query("SELECT COUNT(*) AS c FROM names WHERE name = 'x'' OR "
                   "''1''=''1'");
  EXPECT_EQ(res->GetValue(0, 0).i, 0);
}

TEST_F(SqlEngineTest, QueryLogTagsAndTiming) {
  db_->ClearQueryLog();
  db_->Query("SELECT COUNT(*) AS c FROM r", "message");
  db_->Query("SELECT a FROM r", "feature");
  db_->Query("SELECT b FROM r", "feature");
  EXPECT_EQ(db_->CountForTag("message"), 1u);
  EXPECT_EQ(db_->CountForTag("feature"), 2u);
  EXPECT_GE(db_->TotalMsForTag("feature"), 0.0);
}

TEST_F(SqlEngineTest, ColumnSwap) {
  db_->Execute("CREATE TABLE f1 AS SELECT a, b FROM r");
  db_->Execute("CREATE TABLE f2 AS SELECT a, b + 100 AS b FROM r");
  db_->SwapColumns("f1", "b", "f2", "b");
  auto sum = db_->QueryScalarDouble("SELECT SUM(b) AS s FROM f1");
  EXPECT_DOUBLE_EQ(sum, 8 + 400);
}

TEST_F(SqlEngineTest, RoundTrippedQueriesExecuteIdentically) {
  // Every SELECT exercised by this suite must survive parse -> print ->
  // re-parse (fixed point on the printed text) AND the printed form must
  // produce the exact same result table when executed.
  const char* queries[] = {
      "SELECT a, b FROM r WHERE b >= 2",
      "SELECT 1 + 2 AS x, 3.5 * 2 AS y",
      "SELECT a, SUM(b) AS s, COUNT(*) AS c FROM r GROUP BY a ORDER BY a",
      "SELECT SUM(b) AS s, COUNT(*) AS c, AVG(b) AS m FROM r",
      "SELECT r.a AS a, COUNT(*) AS c FROM r JOIN s ON r.a = s.a "
      "GROUP BY r.a ORDER BY a",
      "SELECT COUNT(*) AS c FROM r JOIN s ON r.a = s.a JOIN t ON r.a = t.a",
      "SELECT COUNT(*) AS c FROM r WHERE a IN (SELECT a FROM s WHERE c > 2)",
      "SELECT SUM(CASE WHEN b > 2 THEN 1 ELSE 0 END) AS big FROM r",
      "SELECT a, SUM(b) OVER (ORDER BY a) AS cum FROM "
      "(SELECT a, SUM(b) AS b FROM r GROUP BY a) ORDER BY a",
      "SELECT a, b FROM r ORDER BY b DESC LIMIT 2",
      "SELECT DISTINCT a FROM r",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    sql::Statement ast = sql::Parse(q);
    std::string printed = sql::ToSql(ast);
    EXPECT_EQ(printed, sql::ToSql(sql::Parse(printed)));

    auto expect = db_->Query(q);
    auto got = db_->Query(printed);
    ASSERT_EQ(got->rows, expect->rows);
    ASSERT_EQ(got->cols.size(), expect->cols.size());
    for (size_t row = 0; row < expect->rows; ++row) {
      for (size_t col = 0; col < expect->cols.size(); ++col) {
        EXPECT_TRUE(got->GetValue(row, col) == expect->GetValue(row, col))
            << "row " << row << " col " << col;
      }
    }
  }
}

TEST_F(SqlEngineTest, RoundTrippedDmlExecutesIdentically) {
  // Statements with side effects: run the original and the printed form on
  // separate copies of the data and compare the end state.
  db_->Execute("CREATE TABLE u1 AS SELECT a, b FROM r");
  db_->Execute("CREATE TABLE u2 AS SELECT a, b FROM r");

  const std::string update1 = "UPDATE u1 SET b = b * 2 + 1 WHERE a = 1";
  sql::Statement ast = sql::Parse(update1);
  std::string printed = sql::ToSql(ast);
  EXPECT_EQ(printed, sql::ToSql(sql::Parse(printed)));

  // Point the printed form at the copy. The printer emits the table name
  // verbatim, so a plain substitution is safe here.
  size_t pos = printed.find("u1");
  ASSERT_NE(pos, std::string::npos);
  std::string update2 = printed;
  update2.replace(pos, 2, "u2");

  EXPECT_EQ(db_->Execute(update1).affected, db_->Execute(update2).affected);
  EXPECT_DOUBLE_EQ(db_->QueryScalarDouble("SELECT SUM(b) AS s FROM u1"),
                   db_->QueryScalarDouble("SELECT SUM(b) AS s FROM u2"));
}

// ---- IN (subquery) sets, row-value IN, CASE and AND on selection vectors

/// f(jb_rid, k1, k2) probes m(k1, k2): k1 holds a NULL, rows 0 and 4 share
/// a key pair, m repeats (1, 'x'), and m's strings are coded in a different
/// dictionary order than f's.
void AddRowInTables(Database* db) {
  db->RegisterTable(TableBuilder("f")
                        .AddInts("jb_rid", {0, 1, 2, 3, 4, 5})
                        .AddInts("k1", {1, 1, 2, kNullInt64, 1, 3})
                        .AddStrings("k2", {"x", "y", "x", "x", "x", "z"})
                        .Build());
  db->RegisterTable(TableBuilder("m")
                        .AddInts("k1", {3, 1, 1, 2, 2})
                        .AddStrings("k2", {"z", "x", "x", "w", "y"})
                        .Build());
  db->RegisterTable(TableBuilder("m_null")
                        .AddInts("k1", {kNullInt64})
                        .AddStrings("k2", {"x"})
                        .Build());
}

std::vector<int64_t> IntColumn(const exec::ExecTable& t, size_t col = 0) {
  std::vector<int64_t> out;
  for (size_t r = 0; r < t.rows; ++r) out.push_back(t.GetValue(r, col).i);
  return out;
}

TEST_F(SqlEngineTest, RowValueInIsAnExactSemiJoin) {
  AddRowInTables(db_.get());
  const std::vector<int64_t> members = {0, 4, 5};
  EXPECT_EQ(IntColumn(*db_->Query(
                "SELECT jb_rid FROM f WHERE (k1, k2) IN (SELECT k1, k2 FROM m) "
                "ORDER BY jb_rid")),
            members);
  // The row-id spelling it replaces in the trainer's update statements.
  EXPECT_EQ(IntColumn(*db_->Query(
                "SELECT jb_rid FROM f WHERE jb_rid IN (SELECT jb_rid FROM f "
                "SEMI JOIN m ON f.k1 = m.k1 AND f.k2 = m.k2) ORDER BY jb_rid")),
            members);
  // A NULL probe column is never a member, not even of a NULL row. NOT IN
  // skips row 3 too: (NULL, 'x') against m's (1, 'x') differs in no column
  // where both are non-NULL, so SQL's NOT IN is NULL for it.
  EXPECT_EQ(IntColumn(*db_->Query(
                "SELECT jb_rid FROM f WHERE (k1, k2) NOT IN (SELECT k1, k2 "
                "FROM m) ORDER BY jb_rid")),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(db_->QueryScalarDouble("SELECT COUNT(*) AS c FROM f WHERE (k1, k2) "
                                   "IN (SELECT k1, k2 FROM m_null)"),
            0.0);
  // Row IN in a projection.
  EXPECT_EQ(IntColumn(*db_->Query(
                          "SELECT jb_rid, CASE WHEN (k1, k2) IN (SELECT k1, "
                          "k2 FROM m) THEN 1 ELSE 0 END AS x FROM f ORDER BY "
                          "jb_rid"),
                      1),
            (std::vector<int64_t>{1, 0, 0, 0, 1, 1}));
  // The X-row profile filters row at a time.
  Database row_db(EngineProfile::XRow());
  AddRowInTables(&row_db);
  EXPECT_EQ(IntColumn(*row_db.Query(
                "SELECT jb_rid FROM f WHERE (k1, k2) IN (SELECT k1, k2 FROM m) "
                "ORDER BY jb_rid")),
            members);
}

TEST_F(SqlEngineTest, InSubqueryArityMismatchIsTypedError) {
  EXPECT_THROW(db_->Query("SELECT a FROM r WHERE (a, b) IN (SELECT a FROM s)"),
               JbError);
  EXPECT_THROW(db_->Query("SELECT a FROM r WHERE a IN (SELECT a, c FROM s)"),
               JbError);
}

TEST_F(SqlEngineTest, RepeatedInSubqueryIsPlannedOnce) {
  const size_t before = db_->PlanStatsTotals().queries_planned;
  auto res = db_->Query(
      "SELECT a IN (SELECT a FROM s) AS x, b IN (SELECT a FROM s) AS y, "
      "a IN (SELECT c FROM s) AS z FROM r");
  // The statement itself, then one run per distinct subquery text.
  EXPECT_EQ(db_->PlanStatsTotals().queries_planned - before, 3u);
  EXPECT_EQ(IntColumn(*res, 0), (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(IntColumn(*res, 1), (std::vector<int64_t>{1, 0, 1, 1}));
  EXPECT_EQ(IntColumn(*res, 2), (std::vector<int64_t>{1, 1, 1, 1}));

  const size_t mid = db_->PlanStatsTotals().queries_planned;
  db_->Query(
      "SELECT a IN (SELECT a FROM s) AS x, b IN (SELECT a FROM s) AS y FROM r");
  EXPECT_EQ(db_->PlanStatsTotals().queries_planned - mid, 2u);
}

TEST_F(SqlEngineTest, CaseTypesAndNullsOnSelectionVectors) {
  // A THEN no row reaches still types the result double.
  auto res = db_->Query(
      "SELECT CASE WHEN a > 100 THEN 0.5 ELSE a END AS x FROM r");
  ASSERT_EQ(res->cols[0].data.type, TypeId::kFloat64);
  EXPECT_EQ(res->cols[0].data.Dbls(), (std::vector<double>{1, 1, 2, 2}));
  // A branch no row reaches still raises a name error.
  EXPECT_THROW(
      db_->Query("SELECT CASE WHEN a > 100 THEN nope ELSE a END AS x FROM r"),
      JbError);
  // A NULL WHEN counts as false.
  AddRowInTables(db_.get());
  EXPECT_EQ(IntColumn(*db_->Query(
                "SELECT CASE WHEN k1 THEN 1 ELSE 2 END AS x FROM f")),
            (std::vector<int64_t>{1, 1, 1, 2, 1, 1}));
  // No ELSE: the unmatched rows are NULL.
  res = db_->Query(
      "SELECT CASE WHEN a = 1 THEN b WHEN b = 1 THEN 10 END AS x FROM r");
  EXPECT_EQ(IntColumn(*res), (std::vector<int64_t>{2, 3, 10, kNullInt64}));
  res = db_->Query("SELECT CASE WHEN a = 1 THEN 0.5 END AS x FROM r");
  EXPECT_EQ(res->cols[0].data.Dbls()[0], 0.5);
  EXPECT_TRUE(std::isnan(res->cols[0].data.Dbls()[2]));
  // CASE over aggregates in a grouped projection.
  res = db_->Query(
      "SELECT a, CASE WHEN SUM(b) > 4 THEN SUM(b) * 2 ELSE COUNT(*) END AS x "
      "FROM r GROUP BY a ORDER BY a");
  EXPECT_EQ(IntColumn(*res, 1), (std::vector<int64_t>{10, 2}));
}

/// Strings per row of column `col` ("NULL" for a NULL).
std::vector<std::string> StringColumn(const exec::ExecTable& t,
                                      size_t col = 0) {
  std::vector<std::string> out;
  for (size_t r = 0; r < t.rows; ++r) {
    Value v = t.GetValue(r, col);
    out.push_back(v.null ? "NULL" : v.s);
  }
  return out;
}

TEST_F(SqlEngineTest, CaseWithStringBranchesReturnsStrings) {
  // Each string literal mints its own dictionary: the result remaps every
  // branch's codes into one.
  auto res = db_->Query(
      "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END AS c FROM r");
  ASSERT_EQ(res->cols[0].data.type, TypeId::kString);
  EXPECT_EQ(StringColumn(*res), (std::vector<std::string>{"x", "x", "y", "y"}));
  res = db_->Query(
      "SELECT CASE WHEN b = 2 THEN 'x' WHEN b = 3 THEN 'z' END AS c FROM r");
  EXPECT_EQ(StringColumn(*res),
            (std::vector<std::string>{"x", "z", "NULL", "x"}));
  res = db_->Query(
      "SELECT CASE WHEN b = 1 THEN NULL ELSE 'y' END AS c FROM r");
  EXPECT_EQ(StringColumn(*res),
            (std::vector<std::string>{"y", "y", "NULL", "y"}));
  // Grouping on the result groups by string.
  res = db_->Query(
      "SELECT CASE WHEN b > 1 THEN 'hi' ELSE 'lo' END AS g, COUNT(*) AS n "
      "FROM r GROUP BY CASE WHEN b > 1 THEN 'hi' ELSE 'lo' END ORDER BY n");
  EXPECT_EQ(StringColumn(*res), (std::vector<std::string>{"lo", "hi"}));
  // String and non-string results do not mix.
  EXPECT_THROW(
      db_->Query("SELECT CASE WHEN a = 1 THEN 'x' ELSE 2 END AS c FROM r"),
      JbError);
  EXPECT_THROW(
      db_->Query("SELECT CASE WHEN a = 1 THEN b ELSE 'y' END AS c FROM r"),
      JbError);
}

TEST_F(SqlEngineTest, AndRunsItsRightOperandOnPassedRows) {
  // HAVING with AND over two aggregates.
  EXPECT_EQ(IntColumn(*db_->Query("SELECT a FROM r GROUP BY a HAVING "
                                  "COUNT(*) = 2 AND SUM(b) > 4")),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(IntColumn(*db_->Query("SELECT a FROM r GROUP BY a HAVING "
                                  "SUM(b) < 4 AND MAX(b) = 2")),
            (std::vector<int64_t>{2}));
  // A left operand that passes no row: the right one's IN runs no subquery.
  const size_t before = db_->PlanStatsTotals().queries_planned;
  auto res = db_->Query(
      "SELECT CASE WHEN a > 100 AND b IN (SELECT c FROM s) THEN 1 ELSE 0 END "
      "AS x FROM r");
  EXPECT_EQ(db_->PlanStatsTotals().queries_planned - before, 1u);
  EXPECT_EQ(IntColumn(*res), (std::vector<int64_t>{0, 0, 0, 0}));
  EXPECT_EQ(db_->QueryScalarDouble("SELECT COUNT(*) AS c FROM r WHERE a < 2 "
                                   "AND b IN (SELECT c FROM s WHERE a = 1)"),
            1.0);
}

TEST(SqlRoundTripTest, RowValueInRoundTrips) {
  const char* exprs[] = {
      "(a, b) IN (SELECT a, b FROM t)",
      "(t.a, (b + 1)) NOT IN (SELECT a, b FROM t WHERE c > 2)",
      "(x > 1) AND ((a, b, c) IN (SELECT a, b, c FROM m))",
  };
  for (const char* text : exprs) {
    SCOPED_TRACE(text);
    std::string printed = sql::ToSql(*sql::ParseExpr(text));
    EXPECT_EQ(printed, sql::ToSql(*sql::ParseExpr(printed)));
  }
  sql::ExprPtr e = sql::ParseExpr("(a, b) NOT IN (SELECT a, b FROM t)");
  ASSERT_EQ(e->kind, sql::ExprKind::kInSubquery);
  EXPECT_EQ(e->args.size(), 2u);
  EXPECT_TRUE(e->negated);
  // A parenthesized list is only a row value in front of IN (SELECT ...).
  EXPECT_THROW(sql::Parse("SELECT (a, b) FROM r"), sql::ParseError);
  EXPECT_THROW(sql::Parse("SELECT a FROM r WHERE (a, b) = (1, 2)"),
               sql::ParseError);
  EXPECT_THROW(sql::Parse("SELECT a FROM r WHERE (a, b) IN (1, 2)"),
               sql::ParseError);
}

TEST(SqlRoundTripTest, ParsePrintParse) {
  const char* queries[] = {
      "SELECT a, SUM(b) AS s FROM r GROUP BY a ORDER BY a DESC LIMIT 5",
      "SELECT r.a AS x FROM r JOIN s ON r.a = s.a WHERE r.b > 2 AND s.c < 5",
      "SELECT CASE WHEN a = 1 THEN 2.5 ELSE 0.5 END AS p FROM r",
      "SELECT a FROM r WHERE a IN (SELECT a FROM s) AND b IN (1, 2, 3)",
      "SELECT SUM(c) OVER (PARTITION BY a ORDER BY b) AS w FROM s",
      "CREATE TABLE x AS SELECT DISTINCT a FROM r",
      "UPDATE f SET s = s - 1.5, q = q + 2.25 WHERE d IN (SELECT d FROM m)",
      "DROP TABLE IF EXISTS msgs",
      "EXPLAIN SELECT a, SUM(b) AS s FROM r GROUP BY a ORDER BY a",
  };
  for (const char* q : queries) {
    sql::Statement s1 = sql::Parse(q);
    std::string printed = sql::ToSql(s1);
    sql::Statement s2 = sql::Parse(printed);
    EXPECT_EQ(printed, sql::ToSql(s2)) << "query: " << q;
  }
}

TEST(SqlRoundTripTest, EscapedQuoteRoundTrips) {
  sql::ExprPtr e = sql::ParseExpr("'it''s'");
  ASSERT_EQ(e->kind, sql::ExprKind::kStringLiteral);
  EXPECT_EQ(e->str_val, "it's");
  const std::string printed = sql::ToSql(*e);
  EXPECT_EQ(printed, "'it''s'");
  EXPECT_EQ(sql::ParseExpr(printed)->str_val, "it's");
  EXPECT_EQ(sql::QuoteString("a'b''c"), "'a''b''''c'");
}

TEST(SqlRoundTripTest, NonFiniteFloatLiteralsRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  sql::ExprPtr e = sql::ParseExpr(sql::ToSql(*sql::ParseExpr("1e999")));
  ASSERT_EQ(e->kind, sql::ExprKind::kFloatLiteral);
  EXPECT_EQ(e->float_val, inf);
  // -Inf prints as a negated overflow and NaN, the float NULL, as NULL.
  EXPECT_EQ(sql::ToSql(*sql::Expr::Float(-inf)), "(-1e999)");
  EXPECT_EQ(sql::ParseExpr(sql::ToSql(*sql::Expr::Float(std::nan(""))))->kind,
            sql::ExprKind::kNullLiteral);
}

}  // namespace
}  // namespace joinboost
