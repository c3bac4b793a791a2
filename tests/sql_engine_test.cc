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
