#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sql/parser.h"
#include "sql/printer.h"
#include "util/rng.h"

namespace joinboost {
namespace {

// Seeded mutation fuzz of the SQL parser. Each input is a seed statement
// with a few random edits. It must either parse or throw sql::ParseError
// (never crash, never throw anything else), and a parsed statement must print
// to a fixed point: printing, re-parsing and printing again gives the same
// text. The seed and count are fixed, so a failure replays exactly.
constexpr uint64_t kSeed = 20240917;
constexpr int kMutations = 20000;
constexpr size_t kMaxLength = 2048;

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus = {
      "SELECT a, b FROM r WHERE b >= 2",
      "SELECT 1 + 2 AS x, 3.5 * -2 AS y, .5 AS z, 1e999 AS w, 1e-5 AS v",
      "SELECT a, SUM(b) AS s, COUNT(*) AS c FROM r GROUP BY a "
      "HAVING SUM(b) > 1 ORDER BY a DESC LIMIT 5",
      "SELECT r.a AS a, COUNT(*) AS c FROM r JOIN s ON r.a = s.a "
      "LEFT OUTER JOIN t ON t.a = r.a SEMI JOIN u ON u.a = r.a "
      "ANTI JOIN v ON v.a = r.a GROUP BY r.a",
      "SELECT COUNT(*) AS c FROM r WHERE a IN (SELECT a FROM s WHERE c > 2) "
      "AND b NOT IN (1, 2, 3) AND c IS NOT NULL AND d IS NULL",
      "SELECT SUM(CASE WHEN b > 2 THEN 1 WHEN b < 0 THEN -1 ELSE 0 END) AS big "
      "FROM r",
      "SELECT a, SUM(b) OVER (PARTITION BY c ORDER BY a ASC) AS cum FROM "
      "(SELECT a, SUM(b) AS b, c FROM r GROUP BY a, c) AS q ORDER BY a",
      "SELECT DISTINCT a FROM r WHERE NOT (a <> 1 OR a != 2) AND a BETWEEN 1 "
      "AND 9",
      "SELECT GROUPING_ID() AS set_id, k0, SUM(s) AS s FROM f "
      "GROUP BY GROUPING SETS ((k0), (k1, k2), ())",
      "SELECT (SELECT MAX(a) FROM r) AS m, 'it''s' AS q, NULL AS n",
      "CREATE TABLE x AS SELECT a % 3 AS m, a / 2 AS h FROM r",
      "CREATE OR REPLACE TABLE y AS SELECT * FROM r",
      "UPDATE f SET s = s - 1.5, q = q + 2.25 WHERE d IN (SELECT d FROM m)",
      "CREATE TABLE t1 AS SELECT CASE WHEN (x <= 0.5) AND k IN (SELECT k FROM "
      "m1) AND (a, b) IN (SELECT a, b FROM m2) THEN s - 0.25 WHEN k IN "
      "(SELECT k FROM m1) THEN s + 1.0 ELSE s END AS s FROM f",
      "SELECT COUNT(*) AS c FROM f WHERE (f.a, (b + 1), 'x') NOT IN "
      "(SELECT a, b, c FROM m WHERE a > 2)",
      "DROP TABLE IF EXISTS msgs;",
      "EXPLAIN ANALYZE SELECT a FROM r -- trailing comment\n WHERE a > 1",
  };
  return corpus;
}

const std::vector<std::string>& Fragments() {
  static const std::vector<std::string> fragments = {
      "(", ")", ",", "'", "''", "-", "--", "*", ".", ";", "<>", "!=", "||",
      "<=", " ", "\n", "\"", "\x01", "\xff", "SELECT ", " FROM ", " WHERE ",
      " AND ", " OR ", " NOT ", " IN ", " IS ", " NULL ", " CASE ", " WHEN ",
      " THEN ", " ELSE ", " END ", " OVER ", " GROUPING SETS ", " BETWEEN ",
      " LIMIT ", " AS ", "1e999", "9223372036854775808", ".5", "1e", "e",
      "0x1F", "1.2.3",
  };
  return fragments;
}

std::string Mutate(std::string text, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.NextBounded(4));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = rng.NextBounded(text.size() + 1);
    switch (rng.NextBounded(6)) {
      case 0:  // delete a short span
        text.erase(pos, 1 + rng.NextBounded(8));
        break;
      case 1: {  // insert a grammar fragment
        const auto& frags = Fragments();
        text.insert(pos, frags[rng.NextBounded(frags.size())]);
        break;
      }
      case 2:  // overwrite one byte with any byte
        if (pos < text.size()) {
          text[pos] = static_cast<char>(rng.NextBounded(256));
        }
        break;
      case 3: {  // duplicate a span
        const std::string span = text.substr(pos, 1 + rng.NextBounded(16));
        text.insert(pos, span);
        break;
      }
      case 4: {  // splice in the tail of another seed
        const auto& corpus = Corpus();
        const std::string& other = corpus[rng.NextBounded(corpus.size())];
        text = text.substr(0, pos) +
               other.substr(rng.NextBounded(other.size() + 1));
        break;
      }
      default:  // truncate
        text.resize(pos);
        break;
    }
    if (text.size() > kMaxLength) text.resize(kMaxLength);
  }
  return text;
}

TEST(SqlParserFuzzTest, MutatedStatementsParseOrRaiseParseError) {
  // Every seed is valid SQL that prints to a fixed point.
  for (const std::string& q : Corpus()) {
    SCOPED_TRACE(q);
    const std::string printed = sql::ToSql(sql::Parse(q));
    ASSERT_EQ(sql::ToSql(sql::Parse(printed)), printed);
  }
  Rng rng(kSeed);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    const auto& corpus = Corpus();
    const std::string input =
        Mutate(corpus[rng.NextBounded(corpus.size())], rng);
    SCOPED_TRACE("mutation " + std::to_string(i) + ": " + input);
    std::string printed;
    try {
      printed = sql::ToSql(sql::Parse(input));
    } catch (const sql::ParseError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "non-parse error: " << e.what();
    }
    ++parsed;
    try {
      ASSERT_EQ(sql::ToSql(sql::Parse(printed)), printed);
    } catch (const std::exception& e) {
      FAIL() << "printed form '" << printed << "' does not parse: "
             << e.what();
    }
  }
  // Both outcomes must be common, or the mutations explore nothing.
  EXPECT_GT(parsed, kMutations / 20);
  EXPECT_GT(rejected, kMutations / 20);
}

TEST(SqlParserFuzzTest, DeepNestingIsAParseError) {
  // Each nesting level recurses in the parser; far past its bound, the
  // input must be rejected rather than overflow the stack.
  for (const char* open : {"(", "-", "NOT ", "(SELECT "}) {
    SCOPED_TRACE(open);
    std::string text = "SELECT ";
    for (int i = 0; i < 100000; ++i) text += open;
    text += "1";
    EXPECT_THROW(sql::Parse(text), sql::ParseError);
  }
  const std::string shallow =
      "SELECT " + std::string(100, '(') + "1" + std::string(100, ')');
  EXPECT_NO_THROW(sql::Parse(shallow));
}

}  // namespace
}  // namespace joinboost
