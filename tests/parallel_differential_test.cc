// Randomized differential harness for morsel-driven parallel execution.
//
// Every generated query runs on four engines over identical data:
//   {planner on, planner off} x {1 thread, N threads}
// with the morsel knobs lowered so even test-sized inputs fan out. The
// determinism contract is stronger across thread counts than across planner
// modes:
//   * same planner mode, different thread count  -> bit-identical rows in
//     identical order (morsel merges are ordered, aggregate groups re-sort
//     to first-occurrence order, float partials never re-associate);
//   * planner on vs off -> identical ordered rows for ORDER BY queries,
//     identical row multisets otherwise (join reordering may legally change
//     the physical order of unordered output).
// On failure the per-query seed is printed; rerun with
// JB_DIFF_SEED=<seed> JB_DIFF_COUNT=1 to replay a single query.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluate.h"
#include "core/params.h"
#include "core/train.h"
#include "exec/engine.h"
#include "exec/morsel.h"
#include "storage/table.h"
#include "diff_corpus.h"
#include "test_util.h"
#include "util/rng.h"

namespace joinboost {
namespace {

using exec::Database;
using exec::ExecTable;
using diff_corpus::BuildDiffTables;
using diff_corpus::DiffProfile;
using diff_corpus::GenQuery;
using diff_corpus::GenerateQuery;
using diff_corpus::RowStrings;

/// Tuple-at-a-time engine: exercises the HashRowSlow / EvalScalar paths,
/// which must keep producing the same hash values (and therefore the same
/// chains, group ids and row orders) as the columnar vectorized hashing.
EngineProfile RowModeProfile(bool use_planner) {
  EngineProfile p = DiffProfile(use_planner, 1);
  p.name = "X-row-diff";
  p.columnar_exec = false;
  return p;
}

// ---------------------------------------------------------------------------
// The differential fixture: four engines over identical data.
// ---------------------------------------------------------------------------

class ParallelDifferentialTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 6000;
  void SetUp() override {
    on1_ = std::make_unique<Database>(DiffProfile(true, 1));
    onN_ = std::make_unique<Database>(DiffProfile(true, 4));
    off1_ = std::make_unique<Database>(DiffProfile(false, 1));
    offN_ = std::make_unique<Database>(DiffProfile(false, 4));
    for (Database* db : All()) BuildDiffTables(db, /*seed=*/97, kRows);
  }

  std::vector<Database*> All() {
    return {on1_.get(), onN_.get(), off1_.get(), offN_.get()};
  }

  /// Runs `q` everywhere and enforces the contract; failures register as
  /// gtest expectations (the caller checks HasFailure() to print the seed).
  void CheckQuery(const GenQuery& q) {
    auto r_on1 = RowStrings(*on1_->Query(q.sql));
    auto r_onN = RowStrings(*onN_->Query(q.sql));
    auto r_off1 = RowStrings(*off1_->Query(q.sql));
    auto r_offN = RowStrings(*offN_->Query(q.sql));
    // Thread count must never change anything, not even physical order.
    EXPECT_EQ(r_on1, r_onN) << "planner ON: 1 thread vs N threads differ";
    EXPECT_EQ(r_off1, r_offN) << "planner OFF: 1 thread vs N threads differ";
    // Planner on/off: exact when ordered, multiset otherwise.
    if (q.ordered) {
      EXPECT_EQ(r_on1, r_off1) << "planner on/off differ (ordered query)";
    } else {
      auto a = r_on1, b = r_off1;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "planner on/off differ (row multiset)";
    }
  }

  std::unique_ptr<Database> on1_, onN_, off1_, offN_;
};

TEST_F(ParallelDifferentialTest, GeneratedQueriesAreBitIdenticalAcrossConfigs) {
  uint64_t base_seed = 0x4A6F696E42ULL;  // stable across runs
  if (const char* env = std::getenv("JB_DIFF_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  size_t count = 64;
  if (const char* env = std::getenv("JB_DIFF_COUNT")) {
    count = std::strtoull(env, nullptr, 0);
  }
  for (size_t i = 0; i < count; ++i) {
    uint64_t seed = base_seed + i;
    GenQuery q = GenerateQuery(seed);
    SCOPED_TRACE("replay: JB_DIFF_SEED=" + std::to_string(seed) +
                 " JB_DIFF_COUNT=1 | seed " + std::to_string(seed) + " | " +
                 q.sql);
    CheckQuery(q);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[parallel_differential] FAILING SEED: %llu\n"
                   "[parallel_differential] replay with: JB_DIFF_SEED=%llu "
                   "JB_DIFF_COUNT=1\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
  // The harness must actually have exercised the parallel paths.
  EXPECT_GT(onN_->PlanStatsTotals().morsels_dispatched, 0u)
      << "N-thread engine never dispatched a morsel: thresholds broken?";
  EXPECT_EQ(on1_->PlanStatsTotals().morsels_dispatched, 0u)
      << "1-thread engine dispatched morsels: serial baseline broken?";
  // The hash counters are canonical (partition-count independent), so after
  // an identical query stream they must agree bit-for-bit across thread
  // counts — that's what lets the CI bench guard pin them.
  plan::PlanStats s1 = on1_->PlanStatsTotals();
  plan::PlanStats sN = onN_->PlanStatsTotals();
  EXPECT_GT(s1.hash_probes, 0u);
  EXPECT_EQ(s1.hash_probes, sN.hash_probes);
  EXPECT_EQ(s1.hash_chain_follows, sN.hash_chain_follows);
  EXPECT_EQ(s1.hash_bytes, sN.hash_bytes);
}

// Row-mode engines share the operator pipeline but hash keys per tuple
// through Value materialization (morsel::HashKeys' row_mode branch). Hash
// values — and therefore chains, group discovery order and output order —
// must match the columnar engines exactly, so a serial row engine is
// row-sequence identical to the serial columnar engine in the same planner
// mode. This pins HashRowSlow against the vectorized column-at-a-time
// hashing.
TEST_F(ParallelDifferentialTest, RowModeEnginesMatchColumnarBitExactly) {
  auto row_off = std::make_unique<Database>(RowModeProfile(false));
  auto row_on = std::make_unique<Database>(RowModeProfile(true));
  BuildDiffTables(row_off.get(), /*seed=*/97, kRows);
  BuildDiffTables(row_on.get(), /*seed=*/97, kRows);
  uint64_t base_seed = 0x526F774D6FULL;  // distinct from the main fuzz
  if (const char* env = std::getenv("JB_DIFF_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  size_t count = 24;  // row-mode evaluation is tuple-at-a-time (slow)
  if (const char* env = std::getenv("JB_DIFF_COUNT")) {
    count = std::strtoull(env, nullptr, 0);
  }
  for (size_t i = 0; i < count; ++i) {
    uint64_t seed = base_seed + i;
    GenQuery q = GenerateQuery(seed);
    SCOPED_TRACE("replay: JB_DIFF_SEED=" + std::to_string(seed) +
                 " JB_DIFF_COUNT=1 | seed " + std::to_string(seed) + " | " +
                 q.sql);
    EXPECT_EQ(RowStrings(*row_off->Query(q.sql)),
              RowStrings(*off1_->Query(q.sql)))
        << "row engine vs columnar (planner off) differ";
    EXPECT_EQ(RowStrings(*row_on->Query(q.sql)),
              RowStrings(*on1_->Query(q.sql)))
        << "row engine vs columnar (planner on) differ";
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[parallel_differential] FAILING ROW-MODE SEED: %llu\n",
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
  // Row engines must stay strictly serial (tuple-at-a-time cost structure).
  EXPECT_EQ(row_off->PlanStatsTotals().morsels_dispatched, 0u);
  EXPECT_EQ(row_on->PlanStatsTotals().morsels_dispatched, 0u);
}

TEST_F(ParallelDifferentialTest,
       LeftJoinNullSideWherePushdownStaysCorrectUnderParallelProbe) {
  // PR 2 regression, re-pinned under the morsel probe: the WHERE refers to
  // the nullable side, so pushing it below the LEFT JOIN would drop the
  // null-extended rows it is meant to select. fact.k1 ranges over [0, 30)
  // but d1 only covers [0, 17), so the null side is genuinely populated.
  const char* q =
      "SELECT fact.k1 AS k, COUNT(*) AS c FROM fact LEFT JOIN d1 "
      "ON fact.k1 = d1.k1 WHERE d1.f1 IS NULL GROUP BY fact.k1 ORDER BY k";
  std::vector<std::vector<std::string>> results;
  for (Database* db : All()) results.push_back(RowStrings(*db->Query(q)));
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "config " << i;
  }
  // Only k1 >= 17 rows survive; every surviving key must be >= 17.
  auto t = onN_->Query(q);
  ASSERT_GT(t->rows, 0u);
  for (size_t r = 0; r < t->rows; ++r) {
    EXPECT_GE(t->GetValue(r, 0).i, 17) << "matched row leaked through";
  }
  // Cross-check the total against the unfiltered null count.
  double nulls = onN_->QueryScalarDouble(
      "SELECT COUNT(*) AS c FROM fact LEFT JOIN d1 ON fact.k1 = d1.k1 "
      "WHERE d1.f1 IS NULL");
  double total = 0;
  for (size_t r = 0; r < t->rows; ++r) total += t->GetValue(r, 1).AsDouble();
  EXPECT_EQ(nulls, total);
}

TEST_F(ParallelDifferentialTest, SemiAntiJoinsMatchAcrossConfigs) {
  // Fixed shapes that exercise the partitioned build + parallel probe with
  // filtered gathers on the probe side only.
  const char* queries[] = {
      "SELECT COUNT(*) AS c FROM fact SEMI JOIN d1 ON fact.k1 = d1.k1",
      "SELECT COUNT(*) AS c FROM fact ANTI JOIN d1 ON fact.k1 = d1.k1",
      "SELECT fact.k2 AS k, SUM(fact.y) AS s FROM fact "
      "SEMI JOIN d1 ON fact.k1 = d1.k1 WHERE fact.x0 > 3 "
      "GROUP BY fact.k2 ORDER BY k",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    std::vector<std::vector<std::string>> results;
    for (Database* db : All()) results.push_back(RowStrings(*db->Query(q)));
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0], results[i]) << "config " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Array path vs hash path: integer keys whose box is small index arrays,
// others are hashed. Twin tables hold the same rows; the dense twin's keys
// are small integers, the spread twin's are k * kSpread + kOffset, whose box
// is far beyond any array. Each row also carries its dense key as a payload
// (k1d, k2d), which the queries output instead of the keys. So the twins
// must answer every query row for row: joins (duplicate build keys, probe
// keys past the build range, NULL keys, composite keys, string keys across
// dictionaries), IN subqueries (single-column and row-value), GROUP BY,
// DISTINCT, window partitions and GROUPING SETS, at 1 and 4 threads,
// planner on and off.
// ---------------------------------------------------------------------------

constexpr int64_t kSpread = 1000003;  // far above the row count
constexpr int64_t kOffset = 7;

/// `{p}fact`, `{p}d1` and `{p}dc` for prefix `p`, keys spread when `spread`.
void BuildTwinTables(Database* db, const std::string& p, bool spread,
                     size_t rows) {
  auto key = [&](int64_t k) {
    return spread && k != kNullInt64 ? k * kSpread + kOffset : k;
  };
  Rng rng(131);
  std::vector<int64_t> k1(rows), k2(rows), k1d(rows), k2d(rows);
  std::vector<std::string> cat(rows);
  std::vector<double> x0(rows);
  for (size_t i = 0; i < rows; ++i) {
    k1d[i] = i % 97 == 5 ? kNullInt64 : rng.NextInt(0, 29);
    k2d[i] = rng.NextInt(0, 10);
    k1[i] = key(k1d[i]);
    k2[i] = key(k2d[i]);
    cat[i] = "c" + std::to_string(rng.NextInt(0, 11));
    x0[i] = rng.NextDouble() * 10;
  }
  db->LoadTable(TableBuilder(p + "fact")
                    .AddInts("k1", k1)
                    .AddInts("k2", k2)
                    .AddStrings("cat", cat)
                    .AddDoubles("x0", x0)
                    .AddInts("k1d", k1d)
                    .AddInts("k2d", k2d)
                    .Build());
  // d1 covers k1 in [0, 17) with duplicate keys 2 and 5.
  std::vector<int64_t> d1k, d1kd;
  std::vector<double> f1;
  for (int64_t k : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                    2, 5}) {
    d1kd.push_back(k);
    d1k.push_back(key(k));
    f1.push_back(static_cast<double>(rng.NextInt(1, 1000)));
  }
  db->LoadTable(TableBuilder(p + "d1")
                    .AddInts("k1", d1k)
                    .AddDoubles("f1", f1)
                    .AddInts("k1d", d1kd)
                    .Build());
  // dc joins on (cat, k1); its strings have their own dictionary, in an
  // order unlike the fact's, and "zz" appears in no fact row.
  std::vector<std::string> dcat;
  std::vector<int64_t> dck, dg;
  for (int c : {7, 3, 11, 0, 5}) {
    for (int64_t k = 0; k < 25; k += 3) {
      dcat.push_back("c" + std::to_string(c));
      dck.push_back(key(k));
      dg.push_back(c * 100 + k);
    }
  }
  dcat.push_back("zz");
  dck.push_back(key(1));
  dg.push_back(-1);
  db->LoadTable(TableBuilder(p + "dc")
                    .AddStrings("cat", dcat)
                    .AddInts("k1", dck)
                    .AddInts("g", dg)
                    .Build());
}

/// Queries over `{f}`, `{d1}` and `{dc}`, outputting dense payloads only.
const char* const kTwinQueries[] = {
    "SELECT f.k1d AS k, d.f1 AS v FROM {f} f JOIN {d1} d ON f.k1 = d.k1",
    "SELECT f.k1d AS k, d.k1d AS dk, d.f1 AS v FROM {f} f LEFT JOIN {d1} d "
    "ON f.k1 = d.k1",
    "SELECT f.k1d AS k, f.x0 AS x FROM {f} f SEMI JOIN {d1} d "
    "ON f.k1 = d.k1",
    "SELECT f.k1d AS k, f.x0 AS x FROM {f} f ANTI JOIN {d1} d "
    "ON f.k1 = d.k1",
    "SELECT f.k1d AS k, f.k2d AS k2, d.g AS g FROM {f} f JOIN {dc} d "
    "ON f.cat = d.cat AND f.k1 = d.k1",
    "SELECT f.k1d AS k, d.g AS g FROM {f} f LEFT JOIN {dc} d "
    "ON f.k1 = d.k1 AND f.cat = d.cat",
    "SELECT f.k1d AS k, f.cat AS c FROM {f} f SEMI JOIN {dc} d "
    "ON f.cat = d.cat AND f.k1 = d.k1",
    "SELECT f.k1d AS k, f.cat AS c FROM {f} f ANTI JOIN {dc} d "
    "ON f.cat = d.cat AND f.k1 = d.k1",
    "SELECT f.k1d AS k, f.x0 AS x FROM {f} f WHERE f.k1 IN "
    "(SELECT d.k1 FROM {d1} d WHERE d.f1 > 300)",
    "SELECT f.k1d AS k, f.x0 AS x FROM {f} f WHERE f.k1 NOT IN "
    "(SELECT d.k1 FROM {d1} d WHERE d.f1 > 300)",
    "SELECT f.k1d AS k, f.cat AS c FROM {f} f WHERE (f.cat, f.k1) IN "
    "(SELECT d.cat, d.k1 FROM {dc} d WHERE d.g > 300)",
    "SELECT CASE WHEN f.k1 IN (SELECT d.k1 FROM {d1} d WHERE d.f1 > 500) "
    "THEN f.x0 WHEN (f.cat, f.k1) IN (SELECT d.cat, d.k1 FROM {dc} d) "
    "THEN f.k2d ELSE 0 - f.x0 END AS v FROM {f} f",
    "SELECT MIN(f.k1d) AS k, COUNT(*) AS c, SUM(f.x0) AS s FROM {f} f "
    "GROUP BY f.k1",
    "SELECT MIN(f.k1d) AS k, MIN(f.k2d) AS k2, COUNT(f.x0) AS c, "
    "SUM(f.x0) AS s, AVG(f.x0) AS m, MAX(f.x0) AS hi FROM {f} f "
    "GROUP BY f.k1, f.k2",
    "SELECT MIN(f.k1d) AS k, MIN(f.cat) AS c, SUM(f.x0) AS s FROM {f} f "
    "GROUP BY f.cat, f.k1",
    "SELECT MIN(d.k1d) AS k, SUM(f.x0 * d.f1) AS s, COUNT(*) AS c "
    "FROM {f} f JOIN {d1} d ON f.k1 = d.k1 GROUP BY d.k1",
    "SELECT s.k1d AS k, s.k2d AS k2 FROM "
    "(SELECT DISTINCT f.k1, f.k2, f.k1d, f.k2d FROM {f} f) s",
    "SELECT SUM(f.x0) OVER (PARTITION BY f.k1 ORDER BY f.x0) AS w "
    "FROM {f} f",
    "SELECT GROUPING_ID() AS set_id, MIN(f.k1d) AS a, MIN(f.k2d) AS b, "
    "COUNT(*) AS c, SUM(f.x0) AS s FROM {f} f "
    "GROUP BY GROUPING SETS ((f.k1), (f.k2), (f.k1, f.k2))",
};

std::string TwinSql(const char* tmpl, const std::string& p) {
  std::string sql = tmpl;
  for (const char* t : {"f", "d1", "dc"}) {
    const std::string from = std::string("{") + t + "}";
    const std::string to = p + (std::string(t) == "f" ? "fact" : t);
    for (size_t at = sql.find(from); at != std::string::npos;
         at = sql.find(from, at)) {
      sql.replace(at, from.size(), to);
    }
  }
  return sql;
}

TEST(ArrayPathDifferentialTest, ArrayAndHashPathsAnswerAlike) {
  constexpr size_t kRows = 6000;
  // The spread keys' box is beyond the array path's limit; the dense one's
  // is within it.
  {
    std::vector<int64_t> dense = {0, 29, 3}, spread;
    for (int64_t k : dense) spread.push_back(k * kSpread + kOffset);
    exec::VectorData dv = exec::VectorData::FromInts(dense);
    exec::VectorData sv = exec::VectorData::FromInts(spread);
    exec::morsel::KeyBox box;
    const uint64_t limit = exec::morsel::kBoxSlotsPerRow * kRows;
    EXPECT_TRUE(exec::morsel::FitKeyBox({&dv}, 3, false, limit, &box));
    EXPECT_FALSE(exec::morsel::FitKeyBox({&sv}, 3, false, limit, &box));
  }
  for (bool planner : {true, false}) {
    plan::PlanStats dense_stats[2], spread_stats[2];
    for (int t = 0; t < 2; ++t) {
      const int threads = t == 0 ? 1 : 4;
      SCOPED_TRACE(std::string(planner ? "planner on" : "planner off") +
                   ", threads " + std::to_string(threads));
      Database db(DiffProfile(planner, threads));
      BuildTwinTables(&db, "t_", /*spread=*/false, kRows);
      BuildTwinTables(&db, "w_", /*spread=*/true, kRows);
      for (const char* tmpl : kTwinQueries) {
        SCOPED_TRACE(tmpl);
        db.ClearPlanStats();
        auto dense = RowStrings(*db.Query(TwinSql(tmpl, "t_")));
        dense_stats[t] += db.PlanStatsTotals();
        db.ClearPlanStats();
        auto spread = RowStrings(*db.Query(TwinSql(tmpl, "w_")));
        spread_stats[t] += db.PlanStatsTotals();
        EXPECT_FALSE(dense.empty());
        EXPECT_EQ(dense, spread);
      }
    }
    // Each path's counters are canonical: identical at 1 and 4 threads.
    for (const plan::PlanStats* s : {dense_stats, spread_stats}) {
      EXPECT_GT(s[0].hash_probes, 0u);
      EXPECT_EQ(s[0].hash_probes, s[1].hash_probes);
      EXPECT_EQ(s[0].hash_chain_follows, s[1].hash_chain_follows);
      EXPECT_EQ(s[0].hash_bytes, s[1].hash_bytes);
    }
    // The dense twin's arrays are smaller than the spread twin's hash
    // tables: the two streams took different paths.
    EXPECT_LT(dense_stats[0].hash_bytes, spread_stats[0].hash_bytes);
  }
}

// ---------------------------------------------------------------------------
// Encoded-vs-decoded axis: compressed execution forced ON/OFF over
// identically encoded storage, crossed with {planner on/off} x {1, N
// threads}. Within one planner mode all four (cexec, threads) combinations
// must produce bit-identical row sequences; across planner modes the usual
// ordered-exact / multiset contract applies. Reuses JB_DIFF_SEED /
// JB_DIFF_COUNT, so the nightly deep fuzz widens this axis automatically.
// ---------------------------------------------------------------------------

EngineProfile CompressedDiffProfile(bool cexec, bool use_planner,
                                    int threads) {
  EngineProfile p = DiffProfile(use_planner, threads);
  p.compressed_exec = cexec;
  return p;
}

class CompressedDifferentialTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 6000;
  struct Engine {
    bool cexec;
    bool planner;
    int threads;
    std::unique_ptr<Database> db;
  };

  void SetUp() override {
    for (bool cexec : {true, false}) {
      for (bool planner : {true, false}) {
        for (int threads : {1, 4}) {
          engines_.push_back({cexec, planner, threads,
                              std::make_unique<Database>(CompressedDiffProfile(
                                  cexec, planner, threads))});
          // LoadTable applies the storage profile: payloads are genuinely
          // bit-packed / dictionary-encoded in every engine; only the
          // execution strategy differs.
          BuildDiffTables(engines_.back().db.get(), /*seed=*/97, kRows,
                          /*load=*/true);
        }
      }
    }
  }

  void CheckQuery(const GenQuery& q) {
    std::vector<std::vector<std::string>> rows(engines_.size());
    for (size_t i = 0; i < engines_.size(); ++i) {
      rows[i] = RowStrings(*engines_[i].db->Query(q.sql));
    }
    // Same planner mode => exact row-sequence equality, regardless of
    // compressed execution or thread count.
    int planner_ref = -1, raw_ref = -1;
    for (size_t i = 0; i < engines_.size(); ++i) {
      int& ref = engines_[i].planner ? planner_ref : raw_ref;
      if (ref < 0) {
        ref = static_cast<int>(i);
        continue;
      }
      EXPECT_EQ(rows[static_cast<size_t>(ref)], rows[i])
          << "cexec=" << engines_[i].cexec
          << " planner=" << engines_[i].planner
          << " threads=" << engines_[i].threads
          << " diverged from cexec=" << engines_[static_cast<size_t>(ref)].cexec
          << " threads=" << engines_[static_cast<size_t>(ref)].threads;
    }
    ASSERT_GE(planner_ref, 0);
    ASSERT_GE(raw_ref, 0);
    auto a = rows[static_cast<size_t>(planner_ref)];
    auto b = rows[static_cast<size_t>(raw_ref)];
    if (!q.ordered) {
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
    }
    EXPECT_EQ(a, b) << "planner on/off differ";
  }

  std::vector<Engine> engines_;
};

TEST_F(CompressedDifferentialTest, EncodedAndDecodedExecutionAreBitIdentical) {
  uint64_t base_seed = 0x436F6D7072ULL;  // distinct from the other axes
  if (const char* env = std::getenv("JB_DIFF_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  size_t count = 48;
  if (const char* env = std::getenv("JB_DIFF_COUNT")) {
    count = std::strtoull(env, nullptr, 0);
  }
  for (size_t i = 0; i < count; ++i) {
    uint64_t seed = base_seed + i;
    GenQuery q = GenerateQuery(seed);
    SCOPED_TRACE("replay: JB_DIFF_SEED=" + std::to_string(seed) +
                 " JB_DIFF_COUNT=1 | seed " + std::to_string(seed) + " | " +
                 q.sql);
    CheckQuery(q);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[parallel_differential] FAILING ENCODED-AXIS SEED: %llu\n"
                   "[parallel_differential] replay with: JB_DIFF_SEED=%llu "
                   "JB_DIFF_COUNT=1\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
  // The decompress-avoidance counters are canonical: after an identical
  // query stream they must agree bit-for-bit across thread counts, be
  // positive where compressed execution ran, and stay zero where it was
  // forced off.
  std::vector<plan::PlanStats> snap;
  for (const Engine& e : engines_) snap.push_back(e.db->PlanStatsTotals());
  int on1 = -1, onN = -1;
  for (size_t i = 0; i < engines_.size(); ++i) {
    const Engine& e = engines_[i];
    if (!e.cexec) {
      EXPECT_EQ(snap[i].cells_decompress_avoided, 0u)
          << "cexec OFF engine skipped decode work";
      EXPECT_EQ(snap[i].blocks_skipped, 0u);
    } else if (e.planner) {
      (e.threads > 1 ? onN : on1) = static_cast<int>(i);
    }
  }
  ASSERT_GE(on1, 0);
  ASSERT_GE(onN, 0);
  const plan::PlanStats& s1 = snap[static_cast<size_t>(on1)];
  const plan::PlanStats& sN = snap[static_cast<size_t>(onN)];
  EXPECT_GT(s1.cells_decompress_avoided, 0u)
      << "compressed execution never avoided a decode: lowering broken?";
  EXPECT_GT(s1.blocks_skipped, 0u);
  EXPECT_EQ(s1.cells_decompress_avoided, sN.cells_decompress_avoided)
      << "avoided-cells counter depends on thread count";
  EXPECT_EQ(s1.blocks_skipped, sN.blocks_skipped);
  EXPECT_EQ(s1.cells_decompressed, sN.cells_decompressed);
}

// ---------------------------------------------------------------------------
// Chunk-size axis: the horizontal storage layout is invisible to results.
// {whole-table chunk, 1024-row chunks, 999-row chunks (ragged last)} x
// {planner on/off} x {1, N threads} over genuinely loaded (encoded) storage.
// Same planner mode => bit-identical row sequences regardless of chunk size
// or thread count; across planner modes the ordered-exact / multiset
// contract applies. Reuses JB_DIFF_SEED / JB_DIFF_COUNT for nightly
// widening.
// ---------------------------------------------------------------------------

EngineProfile ChunkDiffProfile(size_t chunk_rows, bool use_planner,
                               int threads) {
  EngineProfile p = DiffProfile(use_planner, threads);
  p.chunk_rows = chunk_rows;
  return p;
}

class ChunkedDifferentialTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 6000;
  struct Engine {
    size_t chunk_rows;
    bool planner;
    int threads;
    std::unique_ptr<Database> db;
  };

  void SetUp() override {
    // 999 does not divide 6000, so the last chunk is ragged (6 rows) and
    // chunk boundaries disagree with the 4096-value compression blocks.
    for (size_t chunk_rows : {size_t{0}, size_t{1024}, size_t{999}}) {
      for (bool planner : {true, false}) {
        for (int threads : {1, 4}) {
          engines_.push_back(
              {chunk_rows, planner, threads,
               std::make_unique<Database>(
                   ChunkDiffProfile(chunk_rows, planner, threads))});
          // LoadTable applies the storage profile: the chunked engines carve
          // every table into per-chunk encoded segments at load time.
          BuildDiffTables(engines_.back().db.get(), /*seed=*/97, kRows,
                          /*load=*/true);
        }
      }
    }
  }

  void CheckQuery(const GenQuery& q) {
    std::vector<std::vector<std::string>> rows(engines_.size());
    for (size_t i = 0; i < engines_.size(); ++i) {
      rows[i] = RowStrings(*engines_[i].db->Query(q.sql));
    }
    // Same planner mode => exact row-sequence equality, regardless of chunk
    // layout or thread count.
    int planner_ref = -1, raw_ref = -1;
    for (size_t i = 0; i < engines_.size(); ++i) {
      int& ref = engines_[i].planner ? planner_ref : raw_ref;
      if (ref < 0) {
        ref = static_cast<int>(i);
        continue;
      }
      EXPECT_EQ(rows[static_cast<size_t>(ref)], rows[i])
          << "chunk_rows=" << engines_[i].chunk_rows
          << " planner=" << engines_[i].planner
          << " threads=" << engines_[i].threads << " diverged from chunk_rows="
          << engines_[static_cast<size_t>(ref)].chunk_rows
          << " threads=" << engines_[static_cast<size_t>(ref)].threads;
    }
    ASSERT_GE(planner_ref, 0);
    ASSERT_GE(raw_ref, 0);
    auto a = rows[static_cast<size_t>(planner_ref)];
    auto b = rows[static_cast<size_t>(raw_ref)];
    if (!q.ordered) {
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
    }
    EXPECT_EQ(a, b) << "planner on/off differ";
  }

  std::vector<Engine> engines_;
};

TEST_F(ChunkedDifferentialTest, ChunkLayoutNeverChangesResults) {
  uint64_t base_seed = 0x4368756E6BULL;  // distinct from the other axes
  if (const char* env = std::getenv("JB_DIFF_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  size_t count = 32;
  if (const char* env = std::getenv("JB_DIFF_COUNT")) {
    count = std::strtoull(env, nullptr, 0);
  }
  for (size_t i = 0; i < count; ++i) {
    uint64_t seed = base_seed + i;
    GenQuery q = GenerateQuery(seed);
    SCOPED_TRACE("replay: JB_DIFF_SEED=" + std::to_string(seed) +
                 " JB_DIFF_COUNT=1 | seed " + std::to_string(seed) + " | " +
                 q.sql);
    CheckQuery(q);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[parallel_differential] FAILING CHUNK-AXIS SEED: %llu\n"
                   "[parallel_differential] replay with: JB_DIFF_SEED=%llu "
                   "JB_DIFF_COUNT=1\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
  // Layout counters: chunked engines sealed multiple segments per column at
  // load; the monolithic ones exactly one. Nothing in a read-only query
  // stream ever rewrites a sealed segment, on any engine.
  for (const Engine& e : engines_) {
    plan::PlanStats s = e.db->PlanStatsTotals();
    EXPECT_EQ(s.chunks_rewritten, 0u)
        << "chunk_rows=" << e.chunk_rows << " rewrote a sealed segment";
    if (e.chunk_rows != 0) {
      EXPECT_GT(s.chunks_created, 0u)
          << "chunk_rows=" << e.chunk_rows << " never sealed a chunk";
    }
  }
}

// ---------------------------------------------------------------------------
// Full training run: thread count and planner mode must not change a bit.
// ---------------------------------------------------------------------------

TEST(ParallelTrainEquivalenceTest, GbdtIsBitIdenticalAcrossThreadsAndPlanner) {
  struct Config {
    bool planner;
    int threads;
  };
  const Config configs[] = {{true, 1}, {true, 4}, {false, 1}, {false, 4}};
  std::vector<std::string> model_strings;
  std::vector<std::vector<double>> predictions;
  for (const Config& c : configs) {
    Database db(DiffProfile(c.planner, c.threads));
    test_util::BuildSmallSnowflake(&db, /*seed=*/123, /*rows=*/4000);
    Dataset ds = test_util::MakeSnowflakeDataset(&db);
    core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = 3;
    params.num_leaves = 4;
    TrainResult res = Train(params, ds);
    model_strings.push_back(res.model.ToString());
    core::JoinedEval eval = core::MaterializeJoin(ds);
    std::vector<double> preds(eval.rows());
    for (size_t r = 0; r < eval.rows(); ++r) {
      preds[r] = eval.Predict(res.model, r);
    }
    predictions.push_back(std::move(preds));
    if (c.threads > 1) {
      EXPECT_GT(res.plan_stats.morsels_dispatched, 0u)
          << "parallel training run never dispatched a morsel";
    }
  }
  for (size_t i = 1; i < model_strings.size(); ++i) {
    EXPECT_EQ(model_strings[0], model_strings[i])
        << "model diverged: config " << i;
    ASSERT_EQ(predictions[0].size(), predictions[i].size());
    for (size_t r = 0; r < predictions[0].size(); ++r) {
      ASSERT_EQ(predictions[0][r], predictions[i][r])
          << "prediction diverged at row " << r << ", config " << i;
    }
  }
}

TEST(ChunkedTrainEquivalenceTest, FavoritaGbdtIsBitIdenticalAcrossChunkSizes) {
  // Full factorized gbdt train over the Favorita snowflake: the storage
  // chunk layout must not change a bit of the model or its predictions,
  // and the chunked engines must actually run on multi-chunk storage.
  struct Config {
    size_t chunk_rows;
    int threads;
  };
  const Config configs[] = {{0, 1}, {1024, 1}, {1024, 4}, {999, 4}};
  std::vector<std::string> model_strings;
  std::vector<std::vector<double>> predictions;
  for (const Config& c : configs) {
    EngineProfile p = EngineProfile::DSwap();
    p.chunk_rows = c.chunk_rows;
    p.exec_threads = c.threads;
    Database db(p);
    Dataset ds = data::MakeFavorita(&db, test_util::TinyFavorita());
    if (c.chunk_rows != 0) {
      EXPECT_GT(db.PlanStatsTotals().chunks_created, 0u)
          << "chunk_rows=" << c.chunk_rows << " loaded monolithically";
    }
    core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = 5;
    params.num_leaves = 8;
    params.learning_rate = 0.2;
    TrainResult res = Train(params, ds);
    model_strings.push_back(res.model.ToString());
    core::JoinedEval eval = core::MaterializeJoin(ds);
    std::vector<double> preds(eval.rows());
    for (size_t r = 0; r < eval.rows(); ++r) {
      preds[r] = eval.Predict(res.model, r);
    }
    predictions.push_back(std::move(preds));
    EXPECT_EQ(db.PlanStatsTotals().chunks_rewritten, 0u)
        << "training rewrote a sealed segment (chunk_rows=" << c.chunk_rows
        << ")";
  }
  for (size_t i = 1; i < model_strings.size(); ++i) {
    EXPECT_EQ(model_strings[0], model_strings[i])
        << "model diverged: chunk_rows=" << configs[i].chunk_rows
        << " threads=" << configs[i].threads;
    ASSERT_EQ(predictions[0].size(), predictions[i].size());
    for (size_t r = 0; r < predictions[0].size(); ++r) {
      ASSERT_EQ(predictions[0][r], predictions[i][r])
          << "prediction diverged at row " << r
          << " (chunk_rows=" << configs[i].chunk_rows << ")";
    }
  }
}

}  // namespace
}  // namespace joinboost
