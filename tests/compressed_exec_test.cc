// Lockdown for compressed execution (§5.3.2 "Compression"): predicates,
// hash keys and late materialization run directly on encoded columns, and
// every result must stay bit-identical to the decode-everything path. The
// unit layer here pins the unpack kernel on adversarial bit widths, the
// zone-map skipping outcomes (counted via PlanStats), the cross-dictionary
// join remap, and the per-(predicate, dictionary) IN-list translation cache.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "exec/expr_eval.h"
#include "plan/logical_plan.h"
#include "storage/compression.h"
#include "storage/table.h"
#include "test_util.h"

namespace joinboost {
namespace {

using exec::Database;
using exec::ExecTable;

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

EngineProfile CompressedProfile(bool cexec, int threads = 1) {
  EngineProfile p = EngineProfile::DSwap();
  p.compressed_exec = cexec;
  p.exec_threads = threads;
  p.morsel_rows = 256;
  p.parallel_threshold_rows = 64;
  return p;
}

// ---------------------------------------------------------------------------
// Unpack kernel: EncodeInts -> UnpackBlock must equal DecodeInts for every
// bit width the frame-of-reference scheme can emit.
// ---------------------------------------------------------------------------

void CheckRoundTrip(const std::vector<int64_t>& values) {
  compression::EncodedInts enc = compression::EncodeInts(values);
  ASSERT_EQ(enc.size, values.size());
  // Whole-column decode.
  EXPECT_EQ(compression::DecodeInts(enc), values);
  // Block-at-a-time kernel over every block.
  std::vector<int64_t> out(values.size());
  size_t pos = 0;
  for (const auto& blk : enc.blocks) {
    compression::UnpackBlock(blk, out.data() + pos);
    pos += blk.count;
  }
  ASSERT_EQ(pos, values.size());
  EXPECT_EQ(out, values);
  // Point lookups.
  for (size_t i = 0; i < values.size();
       i += std::max<size_t>(1, values.size() / 97)) {
    EXPECT_EQ(compression::UnpackOne(enc.blocks[i / compression::kBlockSize],
                                     i % compression::kBlockSize),
              values[i])
        << "index " << i;
  }
}

TEST(CompressedKernelTest, ConstantBlocksUseZeroBitWidth) {
  std::vector<int64_t> v(compression::kBlockSize + 37, 42);
  compression::EncodedInts enc = compression::EncodeInts(v);
  ASSERT_EQ(enc.blocks.size(), 2u);
  for (const auto& blk : enc.blocks) {
    EXPECT_EQ(blk.bit_width, 0);  // constant block: no packed words at all
    EXPECT_TRUE(blk.words.empty());
    EXPECT_EQ(blk.reference, 42);
    EXPECT_EQ(blk.max, 42);
  }
  CheckRoundTrip(v);
}

TEST(CompressedKernelTest, RoundTripsAdversarialBitWidths) {
  // Width 1: alternating 0/1 across a partial tail block.
  std::vector<int64_t> bits(2 * compression::kBlockSize + 5);
  for (size_t i = 0; i < bits.size(); ++i) bits[i] = static_cast<int64_t>(i & 1);
  CheckRoundTrip(bits);

  // Width 64: full-range extremes (INT64_MIN doubles as the NULL sentinel).
  std::vector<int64_t> extremes = {INT64_MIN, INT64_MAX, 0, -1, 1,
                                   kNullInt64, INT64_MAX - 1, INT64_MIN + 1};
  CheckRoundTrip(extremes);

  // Mixed widths per block: constant, then dense small range, then extremes —
  // each 4096-row block picks its own reference and width.
  std::vector<int64_t> mixed;
  mixed.insert(mixed.end(), compression::kBlockSize, 7);
  for (size_t i = 0; i < compression::kBlockSize; ++i) {
    mixed.push_back(static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < compression::kBlockSize; ++i) {
    mixed.push_back(i % 2 == 0 ? INT64_MIN : INT64_MAX - static_cast<int64_t>(i));
  }
  mixed.push_back(123);  // partial tail
  CheckRoundTrip(mixed);

  // Every width 1..63 via a two-value block {0, 2^w - 1}.
  for (int w = 1; w < 64; ++w) {
    std::vector<int64_t> v;
    for (size_t i = 0; i < 130; ++i) {
      v.push_back(i % 3 == 0
                      ? 0
                      : static_cast<int64_t>((uint64_t{1} << w) - 1));
    }
    CheckRoundTrip(v);
  }
}

// ---------------------------------------------------------------------------
// Scan-level skipping, counted through PlanStats.
// ---------------------------------------------------------------------------

// 4 blocks (last one partial): vals is sorted so zone maps are tight; noise
// is scattered with a NULL run confined to block 1; cat has 8 dictionary
// values; x is a double payload (residual-only path).
constexpr size_t kRows = 3 * compression::kBlockSize + 100;
constexpr size_t kBlocks = 4;

void BuildEncodedTable(Database* db) {
  std::vector<int64_t> vals(kRows), noise(kRows);
  std::vector<std::string> cat(kRows);
  std::vector<double> x(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    vals[i] = static_cast<int64_t>(i);
    noise[i] = static_cast<int64_t>((i * 2654435761ULL) % 100000);
    if (i >= compression::kBlockSize && i < compression::kBlockSize + 200) {
      noise[i] = kNullInt64;  // NULL run inside block 1 only
    }
    cat[i] = "cat" + std::to_string(i % 8);
    x[i] = static_cast<double>(i) * 0.5;
  }
  db->LoadTable(TableBuilder("t")
                    .AddInts("vals", vals)
                    .AddInts("noise", noise)
                    .AddStrings("cat", cat)
                    .AddDoubles("x", x)
                    .Build());
}

class CompressedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    on_ = std::make_unique<Database>(CompressedProfile(true));
    off_ = std::make_unique<Database>(CompressedProfile(false));
    BuildEncodedTable(on_.get());
    BuildEncodedTable(off_.get());
  }

  /// Exact row-sequence equality between the compressed and decode-first
  /// engines — physical order included, that's the determinism contract.
  void CheckIdentical(const std::string& sql) {
    SCOPED_TRACE(sql);
    EXPECT_EQ(RowStrings(*on_->Query(sql)), RowStrings(*off_->Query(sql)));
  }

  plan::PlanStats RunAndStats(const std::string& sql) {
    on_->ClearPlanStats();
    on_->Query(sql);
    return on_->PlanStatsTotals();
  }

  std::unique_ptr<Database> on_, off_;
};

TEST_F(CompressedScanTest, AbsentEqualityLiteralSelectsNothingWithoutDecode) {
  const std::string sql = "SELECT cat, vals FROM t WHERE cat = 'zzz-absent'";
  EXPECT_EQ(on_->Query(sql)->rows, 0u);
  plan::PlanStats s = RunAndStats(sql);
  // The literal misses the dictionary, so the conjunct is a NULL broadcast:
  // every block of both scanned encoded columns skips without unpacking.
  EXPECT_EQ(s.cells_decompressed, 0u);
  EXPECT_EQ(s.cols_decompressed, 0u);
  EXPECT_EQ(s.blocks_skipped, 2 * kBlocks);
  EXPECT_EQ(s.cells_decompress_avoided, 2 * kRows);
  CheckIdentical(sql);
}

TEST_F(CompressedScanTest, AbsentInListSelectsNothingWithoutDecode) {
  const std::string sql =
      "SELECT cat, vals FROM t WHERE cat IN ('nope1', 'nope2')";
  EXPECT_EQ(on_->Query(sql)->rows, 0u);
  plan::PlanStats s = RunAndStats(sql);
  EXPECT_EQ(s.cells_decompressed, 0u);
  EXPECT_EQ(s.blocks_skipped, 2 * kBlocks);
  EXPECT_EQ(s.cells_decompress_avoided, 2 * kRows);
  CheckIdentical(sql);
}

TEST_F(CompressedScanTest, RangeStraddlingBlockBoundarySkipsTheRest) {
  // [4000, 4200] straddles the block 0 / block 1 boundary at 4096: exactly
  // those two blocks unpack, blocks 2 and 3 skip off the zone map.
  const std::string sql =
      "SELECT vals FROM t WHERE vals BETWEEN 4000 AND 4200";
  CheckIdentical(sql);
  plan::PlanStats s = RunAndStats(sql);
  EXPECT_EQ(s.blocks_skipped, kBlocks - 2);
  EXPECT_EQ(s.cells_decompressed, 2 * compression::kBlockSize);
  EXPECT_EQ(s.cells_decompress_avoided, kRows - 2 * compression::kBlockSize);
  EXPECT_EQ(on_->Query(sql)->rows, 201u);
}

TEST_F(CompressedScanTest, NoneMatchSkipsEveryBlock) {
  const std::string sql = "SELECT vals FROM t WHERE vals < 0";
  EXPECT_EQ(on_->Query(sql)->rows, 0u);
  plan::PlanStats s = RunAndStats(sql);
  EXPECT_EQ(s.cells_decompressed, 0u);
  EXPECT_EQ(s.blocks_skipped, kBlocks);
  EXPECT_EQ(s.cells_decompress_avoided, kRows);
  CheckIdentical(sql);
}

TEST_F(CompressedScanTest, AllMatchStillProducesEveryRow) {
  // Zone maps prove every block matches; Phase A unpacks nothing, and only
  // output materialization touches the payload.
  const std::string sql = "SELECT vals FROM t WHERE vals >= 0";
  EXPECT_EQ(on_->Query(sql)->rows, kRows);
  CheckIdentical(sql);
}

TEST_F(CompressedScanTest, NullSentinelBlocksInteractWithPredicatesExactly) {
  // The NULL run lives in block 1 only; IS NULL skips the other blocks, and
  // comparisons / NOT IN reproduce the decoded path's NULL handling bit for
  // bit. A NULL row passes no NOT IN, also in a block whose value range
  // misses every member.
  CheckIdentical("SELECT noise FROM t WHERE noise IS NULL");
  CheckIdentical("SELECT noise FROM t WHERE noise IS NOT NULL");
  CheckIdentical("SELECT vals, noise FROM t WHERE noise > 50000");
  CheckIdentical("SELECT vals FROM t WHERE noise NOT IN (5, 7)");
  CheckIdentical("SELECT vals FROM t WHERE noise NOT IN (-5, -7)");
  CheckIdentical("SELECT vals FROM t WHERE noise = NULL");
  EXPECT_EQ(on_->Query("SELECT vals FROM t WHERE noise NOT IN (-5, -7)")->rows,
            kRows - 200);
  plan::PlanStats s = RunAndStats("SELECT vals FROM t WHERE noise IS NULL");
  EXPECT_GT(s.blocks_skipped, 0u);
}

TEST_F(CompressedScanTest, ResidualConjunctsLateMaterializeSurvivorsOnly) {
  // vals lowers to the zone maps; the double-column conjunct stays residual
  // and must only see (and decode) rows block 0 lets through.
  const std::string sql =
      "SELECT vals, x FROM t WHERE vals < 100 AND x * 2 >= 50";
  CheckIdentical(sql);
  plan::PlanStats s = RunAndStats(sql);
  EXPECT_GT(s.blocks_skipped, 0u);
  EXPECT_GT(s.cells_decompress_avoided, 0u);
}

TEST_F(CompressedScanTest, MixedPredicatesMatchDecodedEngineExactly) {
  CheckIdentical("SELECT cat, vals FROM t WHERE cat = 'cat3' AND vals > 9000");
  CheckIdentical(
      "SELECT cat, COUNT(*) AS c FROM t WHERE cat IN ('cat1', 'cat5', 'zz') "
      "GROUP BY cat ORDER BY cat");
  CheckIdentical("SELECT vals FROM t WHERE vals <> 4096 AND vals <= 4100");
  CheckIdentical(
      "SELECT SUM(x) AS s FROM t WHERE vals BETWEEN 4090 AND 8200");
  CheckIdentical("SELECT cat FROM t WHERE cat <> 'cat0' AND vals < 20");
}

TEST_F(CompressedScanTest, CountersAreThreadCountIndependent) {
  auto run_all = [](Database* db) {
    db->ClearPlanStats();
    db->Query("SELECT vals FROM t WHERE vals BETWEEN 4000 AND 4200");
    db->Query("SELECT cat, vals FROM t WHERE cat = 'zzz-absent'");
    db->Query("SELECT vals, noise FROM t WHERE noise > 50000");
    return db->PlanStatsTotals();
  };
  Database par(CompressedProfile(true, /*threads=*/4));
  BuildEncodedTable(&par);
  plan::PlanStats s1 = run_all(on_.get());
  plan::PlanStats sN = run_all(&par);
  EXPECT_GT(s1.cells_decompress_avoided, 0u);
  EXPECT_GT(s1.blocks_skipped, 0u);
  EXPECT_EQ(s1.cells_decompress_avoided, sN.cells_decompress_avoided);
  EXPECT_EQ(s1.blocks_skipped, sN.blocks_skipped);
  EXPECT_EQ(s1.cells_decompressed, sN.cells_decompressed);
  EXPECT_EQ(s1.cols_decompressed, sN.cols_decompressed);
}

TEST_F(CompressedScanTest, FormatStatsSurfacesTheNewCounters) {
  plan::PlanStats s =
      RunAndStats("SELECT vals FROM t WHERE vals BETWEEN 4000 AND 4200");
  std::string text = plan::FormatStats(s);
  EXPECT_NE(text.find("decompress_avoided"), std::string::npos) << text;
  EXPECT_NE(text.find("blocks_skipped"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Cross-dictionary join remap.
// ---------------------------------------------------------------------------

TEST(CrossDictJoinTest, RemapMatchesSharedDictionaryJoin) {
  // Left carries keys the right side has never seen ("stray") plus shared
  // keys in a different insertion order, so codes disagree between the two
  // dictionaries; the remapped join must behave exactly like a join where
  // both sides share one dictionary.
  std::vector<std::string> lkeys, rkeys;
  std::vector<int64_t> lv, rv;
  const char* shared[] = {"apple", "pear", "plum", "fig", "quince"};
  for (size_t i = 0; i < 400; ++i) {
    lkeys.push_back(i % 7 == 0 ? "stray" + std::to_string(i % 3)
                               : shared[i % 5]);
    lv.push_back(static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < 5; ++i) {
    rkeys.push_back(shared[4 - i]);  // reversed order => different codes
    rv.push_back(static_cast<int64_t>(100 + i));
  }
  rkeys.push_back("right-only");
  rv.push_back(999);

  auto build = [&](Database* db, bool share_dict) {
    TablePtr right =
        TableBuilder("r").AddStrings("s", rkeys).AddInts("rv", rv).Build();
    DictionaryPtr dict = share_dict ? right->column("s")->dict() : nullptr;
    TablePtr left =
        TableBuilder("l").AddStrings("s", lkeys, dict).AddInts("lv", lv).Build();
    db->LoadTable(right);
    db->LoadTable(left);
  };

  Database cross(CompressedProfile(true));
  Database shared_db(CompressedProfile(true));
  build(&cross, /*share_dict=*/false);
  build(&shared_db, /*share_dict=*/true);

  const char* queries[] = {
      "SELECT l.lv AS a, r.rv AS b FROM l JOIN r ON l.s = r.s ORDER BY a",
      "SELECT l.lv AS a, r.rv AS b FROM l LEFT JOIN r ON l.s = r.s "
      "ORDER BY a",
      "SELECT COUNT(*) AS c FROM l SEMI JOIN r ON l.s = r.s",
      "SELECT COUNT(*) AS c FROM l ANTI JOIN r ON l.s = r.s",
      "SELECT r.rv AS g, COUNT(*) AS c FROM l JOIN r ON l.s = r.s "
      "GROUP BY r.rv ORDER BY g",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    EXPECT_EQ(RowStrings(*cross.Query(q)), RowStrings(*shared_db.Query(q)));
  }
  // Sanity against hand-counted expectations: strays never match.
  EXPECT_EQ(cross.QueryScalarDouble(
                "SELECT COUNT(*) AS c FROM l ANTI JOIN r ON l.s = r.s"),
            shared_db.QueryScalarDouble(
                "SELECT COUNT(*) AS c FROM l ANTI JOIN r ON l.s = r.s"));
}

// ---------------------------------------------------------------------------
// IN-list translation cache: one dictionary probe per (predicate, dictionary).
// ---------------------------------------------------------------------------

TEST(InListCacheTest, TranslatesOncePerPredicateAndDictionary) {
  // Row-mode re-enters expression evaluation once per input row — without
  // the (node, dictionary) cache this counted one translation per row.
  EngineProfile row = CompressedProfile(false);
  row.columnar_exec = false;
  Database db(row);
  std::vector<std::string> s;
  std::vector<int64_t> v;
  for (size_t i = 0; i < 64; ++i) {
    s.push_back("k" + std::to_string(i % 6));
    v.push_back(static_cast<int64_t>(i));
  }
  db.RegisterTable(TableBuilder("t").AddStrings("s", s).AddInts("v", v).Build());

  exec::ResetInListTranslations();
  auto out = db.Query("SELECT v FROM t WHERE s IN ('k1', 'k4', 'absent')");
  EXPECT_GT(out->rows, 0u);
  EXPECT_EQ(exec::InListTranslations(), 1u);

  // Serial vectorized evaluation (single morsel => single EvalContext).
  Database vec(CompressedProfile(true));
  vec.LoadTable(TableBuilder("t").AddStrings("s", s).AddInts("v", v).Build());
  exec::ResetInListTranslations();
  auto out2 = vec.Query("SELECT v FROM t WHERE s IN ('k1', 'k4', 'absent')");
  EXPECT_EQ(RowStrings(*out), RowStrings(*out2));
  EXPECT_EQ(exec::InListTranslations(), 1u);
}

}  // namespace
}  // namespace joinboost
