// Chunked column storage: builder layouts, layout-oblivious reads,
// rewrite-free appends, and the unified Query(ReadContext) entry point.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "sql/parser.h"
#include "storage/column.h"
#include "storage/table.h"
#include "test_util.h"
#include "util/check.h"

namespace joinboost {
namespace {

using exec::Database;
using exec::ExecTable;

std::vector<int64_t> Iota(size_t n, int64_t start = 0) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = start + static_cast<int64_t>(i);
  return v;
}

// ---------------------------------------------------------------------------
// ColumnBuilder layouts.
// ---------------------------------------------------------------------------

TEST(ColumnBuilderTest, ChunkRowsProducesRaggedLastChunk) {
  auto col = ColumnBuilder(TypeId::kInt64)
                 .ChunkRows(1000)
                 .AppendInts(Iota(2500))
                 .Build();
  EXPECT_EQ(col->size(), 2500u);
  ASSERT_EQ(col->num_chunks(), 3u);
  EXPECT_EQ(col->chunk_offsets(), (std::vector<size_t>{0, 1000, 2000, 2500}));
  EXPECT_EQ(col->chunk(2)->rows, 500u);
  EXPECT_EQ(col->DecodeInts(), Iota(2500));
}

TEST(ColumnBuilderTest, DefaultLayoutIsMonolithic) {
  auto col = ColumnBuilder(TypeId::kInt64).AppendInts(Iota(5000)).Build();
  EXPECT_EQ(col->num_chunks(), 1u);
  // Single plain chunk: the zero-copy PlainInts path must work.
  EXPECT_EQ(col->PlainInts()->size(), 5000u);
}

TEST(ColumnBuilderTest, ExplicitOffsetsReproduceALayout) {
  std::vector<size_t> layout = {0, 7, 7, 100, 256};
  auto col = ColumnBuilder(TypeId::kInt64)
                 .ChunkOffsets(layout)
                 .AppendInts(Iota(256))
                 .Build();
  EXPECT_EQ(col->chunk_offsets(), layout);
  EXPECT_EQ(col->DecodeInts(), Iota(256));
  // A layout that does not cover the rows throws.
  EXPECT_THROW(ColumnBuilder(TypeId::kInt64)
                   .ChunkOffsets({0, 10})
                   .AppendInts(Iota(256))
                   .Build(),
               JbError);
}

TEST(ColumnBuilderTest, ZeroRowColumnHasOneEmptyChunk) {
  auto col = ColumnBuilder(TypeId::kFloat64).Build();
  EXPECT_EQ(col->size(), 0u);
  ASSERT_EQ(col->num_chunks(), 1u);
  EXPECT_EQ(col->chunk_offsets(), (std::vector<size_t>{0, 0}));
}

TEST(ColumnBuilderTest, DictionaryCodesAreChunkingIndependent) {
  std::vector<std::string> values;
  for (int i = 0; i < 500; ++i) values.push_back("s" + std::to_string(i % 37));
  auto mono = ColumnBuilder(TypeId::kString).AppendStrings(values).Build();
  auto chunked =
      ColumnBuilder(TypeId::kString).ChunkRows(64).AppendStrings(values).Build();
  EXPECT_EQ(chunked->num_chunks(), 8u);
  EXPECT_EQ(mono->DecodeInts(), chunked->DecodeInts());
  EXPECT_EQ(mono->dict()->size(), chunked->dict()->size());
}

// ---------------------------------------------------------------------------
// Layout-oblivious reads.
// ---------------------------------------------------------------------------

TEST(ChunkedColumnTest, MaterializeRangesMatchDecodeForAnyLayout) {
  std::vector<int64_t> vals = Iota(10000, -300);
  for (size_t chunk_rows : {size_t{0}, size_t{4096}, size_t{999}}) {
    for (bool encode : {false, true}) {
      auto col = ColumnBuilder(TypeId::kInt64)
                     .ChunkRows(chunk_rows)
                     .AppendInts(vals)
                     .Build();
      if (encode) col->Encode();
      EXPECT_EQ(col->DecodeInts(), vals);
      // Ranges that straddle chunk and block boundaries.
      for (auto [b, e] : std::vector<std::pair<size_t, size_t>>{
               {0, 10000}, {0, 1}, {998, 1001}, {4095, 4097}, {9000, 10000}}) {
        std::vector<int64_t> out(e - b);
        col->MaterializeInts(b, e, out.data());
        for (size_t i = b; i < e; ++i) {
          ASSERT_EQ(out[i - b], vals[i])
              << "chunk_rows=" << chunk_rows << " encode=" << encode
              << " range [" << b << "," << e << ") row " << i;
        }
      }
      for (size_t r : {size_t{0}, size_t{999}, size_t{1000}, size_t{9999}}) {
        EXPECT_EQ(col->GetValue(r).i, vals[r]);
      }
    }
  }
}

TEST(ChunkedColumnTest, RechunkPreservesValuesVersionAndEncoding) {
  auto col = ColumnBuilder(TypeId::kInt64).AppendInts(Iota(5000)).Build();
  col->Encode();
  uint64_t version = col->version();
  col->Rechunk(1024);
  EXPECT_EQ(col->num_chunks(), 5u);
  EXPECT_TRUE(col->encoded());
  EXPECT_EQ(col->version(), version);
  EXPECT_EQ(col->DecodeInts(), Iota(5000));
  col->Rechunk(0);
  EXPECT_EQ(col->num_chunks(), 1u);
  EXPECT_TRUE(col->encoded());
  EXPECT_EQ(col->DecodeInts(), Iota(5000));
}

TEST(ChunkedColumnTest, EncodedViewCoversEveryChunkOrIsNull) {
  auto col =
      ColumnBuilder(TypeId::kInt64).ChunkRows(1024).AppendInts(Iota(3000)).Build();
  EXPECT_EQ(col->EncodedIntsView(), nullptr);  // plain chunks
  col->Encode();
  auto view = col->EncodedIntsView();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->rows, 3000u);
  ASSERT_EQ(view->slices.size(), 3u);
  EXPECT_EQ(view->slices[1].row_begin, 1024u);
}

TEST(ChunkedScanTest, ZoneMapsPruneWholeChunks) {
  EngineProfile p = EngineProfile::DSwap();
  p.chunk_rows = 1024;
  Database db(p);
  db.LoadTable(TableBuilder("t").AddInts("x", Iota(10000)).Build());
  db.ClearPlanStats();
  auto r = db.Query("SELECT t.x FROM t WHERE t.x >= 9216");
  EXPECT_EQ(r->rows, 784u);
  plan::PlanStats s = db.PlanStatsTotals();
  // Chunks 0..8 have zone-map max < 9216: every block in them is eliminated
  // without decoding, so the whole chunk counts as pruned.
  EXPECT_EQ(s.chunks_pruned, 9u);
  EXPECT_GT(s.blocks_skipped, 0u);
}

TEST(ChunkedTableTest, TableRechunkAppliesToEveryColumn) {
  TablePtr t = TableBuilder("t")
                   .AddInts("a", Iota(2100))
                   .AddDoubles("b", std::vector<double>(2100, 1.5))
                   .Build();
  EXPECT_EQ(t->num_chunks(), 1u);
  t->Rechunk(1000);
  EXPECT_EQ(t->num_chunks(), 3u);
  EXPECT_EQ(t->chunk_offsets(), (std::vector<size_t>{0, 1000, 2000, 2100}));
  for (size_t c = 0; c < t->num_columns(); ++c) {
    EXPECT_EQ(t->column(c)->num_chunks(), 3u);
  }
}

// ---------------------------------------------------------------------------
// Table::AddColumn / SetColumn length validation (regression).
// ---------------------------------------------------------------------------

TEST(TableValidationTest, AddColumnRejectsMismatchedLength) {
  TablePtr t = TableBuilder("t").AddInts("a", Iota(10)).Build();
  auto short_col = ColumnBuilder(TypeId::kInt64).AppendInts(Iota(7)).Build();
  EXPECT_THROW(t->AddColumn({"b", TypeId::kInt64}, short_col), JbError);
  EXPECT_THROW(t->AddColumn({"b", TypeId::kInt64}, nullptr), JbError);
  // Matching length is accepted.
  auto ok_col = ColumnBuilder(TypeId::kInt64).AppendInts(Iota(10)).Build();
  t->AddColumn({"b", TypeId::kInt64}, ok_col);
  EXPECT_EQ(t->num_columns(), 2u);
}

TEST(TableValidationTest, SetColumnRejectsMismatchedLengthAndType) {
  TablePtr t = TableBuilder("t").AddInts("a", Iota(10)).Build();
  auto short_col = ColumnBuilder(TypeId::kInt64).AppendInts(Iota(3)).Build();
  EXPECT_THROW(t->SetColumn(0, short_col), JbError);
  auto wrong_type =
      ColumnBuilder(TypeId::kFloat64).AppendDoubles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).Build();
  EXPECT_THROW(t->SetColumn(0, wrong_type), JbError);
  EXPECT_THROW(t->SetColumn(0, nullptr), JbError);
  auto ok = ColumnBuilder(TypeId::kInt64).AppendInts(Iota(10, 100)).Build();
  t->SetColumn(0, ok);
  EXPECT_EQ(t->column(size_t{0})->GetValue(0).i, 100);
}

// ---------------------------------------------------------------------------
// Rewrite-free appends.
// ---------------------------------------------------------------------------

ExecTable IntBatch(const std::string& name, std::vector<int64_t> vals) {
  ExecTable batch;
  batch.rows = vals.size();
  batch.cols.push_back(
      {"", name, exec::VectorData::FromInts(std::move(vals))});
  return batch;
}

TEST(AppendRowsTest, AppendSealsNewChunksAndNeverRewritesExistingOnes) {
  EngineProfile p = EngineProfile::DSwap();
  p.chunk_rows = 1024;
  Database db(p);
  db.LoadTable(TableBuilder("t").AddInts("x", Iota(3000)).Build());
  TablePtr before = db.catalog().Get("t");
  std::vector<ChunkPtr> old_chunks = before->column(size_t{0})->chunks();
  ASSERT_EQ(old_chunks.size(), 3u);

  plan::PlanStats start = db.PlanStatsTotals();
  TablePtr after = db.AppendRows("t", IntBatch("x", Iota(2000, 3000)));
  plan::PlanStats delta = db.PlanStatsTotals() - start;

  // The append's counter contract: new segments only, zero rewrites.
  EXPECT_EQ(delta.chunks_rewritten, 0u);
  EXPECT_GT(delta.chunks_created, 0u);

  // Existing segments are reused BY POINTER — the O(new rows) guarantee.
  const auto& new_chunks = after->column(size_t{0})->chunks();
  ASSERT_GE(new_chunks.size(), old_chunks.size());
  for (size_t i = 0; i < old_chunks.size(); ++i) {
    EXPECT_EQ(new_chunks[i].get(), old_chunks[i].get())
        << "existing chunk " << i << " was rebuilt by the append";
  }

  EXPECT_EQ(after->num_rows(), 5000u);
  EXPECT_EQ(db.QueryScalarDouble("SELECT SUM(t.x) AS s FROM t"),
            4999.0 * 5000.0 / 2.0);
  EXPECT_EQ(db.QueryScalarDouble("SELECT COUNT(*) AS c FROM t"), 5000.0);
}

TEST(AppendRowsTest, StringAppendCopiesDictionaryAndKeepsOldCodesValid) {
  EngineProfile p = EngineProfile::DSwap();
  p.chunk_rows = 256;
  Database db(p);
  std::vector<std::string> vals;
  for (int i = 0; i < 600; ++i) vals.push_back("v" + std::to_string(i % 9));
  db.LoadTable(TableBuilder("t").AddStrings("s", vals).Build());
  TablePtr before = db.catalog().Get("t");
  DictionaryPtr old_dict = before->column(size_t{0})->dict();
  std::vector<ChunkPtr> old_chunks = before->column(size_t{0})->chunks();

  // The batch carries its own dictionary with different codes and new values.
  auto batch_dict = std::make_shared<Dictionary>();
  std::vector<int64_t> codes;
  for (const char* s : {"new_a", "v3", "new_b", "v0"}) {
    codes.push_back(batch_dict->GetOrAdd(s));
  }
  ExecTable batch;
  batch.rows = codes.size();
  batch.cols.push_back(
      {"", "s", exec::VectorData::FromCodes(std::move(codes), batch_dict)});

  plan::PlanStats start = db.PlanStatsTotals();
  TablePtr after = db.AppendRows("t", batch);
  plan::PlanStats delta = db.PlanStatsTotals() - start;
  EXPECT_EQ(delta.chunks_rewritten, 0u);

  // Readers of the OLD table keep their dictionary unchanged.
  EXPECT_EQ(before->column(size_t{0})->dict().get(), old_dict.get());
  EXPECT_EQ(old_dict->size(), 9u);
  // The new table's dictionary is an append-only superset, so the reused
  // segments' codes resolve to the same strings.
  const auto& new_col = after->column(size_t{0});
  for (size_t i = 0; i < old_chunks.size(); ++i) {
    EXPECT_EQ(new_col->chunks()[i].get(), old_chunks[i].get());
  }
  EXPECT_EQ(new_col->GetValue(0).s, vals[0]);
  EXPECT_EQ(new_col->GetValue(600).s, "new_a");
  EXPECT_EQ(new_col->GetValue(601).s, "v3");
  // Old + translated codes agree on equality classes.
  EXPECT_EQ(db.QueryScalarDouble(
                "SELECT COUNT(*) AS c FROM t WHERE t.s = 'v3'"),
            67.0 + 1.0);
}

TEST(AppendRowsTest, MonolithicProfileAppendAlsoAvoidsRewrites) {
  // Even with chunk_rows = 0 (the default, monolithic loads) the append
  // seals the batch as a fresh segment instead of rebuilding the column.
  Database db(EngineProfile::DSwap());
  db.LoadTable(TableBuilder("t").AddInts("x", Iota(4000)).Build());
  std::vector<ChunkPtr> old_chunks =
      db.catalog().Get("t")->column(size_t{0})->chunks();
  ASSERT_EQ(old_chunks.size(), 1u);
  plan::PlanStats start = db.PlanStatsTotals();
  TablePtr after = db.AppendRows("t", IntBatch("x", Iota(100, 4000)));
  plan::PlanStats delta = db.PlanStatsTotals() - start;
  EXPECT_EQ(delta.chunks_rewritten, 0u);
  EXPECT_EQ(after->column(size_t{0})->num_chunks(), 2u);
  EXPECT_EQ(after->column(size_t{0})->chunks()[0].get(), old_chunks[0].get());
  EXPECT_EQ(db.QueryScalarDouble("SELECT COUNT(*) AS c FROM t"), 4100.0);
}

// ---------------------------------------------------------------------------
// Unified read entry point.
// ---------------------------------------------------------------------------

TEST(ReadContextTest, DefaultContextMatchesLiveCatalogQuery) {
  Database db(EngineProfile::DSwap());
  db.LoadTable(TableBuilder("t").AddInts("x", Iota(100)).Build());
  sql::Statement stmt = sql::Parse("SELECT SUM(t.x) AS s FROM t");
  ExecTable via_ctx = db.Query(exec::ReadContext{}, *stmt.select);
  ASSERT_EQ(via_ctx.rows, 1u);
  EXPECT_EQ(via_ctx.GetValue(0, 0).AsDouble(),
            db.QueryScalarDouble("SELECT SUM(t.x) AS s FROM t"));
}

TEST(ReadContextTest, PinnedCatalogShieldsReadersFromWriters) {
  Database db(EngineProfile::DSwap());
  db.LoadTable(TableBuilder("t").AddInts("x", Iota(50)).Build());
  Catalog pinned;
  pinned.Register(db.catalog().Get("t"));
  db.AppendRows("t", IntBatch("x", Iota(50, 50)));

  exec::ReadContext rctx;
  rctx.catalog = &pinned;
  rctx.tag = "pinned";
  auto pinned_count = db.Query(rctx, "SELECT COUNT(*) AS c FROM t");
  EXPECT_EQ(pinned_count->GetValue(0, 0).AsDouble(), 50.0);
  EXPECT_EQ(db.QueryScalarDouble("SELECT COUNT(*) AS c FROM t"), 100.0);
  // The pinned read was logged under its tag.
  EXPECT_EQ(db.CountForTag("pinned"), 1u);
}

TEST(ReadContextTest, ProfileOverrideControlsPlannerAndThreads) {
  Database db(EngineProfile::DSwap());
  db.LoadTable(TableBuilder("t").AddInts("x", Iota(2000)).Build());
  EngineProfile raw = db.profile();
  raw.use_planner = false;
  exec::ReadContext rctx;
  rctx.profile = &raw;

  plan::PlanStats before = db.PlanStatsTotals();
  auto r = db.Query(rctx, "SELECT COUNT(*) AS c FROM t WHERE t.x > 10");
  plan::PlanStats delta = db.PlanStatsTotals() - before;
  EXPECT_EQ(r->GetValue(0, 0).AsDouble(), 1989.0);
  EXPECT_EQ(delta.queries_planned, 0u)
      << "profile override with use_planner=false still planned";

  // Default context plans as usual.
  before = db.PlanStatsTotals();
  db.Query("SELECT COUNT(*) AS c FROM t WHERE t.x > 10");
  delta = db.PlanStatsTotals() - before;
  EXPECT_EQ(delta.queries_planned, 1u);
}

}  // namespace
}  // namespace joinboost
