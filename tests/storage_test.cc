#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "util/check.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/hash.h"

#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/compression.h"
#include "storage/mvcc.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/rng.h"

namespace joinboost {
namespace {

class CompressionRoundtripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressionRoundtripTest, Ints) {
  Rng rng(GetParam());
  std::vector<int64_t> values;
  size_t n = 1 + rng.NextBounded(20000);
  for (size_t i = 0; i < n; ++i) {
    // Mixed ranges, including negatives and the null sentinel-adjacent zone.
    switch (rng.NextBounded(3)) {
      case 0:
        values.push_back(rng.NextInt(-5, 5));
        break;
      case 1:
        values.push_back(rng.NextInt(0, 1000000));
        break;
      default:
        values.push_back(rng.NextInt(-1000000000, 1000000000));
    }
  }
  auto enc = compression::EncodeInts(values);
  EXPECT_EQ(compression::DecodeInts(enc), values);
  // Small-range data must actually compress.
  std::vector<int64_t> small(10000);
  for (auto& v : small) v = rng.NextInt(0, 15);
  auto enc_small = compression::EncodeInts(small);
  EXPECT_LT(enc_small.ByteSize(), small.size() * 8 / 4);
}

TEST_P(CompressionRoundtripTest, Doubles) {
  // Float64 has no codec: Encode leaves the column plain at 8 bytes per
  // value, and every bit (signed zeros, extremes, NaN) survives Encode,
  // Rechunk and Decode.
  Rng rng(GetParam() ^ 0x5555);
  std::vector<double> values;
  size_t n = 1 + rng.NextBounded(20000);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(rng.NextGaussian() * 1000);
  }
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(1e308);
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(NullFloat64());
  auto col = ColumnBuilder(TypeId::kFloat64).AppendDoubles(values).Build();
  col->Encode();
  col->Rechunk(1 + rng.NextBounded(5000));
  col->Encode();
  EXPECT_FALSE(col->encoded());
  EXPECT_EQ(col->ByteSize(), values.size() * 8);
  col->Decode();
  std::vector<double> out = col->DecodeDoubles();
  ASSERT_EQ(out.size(), values.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(std::memcmp(&out[i], &values[i], 8), 0) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionRoundtripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ColumnTest, EncodeDecodePreservesData) {
  auto col = ColumnBuilder(TypeId::kInt64).AppendInts({5, 6, 7, 8}).Build();
  col->Encode();
  EXPECT_TRUE(col->encoded());
  EXPECT_EQ(col->DecodeInts(), (std::vector<int64_t>{5, 6, 7, 8}));
  col->Decode();
  EXPECT_FALSE(col->encoded());
  EXPECT_EQ(*col->PlainInts(), (std::vector<int64_t>{5, 6, 7, 8}));
}

TEST(ColumnTest, SwapPayloadIsPointerExchange) {
  auto a = ColumnBuilder(TypeId::kFloat64).AppendDoubles({1, 2, 3}).Build();
  auto b = ColumnBuilder(TypeId::kFloat64).AppendDoubles({9, 8, 7}).Build();
  const void* a_payload = a->PlainDoubles().get();
  a->SwapPayload(*b);
  EXPECT_EQ(b->PlainDoubles().get(), a_payload);  // no copy happened
  EXPECT_EQ((*a->PlainDoubles())[0], 9);
}

TEST(ColumnTest, SwapRejectsTypeMismatch) {
  auto a = ColumnBuilder(TypeId::kFloat64).AppendDoubles({1}).Build();
  auto b = ColumnBuilder(TypeId::kInt64).AppendInts({1}).Build();
  EXPECT_THROW(a->SwapPayload(*b), JbError);
}

TEST(ColumnTest, DictionaryStrings) {
  auto col =
      ColumnBuilder(TypeId::kString).AppendStrings({"x", "y", "x"}).Build();
  EXPECT_EQ(col->dict()->size(), 2u);
  EXPECT_EQ(col->GetValue(0).s, "x");
  EXPECT_EQ(col->GetValue(2).i, col->GetValue(0).i);
}

TEST(TableTest, SchemaValidation) {
  EXPECT_THROW(
      Table("t", Schema({{"a", TypeId::kInt64}}),
            {ColumnBuilder(TypeId::kFloat64).AppendDoubles({1.0}).Build()}),
      JbError);  // type mismatch
  auto ok = TableBuilder("t").AddInts("a", {1, 2}).Build();
  EXPECT_EQ(ok->num_rows(), 2u);
  EXPECT_THROW(ok->column("nope"), JbError);
}

TEST(CatalogTest, RegisterDropPrefix) {
  Catalog cat;
  cat.Register(TableBuilder("jb_a").AddInts("x", {1}).Build());
  cat.Register(TableBuilder("jb_b").AddInts("x", {1}).Build());
  cat.Register(TableBuilder("user").AddInts("x", {1}).Build());
  EXPECT_EQ(cat.ListTables().size(), 3u);
  cat.DropPrefix("jb_");
  EXPECT_EQ(cat.ListTables().size(), 1u);
  EXPECT_TRUE(cat.Exists("user"));
  EXPECT_THROW(cat.Drop("jb_a"), JbError);
  cat.DropIfExists("jb_a");  // no-throw
}

TEST(WalTest, ChecksumsVerifyAfterWrites) {
  WriteAheadLog wal(/*spill_to_disk=*/false);
  wal.LogDoubles("f", "s", {0, 2}, {1.5, 2.5});
  wal.LogInts("f", "d", {}, {1, 2, 3});
  EXPECT_EQ(wal.num_records(), 2u);
  EXPECT_EQ(wal.VerifyAll(), 2u);
  EXPECT_GT(wal.bytes_written(), 0u);
}

TEST(WalTest, DiskSpillAndTruncate) {
  WriteAheadLog wal(/*spill_to_disk=*/true);
  std::vector<double> big(10000, 3.14);
  wal.LogDoubles("f", "s", {}, big);
  EXPECT_EQ(wal.VerifyAll(), 1u);
  wal.Truncate();
  EXPECT_EQ(wal.num_records(), 0u);
}

TEST(WalTest, DiskSpillToExplicitPath) {
  // Same as above but through the caller-supplied-path branch.
  test_util::TempDir tmp;
  std::string path = tmp.File("wal.bin");
  std::vector<double> big(10000, 2.71);
  {
    WriteAheadLog wal(/*spill_to_disk=*/true, path);
    wal.LogDoubles("f", "s", {}, big);
    EXPECT_EQ(wal.VerifyAll(), 1u);
    EXPECT_GT(wal.bytes_written(), big.size() * sizeof(double));
    // The payload must actually reach the supplied path (the dtor unlinks it).
    EXPECT_GE(std::filesystem::file_size(path), big.size() * sizeof(double));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(WalTest, MkstempTempFileLifecycle) {
  // The default disk-spilling log creates its file via mkstemp; the object
  // owns it: present (and named predictably) while the log lives, unlinked
  // exactly once by the destructor.
  std::string path;
  {
    WriteAheadLog wal(/*spill_to_disk=*/true);
    path = wal.path();
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.rfind("/tmp/joinboost_wal_", 0), 0u) << path;
    EXPECT_TRUE(std::filesystem::exists(path));
    wal.LogInts("f", "d", {}, {1, 2, 3});
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(WalTest, ConstructorFailureDoesNotLeakAFile) {
  test_util::TempDir tmp;
  std::string bad = tmp.File("no_such_dir") + "/wal.bin";
  EXPECT_THROW(WriteAheadLog(true, bad), JbError);
  EXPECT_FALSE(std::filesystem::exists(bad));
}

TEST(WalTest, FailedDiskWriteLeavesLogAndFileUnchanged) {
  // Failure injection: a write that dies mid-append must roll the file back
  // and leave the in-memory log untouched, so counters never report an
  // append that is not fully on disk — and the log stays usable after.
  test_util::TempDir tmp;
  std::string path = tmp.File("wal.bin");
  WriteAheadLog wal(/*spill_to_disk=*/true, path);
  wal.LogDoubles("f", "s", {}, {1.0, 2.0, 3.0});
  const uint64_t bytes_before = wal.bytes_written();
  const auto file_before = std::filesystem::file_size(path);

  util::fault::FailNext("wal-write");
  EXPECT_THROW(wal.LogDoubles("f", "s", {0, 1}, {4.0, 5.0}), JbError);

  EXPECT_EQ(wal.num_records(), 1u);
  EXPECT_EQ(wal.bytes_written(), bytes_before);
  EXPECT_EQ(std::filesystem::file_size(path), file_before);

  wal.LogDoubles("f", "s", {0, 1}, {4.0, 5.0});
  EXPECT_EQ(wal.num_records(), 2u);
  EXPECT_EQ(wal.VerifyAll(), 2u);
  EXPECT_GT(std::filesystem::file_size(path), file_before);
}

TEST(WalTest, ReplayFileRoundTripsRecordsFromDisk) {
  test_util::TempDir tmp;
  std::string path = tmp.File("wal.bin");
  WriteAheadLog wal(/*spill_to_disk=*/true, path);  // dtor unlinks the file
  wal.LogDoubles("f", "s", {0, 2}, {1.5, 2.5});
  wal.LogInts("f", "d", {}, {7, 8, 9});

  std::vector<WriteAheadLog::Record> replayed =
      WriteAheadLog::ReplayFile(path);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].table, "f");
  EXPECT_EQ(replayed[0].column, "s");
  EXPECT_EQ(replayed[0].rows, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(replayed[0].type, TypeId::kFloat64);
  const double* vals =
      reinterpret_cast<const double*>(replayed[0].payload.data());
  EXPECT_EQ(vals[0], 1.5);
  EXPECT_EQ(vals[1], 2.5);
  EXPECT_EQ(replayed[1].column, "d");
  EXPECT_EQ(replayed[1].type, TypeId::kInt64);
  EXPECT_TRUE(replayed[1].rows.empty());
}

TEST(WalTest, ReplayDetectsFlippedPayloadByte) {
  test_util::TempDir tmp;
  std::string path = tmp.File("wal.bin");
  WriteAheadLog wal(/*spill_to_disk=*/true, path);
  wal.LogDoubles("f", "s", {}, {1.0, 2.0, 3.0});
  wal.LogInts("f", "d", {}, {5, 6});

  // Flip one byte of the last record's payload (the final byte of the file)
  // — a classic silent disk corruption. Replay must refuse the record with
  // the typed reason instead of restoring garbage.
  {
    std::fstream fs(path, std::ios::in | std::ios::out | std::ios::binary);
    fs.seekg(0, std::ios::end);
    const auto size = fs.tellg();
    fs.seekg(size - std::streamoff(1));
    char b;
    fs.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    fs.seekp(size - std::streamoff(1));
    fs.write(&b, 1);
  }
  try {
    WriteAheadLog::ReplayFile(path);
    FAIL() << "expected WalCorruption";
  } catch (const WalCorruption& e) {
    EXPECT_EQ(e.kind(), WalCorruption::Kind::kChecksumMismatch);
    EXPECT_NE(std::string(e.what()).find("f.d"), std::string::npos)
        << e.what();
  }
}

TEST(WalTest, ReplayDetectsTornTail) {
  test_util::TempDir tmp;
  std::string path = tmp.File("wal.bin");
  WriteAheadLog wal(/*spill_to_disk=*/true, path);
  wal.LogDoubles("f", "s", {}, {1.0, 2.0, 3.0});
  wal.LogDoubles("f", "t", {}, {4.0, 5.0});
  const auto full = std::filesystem::file_size(path);

  // A crash mid-append tears the tail record. Both torn shapes — inside the
  // second frame's body, and inside a header (10 bytes is less than the
  // 32-byte frame header) — must surface as kTornTail, not as a parse error
  // or a bogus record.
  for (std::uintmax_t cut : {full - 3, std::uintmax_t{10}}) {
    std::filesystem::resize_file(path, cut);
    try {
      WriteAheadLog::ReplayFile(path);
      FAIL() << "expected WalCorruption at size " << cut;
    } catch (const WalCorruption& e) {
      EXPECT_EQ(e.kind(), WalCorruption::Kind::kTornTail) << e.what();
    }
  }

  // Truncating at a frame boundary is not corruption: the first record
  // survives, the torn second one is simply gone.
  // (Re-log to rebuild, then cut exactly after record one.)
  std::filesystem::resize_file(path, 0);
  {
    WriteAheadLog rebuilt(/*spill_to_disk=*/true, tmp.File("wal2.bin"));
    rebuilt.LogDoubles("f", "s", {}, {1.0, 2.0, 3.0});
    const auto one = std::filesystem::file_size(rebuilt.path());
    rebuilt.LogDoubles("f", "t", {}, {4.0, 5.0});
    std::filesystem::resize_file(rebuilt.path(), one);
    std::vector<WriteAheadLog::Record> recs =
        WriteAheadLog::ReplayFile(rebuilt.path());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].column, "s");
  }
}

TEST(WalTest, ReplayRestoresColumnAfterCrash) {
  // Failure injection: apply the WAL to a column that "lost" its update.
  WriteAheadLog wal(false);
  std::vector<double> committed = {10, 20, 30, 40};
  wal.LogDoubles("f", "s", {1, 3}, {21, 41});

  std::vector<double> crashed = {10, 20, 30, 40};  // pre-update image
  for (const auto& rec : wal.records()) {
    ASSERT_EQ(Fnv1a(rec.payload.data(), rec.payload.size()), rec.checksum);
    const double* vals = reinterpret_cast<const double*>(rec.payload.data());
    for (size_t i = 0; i < rec.rows.size(); ++i) {
      crashed[rec.rows[i]] = vals[i];
    }
  }
  EXPECT_EQ(crashed, (std::vector<double>{10, 21, 30, 41}));
}

TEST(MvccTest, UndoRollback) {
  VersionStore store;
  uint64_t txn = store.BeginTxn();
  store.RecordDoubles(txn, "f", "s", {0, 1}, {1.0, 2.0});
  EXPECT_EQ(store.num_undo_records(), 1u);
  EXPECT_GT(store.bytes_versioned(), 0u);

  VersionStore::Undo undo;
  ASSERT_TRUE(store.PopLast(&undo));
  EXPECT_EQ(undo.old_doubles, (std::vector<double>{1.0, 2.0}));
  EXPECT_FALSE(store.PopLast(&undo));
}

}  // namespace
}  // namespace joinboost
