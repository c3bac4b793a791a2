// Seeded fault-injection chaos harness. Arms the named injection points
// (wal-write, hash-grow, worker-task, snapshot-publish) over the shared
// differential corpus and a full gbdt train, and pins the governance
// contract: every fault surfaces as a clean typed JbError, the engine stays
// consistent through aborted writes (retries converge to the exact
// never-faulted state), and once injection is disarmed a rerun is
// bit-identical to a run that never saw a fault.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/train.h"
#include "diff_corpus.h"
#include "exec/engine.h"
#include "storage/engine_profile.h"
#include "test_util.h"
#include "util/error.h"
#include "util/fault_injection.h"

namespace joinboost {
namespace {

using exec::Database;
using exec::ExecTable;
using diff_corpus::BuildDiffTables;
using diff_corpus::DiffProfile;
using diff_corpus::GenQuery;
using diff_corpus::GenerateQuery;
using diff_corpus::RowStrings;

constexpr size_t kRows = 2000;
constexpr size_t kQueriesPerRun = 6;
constexpr uint64_t kTableSeed = 97;
constexpr uint64_t kQuerySeed = 0xC4A05ULL;
constexpr int kChaosSeeds = 64;

/// Nightly sweeps re-run the whole harness over fresh fault schedules by
/// exporting JB_FAULT_SEED (an offset folded into every per-run seed) and
/// optionally JB_FAULT_RATE. Unset = the pinned defaults used in CI tier-1.
uint64_t SweepSeedOffset() {
  const char* env = std::getenv("JB_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

double SweepRate(double fallback) {
  if (const char* env = std::getenv("JB_FAULT_RATE")) {
    double v = std::strtod(env, nullptr);
    if (v > 0 && v < 1) return v;
  }
  return fallback;
}

/// JB_FAULT_SEED in the environment also auto-arms injection process-wide at
/// the first point visit (util/fault_injection.cc). Resolve that once-only
/// arming now and disarm: the harness controls arming explicitly, and the
/// never-faulted baseline must not see a fault.
void DisarmEnvInjection() {
  try {
    util::fault::Maybe("chaos-env-init");
  } catch (const InjectedFault&) {
  }
  util::fault::Disable();
}

/// Full governed write stack: parallel planner execution + WAL on disk (the
/// wal-write point only fires on the disk path) + MVCC undo staging.
EngineProfile ChaosProfile() {
  EngineProfile p = DiffProfile(/*use_planner=*/true, /*threads=*/4);
  p.wal = true;
  p.wal_to_disk = true;
  p.mvcc = true;
  return p;
}

/// The deterministic write sequence every run applies after loading the
/// corpus tables: multi-column UPDATEs (WAL batches + MVCC undo), a
/// copy-on-write append, and a CREATE TABLE AS materialization. Each step is
/// all-or-nothing under faults, so retrying a thrown step until it succeeds
/// must converge to the exact never-faulted state.
void ApplyWrites(Database* db, size_t* faulted_writes) {
  auto step = [&](const std::function<void()>& op) {
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 500) << "write step failed 500 injected attempts";
      try {
        op();
        return;
      } catch (const JbError&) {
        if (faulted_writes != nullptr) ++*faulted_writes;
      }
    }
  };
  step([&] { db->Execute("UPDATE fact SET y = y * 1.25, x0 = x0 + 1 WHERE k1 < 7"); });
  step([&] { db->Execute("UPDATE fact SET x0 = x0 - 2 WHERE k2 = 3"); });
  step([&] {
    ExecTable batch;
    batch.rows = 2;
    batch.cols.push_back({"", "k1", exec::VectorData::FromInts({3, 40})});
    batch.cols.push_back({"", "f1", exec::VectorData::FromDoubles({111, 222})});
    db->AppendRows("d1", batch);
  });
  step([&] {
    db->Execute(
        "CREATE TABLE agg1 AS SELECT fact.k1 AS k, SUM(fact.y) AS s, "
        "COUNT(*) AS c FROM fact GROUP BY fact.k1");
  });
}

/// Run the seeded corpus and stringify results. Unordered outputs are sorted
/// so the comparison keys on content; ordered outputs keep their order.
std::vector<std::vector<std::string>> RunCorpus(Database* db) {
  std::vector<std::vector<std::string>> out;
  for (size_t i = 0; i < kQueriesPerRun; ++i) {
    GenQuery q = GenerateQuery(kQuerySeed + i);
    std::vector<std::string> rows = RowStrings(*db->Query(q.sql));
    if (!q.ordered) std::sort(rows.begin(), rows.end());
    out.push_back(std::move(rows));
  }
  // The written tables are part of the contract too.
  out.push_back(RowStrings(*db->Query(
      "SELECT agg1.k AS k, agg1.s AS s, agg1.c AS c FROM agg1 ORDER BY k")));
  out.push_back(RowStrings(*db->Query(
      "SELECT d1.k1 AS k, d1.f1 AS f FROM d1 ORDER BY k, f")));
  return out;
}

TEST(ChaosTest, SeededFaultSweepLeavesEngineBitIdentical) {
  DisarmEnvInjection();
  // Never-faulted baseline: fresh engine, the write sequence, the corpus.
  std::vector<std::vector<std::string>> baseline;
  {
    Database db(ChaosProfile());
    BuildDiffTables(&db, kTableSeed, kRows);
    ApplyWrites(&db, nullptr);
    baseline = RunCorpus(&db);
  }

  uint64_t total_trips = 0;
  size_t faulted_writes = 0;
  size_t faulted_queries = 0;
  for (int seed = 0; seed < kChaosSeeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    Database db(ChaosProfile());
    BuildDiffTables(&db, kTableSeed, kRows);

    util::fault::Configure(
        0x9E3779B97F4A7C15ULL * (SweepSeedOffset() + seed + 1),
        SweepRate(/*fallback=*/0.03));
    // Writes retry through injected faults; only typed JbErrors are caught,
    // so an untyped escape (or a crash) fails the test.
    ApplyWrites(&db, &faulted_writes);
    // Queries under fire: a faulted query must abort cleanly and typed.
    for (size_t i = 0; i < kQueriesPerRun; ++i) {
      try {
        db.Query(GenerateQuery(kQuerySeed + i).sql);
      } catch (const JbError&) {
        ++faulted_queries;
      }
    }
    total_trips += util::fault::Trips();
    util::fault::Disable();

    // Disarmed rerun on the SAME engine: bit-identical to the never-faulted
    // baseline — no partial registration, poisoned cache, or torn column.
    EXPECT_EQ(RunCorpus(&db), baseline);
  }
  // The sweep must have genuinely exercised the fault points.
  EXPECT_GT(total_trips, 0u) << "no injection point ever fired";
  EXPECT_GT(faulted_writes + faulted_queries, 0u);
}

core::TrainParams GbdtParams() {
  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 3;
  params.num_leaves = 4;
  return params;
}

TEST(ChaosTest, GbdtTrainSurvivesFaultsAndReproducesBaseline) {
  DisarmEnvInjection();
  // Never-faulted model.
  core::Ensemble baseline;
  {
    Database db(ChaosProfile());
    test_util::BuildSmallSnowflake(&db, /*seed=*/123, /*rows=*/1200);
    Dataset ds = test_util::MakeSnowflakeDataset(&db);
    core::TrainParams params = GbdtParams();
    baseline = Train(params, ds).model;
  }
  ASSERT_EQ(baseline.trees.size(), 3u);

  uint64_t total_trips = 0;
  size_t faulted_trains = 0;
  for (int seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("gbdt chaos seed " + std::to_string(seed));
    // Attempt a train under fire. A failed train may legally leave behind
    // its temp tables — the guarantee is typed abort + base-table
    // consistency, so the rerun uses a fresh engine like any real retry.
    {
      Database db(ChaosProfile());
      test_util::BuildSmallSnowflake(&db, /*seed=*/123, /*rows=*/1200);
      Dataset ds = test_util::MakeSnowflakeDataset(&db);
      util::fault::Configure(
          0x51ED2701ULL + SweepSeedOffset() * 131 + static_cast<uint64_t>(seed),
          SweepRate(/*fallback=*/0.005));
      core::TrainParams params = GbdtParams();
      try {
        Train(params, ds);
      } catch (const JbError&) {
        ++faulted_trains;
      }
      total_trips += util::fault::Trips();
      util::fault::Disable();
      // The base tables the trainer reads stayed intact through the abort.
      EXPECT_EQ(db.catalog().Get("fact")->num_rows(), 1200u);
    }
    // Disarmed retrain reproduces the never-faulted model bit for bit.
    Database db(ChaosProfile());
    test_util::BuildSmallSnowflake(&db, /*seed=*/123, /*rows=*/1200);
    Dataset ds = test_util::MakeSnowflakeDataset(&db);
    core::TrainParams params = GbdtParams();
    core::Ensemble retrained = Train(params, ds).model;
    test_util::ExpectModelsBitIdentical(retrained, baseline,
                                        "seed " + std::to_string(seed));
  }
  EXPECT_GT(total_trips, 0u) << "no injection point fired during training";
  EXPECT_GT(faulted_trains, 0u);
}

}  // namespace
}  // namespace joinboost
