// Query lifecycle governance bench (PR 10): overhead of the cooperative
// QueryGuard on governed queries vs the ungoverned fast path (target <= 3%),
// cancellation latency from Cancel() to the typed QueryAborted surfacing
// (bounded by one morsel), and the deterministic governance counters
// (guard_checks, queries_cancelled, deadline_aborts, budget_aborts,
// admission_rejected) pinned by CI via bench/baselines/BENCH_PR10.json and
// tools/compare_bench.py.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "joinboost.h"
#include "serve/serving.h"
#include "sql/parser.h"
#include "util/error.h"
#include "util/query_guard.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;
using jb::bench::Row;

namespace {

double Seconds(const std::function<void()>& fn, int reps) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// The counter workload runs on fixed-size tables with explicit morsel
// geometry so guard_checks is one number on every machine, scale setting and
// thread count (morsel counting is thread-count invariant by construction).
constexpr size_t kCounterRows = 6000;
constexpr size_t kCounterMorselRows = 256;
constexpr size_t kCounterParallelThreshold = 64;
constexpr int kCounterReps = 3;
constexpr int kCancelTrials = 11;

jb::EngineProfile CounterProfile() {
  jb::EngineProfile p = jb::EngineProfile::DSwap();
  p.morsel_rows = kCounterMorselRows;
  p.parallel_threshold_rows = kCounterParallelThreshold;
  return p;
}

/// The fixed governed query mix the guard_checks counter is pinned against:
/// scan+filter, join+aggregate, group-by and an ordered projection, covering
/// morsel loops, hash builds and seal points.
const std::vector<std::string>& CounterQueries() {
  static const std::vector<std::string> queries = {
      "SELECT COUNT(*) AS c FROM sales WHERE sales.unit_sales > 0",
      "SELECT COUNT(*) AS c, SUM(sales.unit_sales) AS s FROM sales "
      "JOIN items ON sales.item_id = items.item_id",
      "SELECT sales.store_id AS g, SUM(sales.unit_sales) AS s FROM sales "
      "GROUP BY sales.store_id",
      "SELECT sales.item_id AS i, sales.unit_sales AS y FROM sales "
      "ORDER BY i, y LIMIT 50",
  };
  return queries;
}

jb::exec::ExecTable RunGoverned(jb::exec::Database* db, const std::string& sql,
                                jb::util::QueryGuard* guard) {
  jb::exec::ReadContext rctx;
  rctx.guard = guard;
  jb::sql::Statement stmt = jb::sql::Parse(sql);
  return db->Query(rctx, *stmt.select);
}

struct OverheadSweep {
  double ungoverned_seconds = 0;
  double governed_seconds = 0;
  double overhead_pct = 0;
};

/// Same query stream with guard == nullptr (fast path: zero checks, zero
/// counter writes) vs an armed guard with no limits (every check runs).
OverheadSweep RunOverheadSweep(jb::exec::Database* db, int reps) {
  const std::string agg =
      "SELECT COUNT(*) AS c, SUM(sales.unit_sales) AS s FROM sales "
      "JOIN items ON sales.item_id = items.item_id";
  const std::string grp =
      "SELECT sales.store_id AS g, SUM(sales.unit_sales) AS s, COUNT(*) AS c "
      "FROM sales GROUP BY sales.store_id";
  OverheadSweep out;
  jb::util::QueryGuard guard;  // armed, unlimited: pure check cost
  // Warm storage once for both variants.
  db->Query(agg);
  db->Query(grp);
  RunGoverned(db, agg, &guard);
  out.ungoverned_seconds = Seconds(
      [&] {
        db->Query(agg);
        db->Query(grp);
      },
      reps);
  out.governed_seconds = Seconds(
      [&] {
        RunGoverned(db, agg, &guard);
        RunGoverned(db, grp, &guard);
      },
      reps);
  out.overhead_pct =
      out.ungoverned_seconds > 0
          ? (out.governed_seconds - out.ungoverned_seconds) /
                out.ungoverned_seconds * 100.0
          : 0;
  return out;
}

struct CancelSweep {
  double p50_ms = 0;
  double max_ms = 0;
  size_t trials = 0;
};

/// A worker thread runs governed queries back to back; the main thread trips
/// Cancel() mid-stream and we time how long the worker takes to surface the
/// typed abort. The guard is checked at every morsel boundary, so the latency
/// is bounded by one morsel of work no matter how large the query is.
CancelSweep RunCancelSweep(jb::exec::Database* db) {
  const std::string agg =
      "SELECT COUNT(*) AS c, SUM(sales.unit_sales) AS s FROM sales "
      "JOIN items ON sales.item_id = items.item_id";
  std::vector<double> latencies;
  for (int trial = 0; trial < kCancelTrials; ++trial) {
    jb::util::QueryGuard guard;
    std::atomic<bool> running{false};
    std::chrono::steady_clock::time_point caught_at;
    std::thread worker([&] {
      try {
        for (;;) {
          running.store(true);
          RunGoverned(db, agg, &guard);
        }
      } catch (const jb::QueryAborted&) {
        caught_at = std::chrono::steady_clock::now();
      }
    });
    while (!running.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto cancel_at = std::chrono::steady_clock::now();
    guard.Cancel();  // sticky: the worker aborts mid-query or on its next one
    worker.join();
    latencies.push_back(
        std::chrono::duration<double, std::milli>(caught_at - cancel_at)
            .count());
  }
  std::sort(latencies.begin(), latencies.end());
  CancelSweep out;
  out.trials = latencies.size();
  out.p50_ms = latencies[latencies.size() / 2];
  out.max_ms = latencies.back();
  return out;
}

struct CounterSweep {
  uint64_t guard_checks = 0;
  uint64_t queries_cancelled = 0;
  uint64_t deadline_aborts = 0;
  uint64_t budget_aborts = 0;
  uint64_t admission_rejected = 0;
};

CounterSweep RunCounterSweep() {
  CounterSweep out;
  jb::data::FavoritaConfig config;
  config.sales_rows = kCounterRows;  // never scaled: counters are pinned

  // guard_checks: a clean governed stream on its own engine, so partial
  // checks from deliberately aborted queries can't leak into the count.
  {
    jb::exec::Database db(CounterProfile());
    jb::data::MakeFavorita(&db, config);
    jb::util::QueryGuard guard;
    for (int rep = 0; rep < kCounterReps; ++rep) {
      for (const std::string& sql : CounterQueries()) {
        RunGoverned(&db, sql, &guard);
      }
    }
    out.guard_checks = db.PlanStatsTotals().guard_checks;
  }

  // Abort counters: trip each limit exactly once on a second engine.
  {
    jb::exec::Database db(CounterProfile());
    jb::data::MakeFavorita(&db, config);
    const std::string agg =
        "SELECT COUNT(*) AS c, SUM(sales.unit_sales) AS s FROM sales "
        "JOIN items ON sales.item_id = items.item_id";
    {
      jb::util::QueryGuard guard;
      guard.Cancel();
      try {
        RunGoverned(&db, agg, &guard);
      } catch (const jb::QueryAborted&) {
      }
    }
    {
      jb::util::QueryGuard guard;
      guard.set_deadline(jb::util::QueryGuard::Clock::now() -
                         std::chrono::milliseconds(1));
      try {
        RunGoverned(&db, agg, &guard);
      } catch (const jb::QueryAborted&) {
      }
    }
    {
      jb::util::QueryGuard guard;
      guard.set_byte_budget(64);  // the first hash build blows through this
      try {
        RunGoverned(&db, agg, &guard);
      } catch (const jb::QueryAborted&) {
      }
    }
    jb::plan::PlanStats totals = db.PlanStatsTotals();
    out.queries_cancelled = totals.queries_cancelled;
    out.deadline_aborts = totals.deadline_aborts;
    out.budget_aborts = totals.budget_aborts;

    // admission_rejected: one slot, held; a bounded-wait request must be
    // rejected typed once, then succeed after release.
    jb::EngineProfile serve_profile = CounterProfile();
    serve_profile.serve_admission_slots = 1;
    serve_profile.serve_admission_max_wait_ms = 10;
    jb::exec::Database serve_db(serve_profile);
    jb::data::MakeFavorita(&serve_db, config);
    jb::serve::ServingContext ctx(&serve_db, {"sales", "items"});
    ctx.gate().Acquire();
    jb::serve::ServingContext::Session session = ctx.OpenSession();
    try {
      session.Query(agg);
    } catch (const jb::AdmissionRejected&) {
    }
    ctx.gate().Release();
    session.Query(agg);  // slot free again: request admitted and served
    out.admission_rejected = ctx.admission_rejected();
  }
  return out;
}

void WriteJson(const OverheadSweep& over, const CancelSweep& cancel,
               const CounterSweep& counters) {
  const char* path = std::getenv("JB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_PR10.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("  -- could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"governance\",\n"
               "  \"scale\": %.3f,\n"
               "  \"ungoverned_seconds\": %.6f,\n"
               "  \"governed_seconds\": %.6f,\n"
               "  \"guard_overhead_pct\": %.3f,\n"
               "  \"cancel_latency_p50_ms\": %.3f,\n"
               "  \"cancel_latency_max_ms\": %.3f,\n"
               "  \"cancel_trials\": %zu,\n"
               "  \"counters\": {\n"
               "    \"guard_checks\": %llu,\n"
               "    \"queries_cancelled\": %llu,\n"
               "    \"deadline_aborts\": %llu,\n"
               "    \"budget_aborts\": %llu,\n"
               "    \"admission_rejected\": %llu\n"
               "  }\n"
               "}\n",
               jb::bench::Scale(), over.ungoverned_seconds,
               over.governed_seconds, over.overhead_pct, cancel.p50_ms,
               cancel.max_ms, cancel.trials,
               static_cast<unsigned long long>(counters.guard_checks),
               static_cast<unsigned long long>(counters.queries_cancelled),
               static_cast<unsigned long long>(counters.deadline_aborts),
               static_cast<unsigned long long>(counters.budget_aborts),
               static_cast<unsigned long long>(counters.admission_rejected));
  std::fclose(f);
  std::printf("  -- wrote %s\n", path);
}

}  // namespace

int main() {
  Header("Query lifecycle governance bench (PR 10)",
         "guard overhead on governed vs ungoverned execution, cancellation "
         "latency from Cancel() to the typed abort, and the deterministic "
         "governance counters the CI guard pins");

  jb::data::FavoritaConfig config;
  config.sales_rows = jb::bench::ScaledRows(40000);
  jb::exec::Database db(jb::EngineProfile::DSwap());
  jb::data::MakeFavorita(&db, config);
  Note("timing workload: " + std::to_string(config.sales_rows) +
       " sales rows, join-aggregate + group-by stream");

  OverheadSweep over = RunOverheadSweep(&db, /*reps=*/7);
  Row("ungoverned stream", over.ungoverned_seconds);
  Row("governed stream", over.governed_seconds);
  Row("guard overhead", over.overhead_pct, "%");

  CancelSweep cancel = RunCancelSweep(&db);
  std::printf("  cancel latency over %zu trials: p50 %7.3fms  max %7.3fms\n",
              cancel.trials, cancel.p50_ms, cancel.max_ms);

  CounterSweep counters = RunCounterSweep();
  std::printf(
      "  counters: guard_checks=%llu cancelled=%llu deadline=%llu "
      "budget=%llu admission_rejected=%llu\n",
      static_cast<unsigned long long>(counters.guard_checks),
      static_cast<unsigned long long>(counters.queries_cancelled),
      static_cast<unsigned long long>(counters.deadline_aborts),
      static_cast<unsigned long long>(counters.budget_aborts),
      static_cast<unsigned long long>(counters.admission_rejected));

  WriteJson(over, cancel, counters);
  return 0;
}
