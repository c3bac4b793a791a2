// Hash-infrastructure sweep (PR 5): join-build/probe and group-by kernels,
// old `std::unordered_map<uint64_t, std::vector<uint32_t>>` layout vs the
// flat bucket-chained tables in src/exec/hash_table.h, over a fig09-style
// mix of join+aggregation shapes; plus engine-level join+agg smoke passes
// over dense keys (the array path) and spread keys (the hash path), whose
// deterministic PlanStats counters are guarded by CI
// (bench/baselines/BENCH_PR5.json via tools/compare_bench.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "exec/hash_table.h"
#include "exec/morsel.h"
#include "joinboost.h"
#include "util/hash.h"
#include "util/rng.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;

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

/// One join+aggregation shape: probe `probe` rows against `build` rows
/// drawn from `keys` distinct keys, then group the probe side by key.
struct Shape {
  const char* name;
  size_t build;
  size_t probe;
  int64_t keys;
};

struct Columns {
  std::vector<int64_t> build_key;
  std::vector<int64_t> probe_key;
  std::vector<double> probe_val;
};

Columns MakeColumns(const Shape& s, uint64_t seed) {
  jb::Rng rng(seed);
  Columns c;
  c.build_key.resize(s.build);
  c.probe_key.resize(s.probe);
  c.probe_val.resize(s.probe);
  for (auto& k : c.build_key) k = rng.NextInt(0, s.keys - 1);
  for (size_t i = 0; i < s.probe; ++i) {
    // Over-range probe keys slightly so some probes miss, like a selective
    // semi-join input.
    c.probe_key[i] = rng.NextInt(0, s.keys + s.keys / 8);
    c.probe_val[i] = rng.NextDouble();
  }
  return c;
}

// The engine's key-hash seed: kernels must measure the same hash
// distribution the operators produce.
constexpr uint64_t kSeed = jb::exec::morsel::kKeyHashSeed;

/// The replaced implementation, kept verbatim in the bench as the
/// comparison point: per-row hashing (with its redundant extra SplitMix64
/// pass per cell) into a node-based map with one heap-allocated row vector
/// per key.
uint64_t HashRowOld(const std::vector<int64_t>& col, size_t r) {
  return jb::HashCombine(kSeed, jb::SplitMix64(static_cast<uint64_t>(col[r])));
}

double OldJoinAgg(const Columns& c, size_t* sink) {
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  buckets.reserve(c.build_key.size() * 2);
  for (size_t r = 0; r < c.build_key.size(); ++r) {
    buckets[HashRowOld(c.build_key, r)].push_back(static_cast<uint32_t>(r));
  }
  size_t matches = 0;
  for (size_t l = 0; l < c.probe_key.size(); ++l) {
    auto it = buckets.find(HashRowOld(c.probe_key, l));
    if (it == buckets.end()) continue;
    for (uint32_t r : it->second) {
      if (c.build_key[r] == c.probe_key[l]) ++matches;
    }
  }
  // Group the probe side by key (the old GroupRows layout).
  std::unordered_map<uint64_t, std::vector<uint32_t>> groups;
  std::vector<uint32_t> reps;
  std::vector<double> sums;
  for (size_t r = 0; r < c.probe_key.size(); ++r) {
    auto& bucket = groups[HashRowOld(c.probe_key, r)];
    uint32_t gid = UINT32_MAX;
    for (uint32_t g : bucket) {
      if (c.probe_key[reps[g]] == c.probe_key[r]) {
        gid = g;
        break;
      }
    }
    if (gid == UINT32_MAX) {
      gid = static_cast<uint32_t>(reps.size());
      reps.push_back(static_cast<uint32_t>(r));
      sums.push_back(0.0);
      bucket.push_back(gid);
    }
    sums[gid] += c.probe_val[r];
  }
  *sink += matches + reps.size();
  return sums.empty() ? 0.0 : sums[0];
}

double NewJoinAgg(const Columns& c, size_t* sink) {
  // Column-at-a-time hashing, the engine's current math: HashCombine mixes
  // its value argument internally, no extra finalizer per cell.
  std::vector<uint64_t> bh(c.build_key.size(), kSeed);
  for (size_t r = 0; r < c.build_key.size(); ++r) {
    bh[r] = jb::HashCombine(bh[r], static_cast<uint64_t>(c.build_key[r]));
  }
  std::vector<uint64_t> ph(c.probe_key.size(), kSeed);
  for (size_t r = 0; r < c.probe_key.size(); ++r) {
    ph[r] = jb::HashCombine(ph[r], static_cast<uint64_t>(c.probe_key[r]));
  }
  jb::exec::hash::JoinHashTable table;
  table.Build(bh.data(), c.build_key.size());
  size_t matches = 0;
  for (size_t l = 0; l < c.probe_key.size(); ++l) {
    for (uint32_t r = table.Probe(ph[l]); r != jb::exec::hash::kInvalidIndex;
         r = table.Next(r)) {
      if (c.build_key[r] == c.probe_key[l]) ++matches;
    }
  }
  jb::exec::hash::GroupHashTable groups(c.probe_key.size());
  std::vector<uint32_t> reps;
  std::vector<double> sums;
  for (size_t r = 0; r < c.probe_key.size(); ++r) {
    uint32_t gid = groups.FindOrAdd(ph[r], [&](uint32_t g) {
      return c.probe_key[reps[g]] == c.probe_key[r];
    });
    if (gid == reps.size()) {
      reps.push_back(static_cast<uint32_t>(r));
      sums.push_back(0.0);
    }
    sums[gid] += c.probe_val[r];
  }
  *sink += matches + reps.size();
  return sums.empty() ? 0.0 : sums[0];
}

struct SweepResult {
  std::string name;
  double old_seconds = 0;
  double new_seconds = 0;
  double speedup = 0;
};

/// Engine-level smoke: join+agg queries through the full SQL pipeline; the
/// hash counters this produces are deterministic (thread-count and machine
/// independent by construction) and guarded against the committed baseline.
struct EngineCounters {
  double seconds = 0;
  size_t queries = 0;
  size_t benchmark_sink = 0;  ///< result rows; keeps the loop observable
  jb::plan::PlanStats stats;
};

/// Keys of the spread pass: k * kSpread + 1, whose box is far beyond any
/// array, so every operator hashes them.
constexpr int64_t kSpread = 1000003;

/// One smoke pass. Over dense keys every int-keyed join, GROUP BY and IN
/// takes the array path (the GROUP BY on the float d.w is hashed either
/// way); over spread keys, the same rows take the hash path.
EngineCounters RunEngineSmoke(bool spread) {
  jb::exec::Database db(jb::EngineProfile::DSwap());
  jb::Rng rng(31);
  auto key = [&](int64_t k) { return spread ? k * kSpread + 1 : k; };
  const size_t n = jb::bench::ScaledRows(120000);
  std::vector<int64_t> k1(n), k2(n);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    k1[i] = key(rng.NextInt(0, 1999));
    k2[i] = key(rng.NextInt(0, 49));
    v[i] = rng.NextDouble();
  }
  db.RegisterTable(jb::TableBuilder("t")
                       .AddInts("k1", k1)
                       .AddInts("k2", k2)
                       .AddDoubles("v", v)
                       .Build());
  std::vector<int64_t> dk(2000);
  std::vector<double> dw(2000);
  for (size_t i = 0; i < dk.size(); ++i) {
    dk[i] = key(static_cast<int64_t>(i));
    dw[i] = rng.NextDouble();
  }
  db.RegisterTable(
      jb::TableBuilder("d").AddInts("k1", dk).AddDoubles("w", dw).Build());
  const char* queries[] = {
      "SELECT t.k2 AS g, SUM(t.v) AS s FROM t JOIN d ON t.k1 = d.k1 "
      "GROUP BY t.k2",
      "SELECT t.k1 AS g, COUNT(*) AS c, AVG(t.v) AS a FROM t "
      "SEMI JOIN d ON t.k1 = d.k1 GROUP BY t.k1",
      "SELECT d.w AS w, MIN(t.v) AS lo, MAX(t.v) AS hi FROM t "
      "JOIN d ON t.k1 = d.k1 GROUP BY d.w",
      "SELECT DISTINCT t.k2 AS g FROM t ANTI JOIN d ON t.k1 = d.k1",
      "SELECT t.k2 AS g, SUM(t.v) AS s FROM t WHERE t.k1 IN "
      "(SELECT d.k1 FROM d WHERE d.w > 0.5) GROUP BY t.k2",
  };
  EngineCounters out;
  db.ClearPlanStats();
  auto t0 = std::chrono::steady_clock::now();
  for (const char* q : queries) {
    auto res = db.Query(q);
    out.benchmark_sink += res->rows;
    ++out.queries;
  }
  auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.stats = db.PlanStatsTotals();
  return out;
}

void WriteJson(const std::vector<SweepResult>& sweep, double speedup,
               const EngineCounters& hashed, const EngineCounters& dense) {
  const char* path = std::getenv("JB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_PR5.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("  -- could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"hash_infra\",\n"
               "  \"scale\": %.3f,\n"
               "  \"sweep\": [\n",
               jb::bench::Scale());
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"old_seconds\": %.6f, "
                 "\"new_seconds\": %.6f, \"speedup\": %.3f}%s\n",
                 sweep[i].name.c_str(), sweep[i].old_seconds,
                 sweep[i].new_seconds, sweep[i].speedup,
                 i + 1 < sweep.size() ? "," : "");
  }
  // hash_* come from the spread-key pass, array_* from the dense-key pass;
  // engine_queries counts the queries of one pass.
  std::fprintf(f,
               "  ],\n"
               "  \"speedup\": %.3f,\n"
               "  \"engine_seconds\": %.4f,\n"
               "  \"array_engine_seconds\": %.4f,\n"
               "  \"counters\": {\n"
               "    \"engine_queries\": %zu,\n"
               "    \"hash_probes\": %zu,\n"
               "    \"hash_chain_follows\": %zu,\n"
               "    \"hash_bytes\": %zu,\n"
               "    \"array_probes\": %zu,\n"
               "    \"array_chain_follows\": %zu,\n"
               "    \"array_bytes\": %zu\n"
               "  }\n"
               "}\n",
               speedup, hashed.seconds, dense.seconds, hashed.queries,
               hashed.stats.hash_probes, hashed.stats.hash_chain_follows,
               hashed.stats.hash_bytes, dense.stats.hash_probes,
               dense.stats.hash_chain_follows, dense.stats.hash_bytes);
  std::fclose(f);
  std::printf("  -- wrote %s\n", path);
}

}  // namespace

int main() {
  Header("Hash infrastructure sweep (PR 5)",
         "join build/probe + group-by kernels, node-map vs flat "
         "bucket-chained tables; engine join+agg smoke with deterministic "
         "hash counters");

  const Shape shapes[] = {
      {"dim_join", 2000, jb::bench::ScaledRows(200000), 2000},
      {"dup_heavy_join", jb::bench::ScaledRows(40000),
       jb::bench::ScaledRows(200000), 4000},
      {"high_card_group", jb::bench::ScaledRows(50000),
       jb::bench::ScaledRows(200000), 50000},
      {"low_card_group", 64, jb::bench::ScaledRows(200000), 64},
  };
  const int reps = 5;
  std::vector<SweepResult> sweep;
  double total_old = 0, total_new = 0;
  size_t sink = 0;
  for (const Shape& s : shapes) {
    Columns c = MakeColumns(s, 1234);
    SweepResult r;
    r.name = s.name;
    r.old_seconds = Seconds([&] { OldJoinAgg(c, &sink); }, reps);
    r.new_seconds = Seconds([&] { NewJoinAgg(c, &sink); }, reps);
    r.speedup = r.new_seconds > 0 ? r.old_seconds / r.new_seconds : 0;
    total_old += r.old_seconds;
    total_new += r.new_seconds;
    std::printf("  %-18s old %8.4fs  new %8.4fs  speedup %5.2fx\n", s.name,
                r.old_seconds, r.new_seconds, r.speedup);
    sweep.push_back(r);
  }
  double speedup = total_new > 0 ? total_old / total_new : 0;
  Note("sweep speedup (total old / total new): " + std::to_string(speedup) +
       "x  [sink " + std::to_string(sink % 10) + "]");

  EngineCounters hashed = RunEngineSmoke(/*spread=*/true);
  EngineCounters dense = RunEngineSmoke(/*spread=*/false);
  JB_CHECK_MSG(hashed.benchmark_sink == dense.benchmark_sink,
               "spread and dense keys returned different row counts");
  auto report = [](const char* keys, const EngineCounters& e) {
    std::printf(
        "  engine smoke, %s: %.4fs, probes=%zu chain_follows=%zu "
        "bytes=%zu\n",
        keys, e.seconds, e.stats.hash_probes, e.stats.hash_chain_follows,
        e.stats.hash_bytes);
  };
  report("spread keys", hashed);
  report("dense keys", dense);

  WriteJson(sweep, speedup, hashed, dense);
  return 0;
}
