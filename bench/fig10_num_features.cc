// Figure 10: gradient boosting time at iterations 10 and 50 while the number
// of imputed features grows (5 -> 50); LightGBM slows superlinearly and runs
// out of memory at the widest setting.
//
// A second sweep trains with the split search (one GROUPING SETS histogram
// query per relation per leaf, threshold enumeration in C++) and writes its
// timings and deterministic counters (split queries, grouping sets, message
// queries, cells decompressed) to BENCH_PR4.json — a CI artifact guarded by
// tools/compare_bench.py.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/dense_dataset.h"
#include "baselines/histogram_gbdt.h"
#include "bench_util.h"
#include "data/generators.h"
#include "joinboost.h"
#include "util/timer.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;
using jb::bench::Row;

namespace {

struct SweepPoint {
  size_t features = 0;
  double batched_seconds = 0;
  size_t batched_split_queries = 0;
  size_t grouping_sets = 0;
  size_t batched_cells_decompressed = 0;
  size_t message_queries = 0;
};

SweepPoint RunSweepPoint(size_t rows, int extra, int iters) {
  SweepPoint point;
  jb::data::FavoritaConfig config;
  config.sales_rows = rows;
  config.extra_features_per_dim = extra;
  jb::exec::Database db(jb::EngineProfile::DSwap());
  jb::Dataset ds = jb::data::MakeFavorita(&db, config);
  point.features = ds.graph().AllFeatures().size();

  jb::core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = iters;
  params.num_leaves = 8;
  db.ClearPlanStats();
  jb::TrainResult res = jb::Train(params, ds);
  jb::plan::PlanStats stats = db.PlanStatsTotals();
  point.batched_seconds = res.seconds;
  point.batched_split_queries = res.feature_queries;
  point.grouping_sets = stats.grouping_sets;
  point.batched_cells_decompressed = stats.cells_decompressed;
  point.message_queries = res.message_queries;
  return point;
}

void WriteJson(const std::vector<SweepPoint>& sweep, size_t rows, int iters) {
  const char* path = std::getenv("JB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_PR4.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("  -- could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig10_num_features\",\n"
               "  \"scale\": %.3f,\n"
               "  \"sales_rows\": %zu,\n"
               "  \"iterations\": %d,\n"
               "  \"sweep\": [\n",
               jb::bench::Scale(), rows, iters);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f, "    {\"features\": %zu, \"batched_seconds\": %.4f}%s\n",
                 p.features, p.batched_seconds,
                 i + 1 < sweep.size() ? "," : "");
  }
  // Deterministic counters, one flat object for the CI regression guard.
  std::fprintf(f, "  ],\n  \"counters\": {\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f,
                 "    \"split_queries_batched_w%zu\": %zu,\n"
                 "    \"grouping_sets_w%zu\": %zu,\n"
                 "    \"message_queries_w%zu\": %zu,\n"
                 "    \"cells_decompressed_batched_w%zu\": %zu%s\n",
                 p.features, p.batched_split_queries, p.features,
                 p.grouping_sets, p.features, p.message_queries, p.features,
                 p.batched_cells_decompressed,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("  -- wrote %s\n", path);
}

}  // namespace

int main() {
  Header("Figure 10: scaling the number of features",
         "JoinBoost scales linearly with a ~10x lower slope; LightGBM slows "
         ">1.5x by the middle setting and OOMs at the widest");

  size_t rows = jb::bench::ScaledRows(25000);
  // extra features per dimension -> total features 12 / 24 / 44.
  std::vector<int> extras = {1, 3, 7};
  // Budget sized so only the widest dense matrix overflows.
  size_t budget = rows * 30 * 8 * 2;

  for (int iters : {5, 15}) {
    std::printf("\n  -- iteration %d --\n", iters);
    for (int extra : extras) {
      jb::data::FavoritaConfig config;
      config.sales_rows = rows;
      config.extra_features_per_dim = extra;

      jb::exec::Database db(jb::EngineProfile::DSwap());
      jb::Dataset ds = jb::data::MakeFavorita(&db, config);
      size_t nfeat = ds.graph().AllFeatures().size();

      jb::core::TrainParams params;
      params.boosting = "gbdt";
      params.num_iterations = iters;
      params.num_leaves = 8;

      jb::Timer t;
      jb::Train(params, ds);
      Row("JoinBoost  features=" + std::to_string(nfeat), t.Seconds());

      try {
        jb::Timer lt;
        jb::baselines::DenseDataset dense =
            jb::baselines::MaterializeExportLoad(ds, nullptr, budget);
        jb::ThreadPool pool(8);
        jb::baselines::HistogramGbdt trainer(params, &pool);
        trainer.Train(dense);
        Row("LightGBM   features=" + std::to_string(nfeat), lt.Seconds());
      } catch (const jb::baselines::OomError& e) {
        Note("LightGBM   features=" + std::to_string(nfeat) +
             ": OUT OF MEMORY (" + e.what() + ")");
      }
    }
  }

  // ---- split-search sweep: counters by feature count ----
  std::printf("\n  -- split search by feature count --\n");
  const int sweep_iters = 5;
  std::vector<SweepPoint> sweep;
  for (int extra : extras) {
    SweepPoint p = RunSweepPoint(rows, extra, sweep_iters);
    Row("batched     features=" + std::to_string(p.features),
        p.batched_seconds);
    Note("split queries: " + std::to_string(p.batched_split_queries) +
         ", grouping sets: " + std::to_string(p.grouping_sets));
    sweep.push_back(p);
  }
  WriteJson(sweep, rows, sweep_iters);
  return 0;
}
