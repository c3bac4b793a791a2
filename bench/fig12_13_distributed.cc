// Figures 12 & 13: multi-node scalability. Workers are in-process engines
// with hash-partitioned facts and replicated dimensions; network costs are
// modeled (see docs/ARCHITECTURE.md "Paper-to-code map"). Fig 12: GBDT vs
// Dask-LightGBM across SF and worker counts. Fig 13: decision-tree training
// where 2 workers introduce a shuffle stage that makes them slower than 1,
// recovering at 4-6.
#include "baselines/dense_dataset.h"
#include "baselines/histogram_gbdt.h"
#include "bench_util.h"
#include "core/distributed.h"
#include "data/generators.h"
#include "joinboost.h"
#include "util/timer.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;
using jb::bench::Row;

namespace {

jb::Dataset MakeData(jb::exec::Database* db, double sf, size_t base_rows) {
  jb::data::TpcdsConfig config;
  config.scale_factor = sf;
  config.base_fact_rows = base_rows;
  config.num_features = 15;
  return jb::data::MakeTpcds(db, config);
}

}  // namespace

int main() {
  size_t base_rows = jb::bench::ScaledRows(40000);

  Header("Figure 12a: multi-node GBDT, 4 workers, SF sweep",
         "all scale linearly; JoinBoost >9x faster than Dask-LightGBM; "
         "LightGBM OOMs at the largest SF even on 4 workers");
  jb::core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 10;
  params.num_leaves = 8;

  for (double sf : {1.0, 1.5, 2.0}) {
    jb::exec::Database db(jb::EngineProfile::DSwap());
    jb::Dataset ds = MakeData(&db, sf, base_rows);
    jb::core::DistributedConfig dconf;
    dconf.num_workers = 4;
    jb::core::DistributedTrainer trainer(ds, dconf);
    auto res = trainer.Train(params);
    Row("JoinBoost(4w) SF=" + std::to_string(sf), res.seconds);

    // Dask-LightGBM-like: full materialize/export/load + training with an
    // all-reduce per iteration; per-worker memory budget.
    size_t budget =
        4 * static_cast<size_t>(1.6 * static_cast<double>(base_rows)) * 16 *
        8 * 2;
    try {
      jb::Timer t;
      jb::baselines::DenseDataset dense =
          jb::baselines::MaterializeExportLoad(ds, nullptr, budget);
      jb::ThreadPool pool(4);
      jb::baselines::HistogramGbdt lgbm(params, &pool);
      lgbm.Train(dense);
      // modeled all-reduce: bins x features x 24B x workers per iteration
      double allreduce = params.num_iterations *
                         (1000.0 * 15 * 24 * 4 / 2e8 + 0.002 * 4);
      Row("Dask-LightGBM(4w) SF=" + std::to_string(sf),
          t.Seconds() + allreduce);
    } catch (const jb::baselines::OomError&) {
      Note("Dask-LightGBM(4w) SF=" + std::to_string(sf) + ": OUT OF MEMORY");
    }
  }

  Header("Figure 12b: workers sweep at the largest SF",
         "JoinBoost runs even on 1 worker and speeds up with more workers");
  for (int w : {1, 2, 3, 4}) {
    jb::exec::Database db(jb::EngineProfile::DSwap());
    jb::Dataset ds = MakeData(&db, 2.0, base_rows);
    jb::core::DistributedConfig dconf;
    dconf.num_workers = w;
    jb::core::DistributedTrainer trainer(ds, dconf);
    auto res = trainer.Train(params);
    Row("JoinBoost workers=" + std::to_string(w), res.seconds);
  }

  Header("Figure 13: decision tree on warehouse-scale data vs #machines",
         "2 machines introduce a shuffle stage and are slower than 1; 4 (6) "
         "machines win back ~10% (25%)");
  jb::core::TrainParams dt;
  dt.boosting = "dt";
  dt.num_leaves = 8;
  dt.max_depth = 3;
  for (int w : {1, 2, 4, 6}) {
    jb::exec::Database db(jb::EngineProfile::DSwap());
    jb::Dataset ds = MakeData(&db, 3.0, base_rows);
    jb::core::DistributedConfig dconf;
    dconf.num_workers = w;
    dconf.network_latency_s = 0.004;
    jb::core::DistributedTrainer trainer(ds, dconf);
    auto res = trainer.Train(dt);
    Row("machines=" + std::to_string(w), res.seconds);
    Note("  compute=" + std::to_string(res.compute_seconds) + "s shuffle=" +
         std::to_string(res.shuffle_seconds) + "s");
  }
  return 0;
}
