// Figure 5: residual update time per DBMS profile and update method, on the
// synthetic pilot fact table F(s, d, c1..ck) with an 8-leaf tree whose leaf
// selectors partition the join-key domain (paper §5.3.2).
#include <functional>

#include "baselines/dense_dataset.h"
#include "baselines/histogram_gbdt.h"
#include "bench_util.h"
#include "core/boosting.h"
#include "core/session.h"
#include "data/generators.h"
#include "joinboost.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;

namespace {

/// Build the 8-leaf GrowthResult of the pilot study: leaf i selects
/// d ∈ (D/8·(i−1), D/8·i] with a fixed random prediction.
jb::core::GrowthResult PilotLeaves(int64_t d_domain) {
  jb::core::GrowthResult grown;
  grown.tree.nodes.push_back(jb::core::TreeNode{});
  int64_t step = d_domain / 8;
  for (int i = 0; i < 8; ++i) {
    jb::core::GrowthResult::LeafInfo leaf;
    leaf.node = 0;
    // Predicates land on the fact table directly (relation 0 = "f").
    leaf.preds.Add(0, "d > " + std::to_string(step * i));
    leaf.preds.Add(0, "d <= " + std::to_string(step * (i + 1)));
    leaf.raw_value = 0.1 * (i + 1);
    grown.leaves.push_back(std::move(leaf));
  }
  return grown;
}

double MeasureUpdate(const jb::EngineProfile& profile,
                     const std::string& strategy, int extra_columns,
                     size_t rows) {
  jb::exec::Database db(profile);
  jb::data::PilotConfig config;
  config.rows = rows;
  config.extra_columns = extra_columns;
  jb::Dataset ds = jb::data::MakePilot(&db, config);

  jb::core::TrainParams params;
  params.boosting = "gbdt";
  params.update_strategy = strategy;
  jb::core::Session session(&ds, params);
  session.Prepare();
  jb::core::GradientBoosting gb(&session, params);
  jb::core::GrowthResult grown = PilotLeaves(config.d_domain);

  jb::Timer timer;
  gb.UpdateResiduals(session, grown, session.y_fact());
  return timer.Seconds();
}

/// LightGBM reference: residual update as a parallel write to a dense array.
double MeasureDenseUpdate(size_t rows) {
  jb::exec::Database db(jb::EngineProfile::DSwap());
  jb::data::PilotConfig config;
  config.rows = rows;
  jb::Dataset ds = jb::data::MakePilot(&db, config);
  jb::baselines::DenseDataset dense =
      jb::baselines::MaterializeExportLoad(ds, nullptr);
  jb::core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 1;
  params.num_leaves = 8;
  jb::ThreadPool pool(8);
  jb::baselines::HistogramGbdt trainer(params, &pool);
  jb::baselines::HistogramStats stats;
  trainer.Train(dense, &stats);
  return stats.residual_update_seconds;
}

}  // namespace

int main() {
  size_t rows = jb::bench::ScaledRows(600000);
  Header("Figure 5: residual update time per DBMS and method",
         "Naive >> CREATE-k (grows with k) > UPDATE (profile-dependent); "
         "column swap (DP, D-Swap) approaches the LightGBM parallel-array "
         "write; X-col UPDATE is the worst (compression+WAL)");

  struct ProfileCase {
    jb::EngineProfile profile;
    std::vector<std::string> methods;
  };
  std::vector<ProfileCase> profiles = {
      {jb::EngineProfile::XCol(), {"naive_u", "update", "create"}},
      {jb::EngineProfile::XRow(), {"naive_u", "update", "create"}},
      {jb::EngineProfile::DDisk(), {"naive_u", "update", "create"}},
      {jb::EngineProfile::DMem(), {"naive_u", "update", "create"}},
      {jb::EngineProfile::DP(), {"swap"}},
      {jb::EngineProfile::DSwap(), {"swap"}},
  };

  // One case per printed row; the last is the LightGBM reference.
  struct Case {
    std::string label;
    std::function<double()> run;
  };
  std::vector<Case> cases;
  auto add = [&](const jb::EngineProfile& profile, const std::string& label,
                 const std::string& method, int k) {
    cases.push_back({profile.name + " " + label, [=] {
                       return MeasureUpdate(profile, method, k, rows);
                     }});
  };
  for (const auto& pc : profiles) {
    for (const auto& method : pc.methods) {
      if (method == "create") {
        for (int k : {0, 5, 10}) {
          add(pc.profile, "CREATE-" + std::to_string(k), method, k);
        }
      } else {
        std::string label = method == "naive_u" ? "Naive"
                            : method == "update" ? "UPDATE"
                                                 : "Col Swap";
        add(pc.profile, label, method, 0);
      }
    }
  }
  cases.push_back(
      {"LightGBM (red line)", [=] { return MeasureDenseUpdate(rows); }});

  auto samples = jb::bench::RepeatInterleaved(
      cases.size(), [&](size_t i) { return cases[i].run(); });
  for (size_t i = 0; i < cases.size(); ++i) {
    std::printf("  %-40s %s s\n", cases[i].label.c_str(),
                jb::bench::MedianRange(samples[i]).c_str());
  }
  Note("median [min–max] of " + std::to_string(jb::bench::kRepeats) +
       " interleaved repeats");
  return 0;
}
