// Figure 15: train vs residual-update time for one boosting iteration on
// Favorita across engine profiles, including the simulated X-Swap*.
#include <array>

#include "bench_util.h"
#include "data/generators.h"
#include "joinboost.h"
#include "util/timer.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;

int main() {
  Header("Figure 15: per-DBMS train and residual-update breakdown (1 tree)",
         "columnar profiles train fast, row store ~4x slower; updates "
         "dominate on baseline DBMSes; DP cuts updates ~15x but slows "
         "training (interop); D-Swap is fastest overall; X-Swap* shows the "
         "commercial engine would benefit similarly");

  jb::data::FavoritaConfig config;
  config.sales_rows = jb::bench::ScaledRows(80000);

  struct Case {
    jb::EngineProfile profile;
    std::string strategy;
  };
  std::vector<Case> cases = {
      {jb::EngineProfile::XCol(), "create"},
      {jb::EngineProfile::XRow(), "create"},
      {jb::EngineProfile::XSwapStar(), "swap"},
      {jb::EngineProfile::DDisk(), "create"},
      {jb::EngineProfile::DMem(), "update"},
      {jb::EngineProfile::DP(), "swap"},
      {jb::EngineProfile::DSwap(), "swap"},
  };

  // One sample = (train, update, total) seconds of one case.
  auto samples = jb::bench::RepeatInterleaved(cases.size(), [&](size_t i) {
    const Case& c = cases[i];
    jb::exec::Database db(c.profile);
    jb::Dataset ds = jb::data::MakeFavorita(&db, config);
    // DP stores the fact table as a dataframe: re-register it uncompressed.
    if (c.profile.dataframe_interop) {
      auto fact = db.catalog().Get("sales");
      fact->DecodeAll();
      fact->set_dataframe(true);
    }
    jb::core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = 1;
    params.num_leaves = 8;
    params.update_strategy = c.strategy;

    jb::Timer t;
    jb::TrainResult res = jb::Train(params, ds);
    double total = t.Seconds();
    return std::array<double, 3>{total - res.update_seconds,
                                 res.update_seconds, total};
  });

  // MedianRange's en dash takes 3 bytes for 1 column, hence 20 vs 22.
  std::printf("  %-10s %-20s %-20s %-20s\n", "profile", "train(s)",
              "update(s)", "total(s)");
  for (size_t i = 0; i < cases.size(); ++i) {
    std::printf("  %-10s", cases[i].profile.name.c_str());
    for (size_t part = 0; part < 3; ++part) {
      std::vector<double> xs;
      for (const auto& sample : samples[i]) xs.push_back(sample[part]);
      std::printf(" %-22s", jb::bench::MedianRange(xs).c_str());
    }
    std::printf("\n");
  }
  Note("median [min–max] of " + std::to_string(jb::bench::kRepeats) +
       " interleaved repeats");
  Note("X-Swap* = X-col with the simulated column swap of §5.4");
  return 0;
}
