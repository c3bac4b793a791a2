// Figure 9: query mix of the first gradient-boosting iteration — number of
// feature-split vs message-passing queries, and the latency histogram.
// Extended with a planner on/off pass: per-phase timings plus the planner's
// scan/decompression deltas are written to BENCH_PR2.json (CI artifact).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "joinboost.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;

namespace {

struct Pass {
  jb::TrainResult train;
  jb::plan::PlanStats stats;
  std::vector<jb::exec::Database::QueryLogEntry> log;
  size_t features = 0;
  size_t feature_relations = 0;
  /// Message statements whose FROM is the lifted fact: each queried node's
  /// one shared scan, plus each tree's total.
  size_t fact_message_scans = 0;
};

Pass RunPass(bool use_planner) {
  jb::EngineProfile profile = jb::EngineProfile::DSwap();
  profile.use_planner = use_planner;
  jb::exec::Database db(profile);
  jb::data::FavoritaConfig config;
  config.sales_rows = jb::bench::ScaledRows(100000);
  jb::Dataset ds = jb::data::MakeFavorita(&db, config);

  jb::core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 1;
  params.num_leaves = 8;
  db.ClearQueryLog();
  db.ClearPlanStats();
  Pass pass;
  pass.train = jb::Train(params, ds);
  pass.stats = db.PlanStatsTotals();
  pass.log = db.QueryLog();
  pass.features = ds.graph().AllFeatures().size();
  std::set<int> rels;
  for (const auto& f : ds.graph().AllFeatures()) {
    rels.insert(ds.graph().RelationOfFeature(f));
  }
  pass.feature_relations = rels.size();
  const std::regex fact_scan("FROM jb[0-9]+_lift_sales( |$)");
  for (const auto& e : pass.log) {
    if (e.tag == "message" && std::regex_search(e.sql, fact_scan)) {
      ++pass.fact_message_scans;
    }
  }
  return pass;
}

void EmitPass(std::FILE* f, const char* name, const Pass& p, bool last) {
  const jb::plan::PlanStats& s = p.stats;
  std::fprintf(
      f,
      "  \"%s\": {\n"
      "    \"seconds\": %.4f,\n"
      "    \"message_seconds\": %.4f,\n"
      "    \"feature_seconds\": %.4f,\n"
      "    \"update_seconds\": %.4f,\n"
      "    \"message_queries\": %zu,\n"
      "    \"fact_message_scans\": %zu,\n"
      "    \"feature_queries\": %zu,\n"
      "    \"queries_planned\": %zu,\n"
      "    \"rows_scan_input\": %zu,\n"
      "    \"rows_scan_output\": %zu,\n"
      "    \"cols_scanned\": %zu,\n"
      "    \"cols_pruned\": %zu,\n"
      "    \"cols_decompressed\": %zu,\n"
      "    \"cells_decompressed\": %zu,\n"
      "    \"predicates_pushed\": %zu,\n"
      "    \"joins_reordered\": %zu\n"
      "  }%s\n",
      name, p.train.seconds, p.train.message_seconds, p.train.feature_seconds,
      p.train.update_seconds, p.train.message_queries, p.fact_message_scans,
      p.train.feature_queries,
      s.queries_planned, s.rows_scan_input, s.rows_scan_output, s.cols_scanned,
      s.cols_pruned, s.cols_decompressed, s.cells_decompressed,
      s.predicates_pushed, s.joins_reordered, last ? "" : ",");
}

double Reduction(size_t off, size_t on) {
  if (off == 0) return 0.0;
  return 1.0 - static_cast<double>(on) / static_cast<double>(off);
}

void WriteJson(const Pass& on, const Pass& off, size_t sales_rows) {
  const char* path = std::getenv("JB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_PR2.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("  -- could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig09_query_breakdown\",\n"
               "  \"scale\": %.3f,\n"
               "  \"sales_rows\": %zu,\n",
               jb::bench::Scale(), sales_rows);
  EmitPass(f, "planner_on", on, /*last=*/false);
  EmitPass(f, "planner_off", off, /*last=*/false);
  std::fprintf(
      f,
      "  \"delta\": {\n"
      "    \"rows_scanned_reduction\": %.4f,\n"
      "    \"cols_decompressed_reduction\": %.4f,\n"
      "    \"cells_decompressed_reduction\": %.4f,\n"
      "    \"speedup\": %.3f\n"
      "  }\n"
      "}\n",
      Reduction(off.stats.rows_scan_output, on.stats.rows_scan_output),
      Reduction(off.stats.cols_decompressed, on.stats.cols_decompressed),
      Reduction(off.stats.cells_decompressed, on.stats.cells_decompressed),
      on.train.seconds > 0 ? off.train.seconds / on.train.seconds : 0.0);
  std::fclose(f);
  std::printf("  -- wrote %s\n", path);
}

}  // namespace

int main() {
  Header("Figure 9: 1st-iteration query breakdown",
         "num_nodes x num_features split queries (fast, <10ms-class) plus a "
         "few message queries; the slowest queries are messages from the "
         "fact table");

  size_t sales_rows = jb::bench::ScaledRows(100000);
  Pass on = RunPass(/*use_planner=*/true);

  std::printf("  (a) query counts: feature=%zu message=%zu (fact scans %zu)\n",
              on.train.feature_queries, on.train.message_queries,
              on.fact_message_scans);
  // The paper queries each of the 15 nodes once per feature. Here a queried
  // node issues one statement per relation carrying features, and only the
  // root and the smaller child of each of the first six splits are queried:
  // each larger child's histograms are its parent's minus its sibling's, and
  // the seventh split's children are never evaluated.
  Note("paper's rule: 15 nodes x " + std::to_string(on.features) +
       " features = " + std::to_string(15 * on.features) +
       "; expected here: (1 root + 6 smaller children) x " +
       std::to_string(on.feature_relations) + " feature relations = " +
       std::to_string(7 * on.feature_relations));

  // Latency histogram, split by tag.
  std::vector<double> feature_ms, message_ms;
  for (const auto& e : on.log) {
    if (e.tag == "feature") feature_ms.push_back(e.ms);
    if (e.tag == "message") message_ms.push_back(e.ms);
  }
  auto histo = [](const std::string& label, std::vector<double> ms) {
    if (ms.empty()) return;
    std::sort(ms.begin(), ms.end());
    std::printf("  (b) %s latency ms: p50=%.2f p90=%.2f max=%.2f\n",
                label.c_str(), ms[ms.size() / 2], ms[ms.size() * 9 / 10],
                ms.back());
    // Buckets (log2 ms).
    std::vector<int> buckets(12, 0);
    for (double m : ms) {
      int b = m <= 1 ? 0 : std::min(11, 1 + static_cast<int>(std::log2(m)));
      ++buckets[static_cast<size_t>(b)];
    }
    std::printf("      histogram(<=1ms,2,4,8,...):");
    for (int b : buckets) std::printf(" %d", b);
    std::printf("\n");
  };
  histo("feature-split", feature_ms);
  histo("message", message_ms);

  double fmax = feature_ms.empty()
                    ? 0
                    : *std::max_element(feature_ms.begin(), feature_ms.end());
  double mmax = message_ms.empty()
                    ? 0
                    : *std::max_element(message_ms.begin(), message_ms.end());
  Note(std::string("slowest message vs slowest split query: ") +
       std::to_string(mmax) + "ms vs " + std::to_string(fmax) + "ms");

  // (c) planner on/off: same workload, raw-AST execution.
  Pass off = RunPass(/*use_planner=*/false);
  std::printf("  (c) planner delta (on vs off):\n");
  std::printf("      train seconds       %8.3f vs %8.3f\n", on.train.seconds,
              off.train.seconds);
  std::printf("      rows out of scans   %8zu vs %8zu (-%.1f%%)\n",
              on.stats.rows_scan_output, off.stats.rows_scan_output,
              100 * Reduction(off.stats.rows_scan_output,
                              on.stats.rows_scan_output));
  std::printf("      cols decompressed   %8zu vs %8zu (-%.1f%%)\n",
              on.stats.cols_decompressed, off.stats.cols_decompressed,
              100 * Reduction(off.stats.cols_decompressed,
                              on.stats.cols_decompressed));
  std::printf("      cells decompressed  %8zu vs %8zu (-%.1f%%)\n",
              on.stats.cells_decompressed, off.stats.cells_decompressed,
              100 * Reduction(off.stats.cells_decompressed,
                              on.stats.cells_decompressed));
  Note("planner rules fired: pushed=" +
       std::to_string(on.stats.predicates_pushed) +
       " folded=" + std::to_string(on.stats.constants_folded) +
       " reordered=" + std::to_string(on.stats.joins_reordered));

  WriteJson(on, off, sales_rows);
  return 0;
}
