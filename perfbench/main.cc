// The repo benchmark binary. One invocation runs one workload:
//
//   ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--trace-file <path>] [--commit <id>]
//
// --trace 0 prints every end-to-end metric (median over the run's samples,
// warm-up discarded). --trace 1 runs an untraced pass for half the budget,
// then a traced pass for the other half, prints both passes' end-to-end
// medians side by side (the tracing overhead), writes the traced pass's
// spans as Chrome trace-event JSON, and prints every per-layer metric.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any operation failed or a gate did.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "ledger.h"

namespace {

using ledger::Report;

// The metric names BENCHMARK.json declares; perfbench/run.py checks that
// the printed JSON carries exactly these.
const char* const kEndToEnd[] = {"setup_s",   "train_s",    "train_cpu_s",
                                 "peak_rss_mb", "query_ms", "predict_ms",
                                 "append_ms"};

const char* const kPerLayer[] = {
    "core.self_s", "core.statements", "core.message_s", "core.split_s",
    "core.update_s", "core.prepare_s", "core.message_stmts",
    "core.split_stmts", "core.update_stmts", "core.flat_forest_ms",
    "sql.parse_ms", "sql.bytes", "plan.queries", "plan.cache_hits",
    "plan.cache_misses", "plan.cache_hit_ratio", "plan.joins_reordered_dp",
    "factor.cache_hits", "factor.cache_misses", "factor.cache_hit_ratio",
    "exec.rows_scanned", "exec.cells_decoded", "exec.decode_avoided_ratio",
    "exec.blocks_skipped", "exec.hash_probes", "exec.hash_chain_follows",
    "exec.hash_bytes", "exec.morsels", "exec.helper_share",
    "exec.cpu_per_wall", "exec.parallel_speedup", "exec.train_default_s",
    "exec.train_default_cpu_s", "exec.train_1t_s", "exec.query_ms",
    "storage.chunks_created", "storage.chunks_rewritten",
    "storage.append_rows_ms", "serve.publish_ms", "serve.open_session_us",
    "serve.query_overhead_ms", "serve.predict_overhead_ms",
    "serve.admission_waits", "serve.admission_rejected",
    "serve.snapshots_published", "serve.snapshot_reads", "serve.query_p99_ms",
    "serve.predict_p99_ms", "serve.append_p99_ms", "serve.rps",
    "baselines.materialize_s", "baselines.train_s", "baselines.gap_x"};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>] "
               "[--commit <id>]\nworkloads:",
               why);
  for (const auto& n : ledger::WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

ledger::Options ParseArgs(int argc, char** argv) {
  ledger::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--trace-file") {
      o.trace_path = v;
    } else if (flag == "--commit") {
      o.commit = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return o;
}

/// metric  median  unit  n=samples  [p25, p75], then the samples in run
/// order when there are few (drift within a run shows there).
void PrintSeries(const Report& r, const std::string& name,
                 const char* prefix) {
  const ledger::Series& s = r.series(name);
  std::printf("%s%-26s %14.6g %-6s n=%-5zu [p25 %.6g, p75 %.6g]\n", prefix,
              name.c_str(), ledger::Median(s.samples), s.unit.c_str(),
              s.samples.size(), ledger::Quantile(s.samples, 0.25),
              ledger::Quantile(s.samples, 0.75));
  if (s.samples.size() < 2 || s.samples.size() > 16) return;
  std::printf("%s  in run order:", prefix);
  for (double v : s.samples) std::printf(" %.4g", v);
  std::printf("\n");
}

void PrintRecord(const Report& r) {
  for (const auto& n : r.notes) std::printf("  %s\n", n.c_str());
  for (const auto& f : r.failures()) std::printf("  FAILED: %s\n", f.c_str());
}

/// Full-precision JSON number (never NaN/Inf: those print as null).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options opts = ParseArgs(argc, argv);
  bool known = false;
  for (const auto& n : ledger::WorkloadNames()) known |= n == opts.workload;
  if (!known) Usage(("unknown workload " + opts.workload).c_str());

  std::printf("ledger run record\n");
  std::printf("  workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("  nproc=%u commit=%s\n", std::thread::hardware_concurrency(),
              opts.commit.empty() ? "unknown" : opts.commit.c_str());
  std::fflush(stdout);

  // End-to-end metrics always come from an untraced pass.
  Report untraced;
  ledger::Tracer off(false);
  ledger::Options pass = opts;
  if (opts.trace) pass.seconds = opts.seconds / 2;
  ledger::RunWorkload(pass, &off, &untraced);
  std::printf("untraced pass\n");
  PrintRecord(untraced);

  Report traced;
  ledger::Tracer on(true);
  if (opts.trace) {
    ledger::RunWorkload(pass, &on, &traced);
    std::printf("traced pass\n");
    PrintRecord(traced);
  }

  bool complete = true;
  std::string metrics;
  auto emit = [&](const Report& r, const std::string& name) {
    const ledger::Series& s = r.series(name);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " +
               Num(ledger::Median(s.samples)) + ", \"unit\": \"" + s.unit +
               "\"}";
  };

  std::printf("end-to-end (median over samples; warm-up discarded)\n");
  for (const char* name : kEndToEnd) {
    if (!untraced.Has(name)) {
      std::printf("  MISSING %s\n", name);
      complete = false;
      continue;
    }
    PrintSeries(untraced, name, "  ");
    if (opts.trace && traced.Has(name)) {
      const double u = untraced.Median(name), t = traced.Median(name);
      PrintSeries(traced, name, "    traced ");
      std::printf("    tracing overhead %+.2f%%\n", (t / u - 1) * 100);
    }
    if (!opts.trace) emit(untraced, name);
  }

  if (opts.trace) {
    // Closed-loop distributions come from the untraced pass (the traced
    // pass adds a direct engine call per request); everything else from
    // the traced pass.
    std::printf(
        "per-layer (det = repeats exactly for the seed, timing = depends on "
        "speed or thread interleaving)\n");
    for (const char* name : kPerLayer) {
      const Report* r = traced.Has(name)     ? &traced
                        : untraced.Has(name) ? &untraced
                                             : nullptr;
      if (r == nullptr) {
        std::printf("  MISSING %s\n", name);
        complete = false;
        continue;
      }
      auto cls = r->classes().find(name);
      bool timing = cls != r->classes().end() &&
                    cls->second == ledger::CounterClass::kTiming;
      const ledger::Series& s = r->series(name);
      std::printf("  %-7s%-28s %14.6g %s\n", timing ? "timing" : "det",
                  name, ledger::Median(s.samples), s.unit.c_str());
      emit(*r, name);
    }
    if (!opts.trace_path.empty()) {
      if (on.WriteChromeJson(opts.trace_path)) {
        std::printf("  trace: %zu spans written to %s\n", on.spans().size(),
                    opts.trace_path.c_str());
      } else {
        std::printf("  could not write trace file %s\n",
                    opts.trace_path.c_str());
        complete = false;
      }
    }
  }

  const uint64_t attempted = untraced.attempted() + traced.attempted();
  const uint64_t failed = untraced.failed() + traced.failed();
  const bool correct = failed == 0 && complete;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
