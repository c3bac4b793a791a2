// The ledger's workloads. Every workload runs rounds of the same shape: a
// train on a freshly loaded database, then the serving mix against the model
// it trained, so every workload reports every end-to-end metric and loads
// admission, snapshots, the flat forest and storage appends. They differ in
// where the train's load falls (README.md has the full table):
//   tpcds_tiny     ~2.5k tiny statements per train: SQL generation, parse,
//                  planning and per-statement engine work (query-bound).
//   favorita_300k  ~360 statements over 300k fact rows: decode, hash joins,
//                  GROUPING SETS histograms, residual updates (row-bound).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>

#include "baselines/dense_dataset.h"
#include "baselines/histogram_gbdt.h"
#include "core/evaluate.h"
#include "data/generators.h"
#include "joinboost.h"
#include "ledger.h"
#include "sql/parser.h"
#include "util/rng.h"

namespace ledger {
namespace {

namespace jb = joinboost;

enum class Schema { kTpcds, kFavorita };

/// The serve query: a date-range aggregate over the fact joined to one
/// dimension. Literals vary per request; the shape never does.
struct QueryShape {
  const char* fact;
  const char* date_col;
  const char* dim;
  const char* key_col;
  const char* dim_value;
  const char* fact_y;
};

struct WorkloadDef {
  const char* name;
  Schema schema;
  size_t fact_rows;
  int iterations;
  /// exec_threads of the measured trains. favorita_300k runs at 2: on a
  /// shared 4-vCPU VM a 1-thread train slows with whichever core it runs
  /// on, wall and CPU seconds alike, and at the default 4 the wall time
  /// swung up to 2x (README.md).
  int train_threads;
};

constexpr int kLeaves = 8;
constexpr int kTpcdsFeatures = 15;
constexpr int kDefaultThreads = 4;  // EngineProfile::exec_threads default
constexpr int kMinSamples = 3;

// The serving mix, the same on every workload: two reader clients on a
// database served at exec_threads=2 (two callers plus two pool workers stay
// within 4 vCPUs), an 8192-row prediction batch, and a writer that appends
// 500 fact rows after every 50 completed queries.
constexpr int kServeThreads = 2;
constexpr size_t kBatchRows = 8192;
constexpr uint64_t kAppendEvery = 50;
constexpr size_t kAppendRows = 500;
/// Queries served after each train: five appends, so the 3,000-row
/// tpcds_tiny fact stays below parallel_threshold_rows.
constexpr uint64_t kStretchQueries = 5 * kAppendEvery;

const WorkloadDef kWorkloads[] = {
    {"tpcds_tiny", Schema::kTpcds, 3000, 15, kDefaultThreads},
    {"favorita_300k", Schema::kFavorita, 300000, 2, 2},
};

QueryShape ShapeOf(Schema s) {
  if (s == Schema::kTpcds) {
    return {"store_sales", "date_sk", "item", "item_sk", "sig_item",
            "net_profit"};
  }
  return {"sales", "date_id", "items", "item_id", "f_item", "unit_sales"};
}

std::vector<std::string> BaseTables(Schema s) {
  if (s == Schema::kTpcds) {
    return {"store_sales", "date_dim", "store", "item", "customer",
            "household"};
  }
  return {"sales", "items", "stores", "dates", "oil", "transactions"};
}

jb::Dataset MakeData(const WorkloadDef& w, uint64_t seed,
                     jb::exec::Database* db) {
  if (w.schema == Schema::kTpcds) {
    jb::data::TpcdsConfig c;
    c.scale_factor = 1.0;
    c.base_fact_rows = w.fact_rows;
    c.num_features = kTpcdsFeatures;
    c.seed = seed;
    return jb::data::MakeTpcds(db, c);
  }
  jb::data::FavoritaConfig c;
  c.sales_rows = w.fact_rows;
  c.seed = seed;
  return jb::data::MakeFavorita(db, c);
}

jb::core::TrainParams Params(const WorkloadDef& w) {
  jb::core::TrainParams p;
  p.boosting = "gbdt";
  p.num_iterations = w.iterations;
  p.num_leaves = kLeaves;
  return p;
}

jb::EngineProfile Profile(int exec_threads) {
  jb::EngineProfile profile = jb::EngineProfile::DSwap();
  profile.exec_threads = exec_threads;
  return profile;
}

// ---------------------------------------------------------------- trains

/// A freshly generated, identically seeded database and the train on it.
struct Trained {
  std::unique_ptr<jb::exec::Database> db;
  std::unique_ptr<jb::Dataset> ds;
  jb::TrainResult result;
  double setup_s = 0;  ///< generate + LoadTable (compression included)
  double train_s = 0;
  double train_cpu_s = 0;
};

Trained GenerateAndTrain(const WorkloadDef& w, uint64_t seed, int threads,
                         Tracer* tracer) {
  Trained t;
  const uint64_t flow = tracer->NewFlow();
  t.db = std::make_unique<jb::exec::Database>(Profile(threads));
  Tracer::Scope setup(tracer, "data", "MakeTables+LoadTable", flow);
  t.ds = std::make_unique<jb::Dataset>(MakeData(w, seed, t.db.get()));
  t.setup_s = setup.Stop();

  const double cpu0 = CpuSeconds();
  Tracer::Scope train(tracer, "core", "Train", flow);
  t.result = jb::Train(Params(w), *t.ds);
  t.train_s = train.Stop();
  t.train_cpu_s = CpuSeconds() - cpu0;
  return t;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// "" when the two models are bit-identical, else the first difference.
std::string ModelDiff(const jb::core::Ensemble& a,
                      const jb::core::Ensemble& b) {
  if (!SameBits(a.base_score, b.base_score) || a.average != b.average ||
      a.trees.size() != b.trees.size()) {
    return "ensemble header differs";
  }
  for (size_t t = 0; t < a.trees.size(); ++t) {
    const auto& na = a.trees[t].nodes;
    const auto& nb = b.trees[t].nodes;
    if (na.size() != nb.size()) return "tree " + std::to_string(t) + " size";
    for (size_t i = 0; i < na.size(); ++i) {
      const jb::core::TreeNode& x = na[i];
      const jb::core::TreeNode& y = nb[i];
      bool same = x.is_leaf == y.is_leaf && x.feature == y.feature &&
                  x.relation == y.relation && x.categorical == y.categorical &&
                  SameBits(x.threshold, y.threshold) &&
                  x.category == y.category &&
                  x.category_str == y.category_str &&
                  SameBits(x.gain, y.gain) && x.left == y.left &&
                  x.right == y.right && SameBits(x.prediction, y.prediction) &&
                  SameBits(x.count, y.count) && SameBits(x.sum, y.sum);
      if (!same) {
        return "tree " + std::to_string(t) + " node " + std::to_string(i);
      }
    }
  }
  return "";
}

/// Statement bytes with the process-wide session prefix jb<N>_ folded to
/// jb_, so the count repeats across the trains of one process.
size_t CanonicalSqlBytes(const std::string& sql) {
  size_t bytes = sql.size();
  for (size_t p = sql.find("jb"); p != std::string::npos;
       p = sql.find("jb", p + 2)) {
    size_t q = p + 2;
    while (q < sql.size() && sql[q] >= '0' && sql[q] <= '9') ++q;
    if (q > p + 2 && q < sql.size() && sql[q] == '_') bytes -= q - (p + 2);
  }
  return bytes;
}

/// Counters that must repeat exactly for a seed (checked across the
/// identically seeded trains of a pass).
std::vector<std::pair<const char*, uint64_t>> RepeatCounters(
    const Trained& t) {
  size_t bytes = 0;
  const auto log = t.db->QueryLog();
  for (const auto& e : log) bytes += CanonicalSqlBytes(e.sql);
  const jb::plan::PlanStats& s = t.result.plan_stats;
  return {{"statements", log.size()},
          {"sql_bytes", bytes},
          {"plan_cache_hits", s.plan_cache_hits},
          {"plan_cache_misses", s.plan_cache_misses},
          {"message_cache_hits", t.result.cache_hits},
          {"message_cache_misses", t.result.cache_misses},
          {"rows_scanned", s.rows_scan_input},
          {"cells_decoded", s.cells_decompressed},
          {"hash_probes", s.hash_probes},
          {"hash_chain_follows", s.hash_chain_follows},
          {"hash_bytes", s.hash_bytes},
          {"chunks_created", s.chunks_created},
          {"chunks_rewritten", s.chunks_rewritten}};
}

std::string CounterDigest(
    const std::vector<std::pair<const char*, uint64_t>>& counters) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the values
  for (const auto& c : counters) {
    for (int b = 0; b < 8; ++b) {
      h ^= (c.second >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer figures of one traced train: the trainer's own time, the
/// query log split by tag, the parse replay and the message cache.
void TrainLayers(const Trained& t, Tracer* tracer, Report* r) {
  const auto log = t.db->QueryLog();
  double logged_ms = 0, message_ms = 0, split_ms = 0, update_ms = 0;
  size_t message_n = 0, split_n = 0, update_n = 0, bytes = 0;
  for (const auto& e : log) {
    logged_ms += e.ms;
    bytes += CanonicalSqlBytes(e.sql);
    if (e.tag == "message") {
      message_ms += e.ms;
      ++message_n;
    } else if (e.tag == "feature") {
      split_ms += e.ms;
      ++split_n;
    } else if (e.tag == "update") {
      update_ms += e.ms;
      ++update_n;
    }
  }
  const double prepare_ms = logged_ms - message_ms - split_ms - update_ms;
  const auto timing = CounterClass::kTiming;
  r->Layer("core.self_s", "s", t.train_s - logged_ms / 1e3, timing);
  r->Layer("core.statements", "count", static_cast<double>(log.size()));
  r->Layer("core.message_s", "s", message_ms / 1e3, timing);
  r->Layer("core.split_s", "s", split_ms / 1e3, timing);
  r->Layer("core.update_s", "s", update_ms / 1e3, timing);
  r->Layer("core.prepare_s", "s", prepare_ms / 1e3, timing);
  r->Layer("core.message_stmts", "count", static_cast<double>(message_n));
  r->Layer("core.split_stmts", "count", static_cast<double>(split_n));
  r->Layer("core.update_stmts", "count", static_cast<double>(update_n));

  Tracer::Scope parse(tracer, "sql", "sql::Parse replay", tracer->NewFlow());
  for (const auto& e : log) jb::sql::Parse(e.sql);
  r->Layer("sql.parse_ms", "ms", parse.Stop() * 1e3, timing);
  r->Layer("sql.bytes", "bytes", static_cast<double>(bytes));

  const double hits = static_cast<double>(t.result.cache_hits);
  const double misses = static_cast<double>(t.result.cache_misses);
  r->Layer("factor.cache_hits", "count", hits);
  r->Layer("factor.cache_misses", "count", misses);
  r->Layer("factor.cache_hit_ratio", "ratio", Ratio(hits, hits + misses));
}

/// Planner, executor and storage counters of one train (deterministic for
/// its seed).
void EngineLayers(const jb::plan::PlanStats& s, Report* r) {
  auto d = [](size_t v) { return static_cast<double>(v); };
  const auto cls = CounterClass::kDeterministic;
  r->Layer("plan.queries", "count", d(s.queries_planned), cls);
  r->Layer("plan.cache_hits", "count", d(s.plan_cache_hits), cls);
  r->Layer("plan.cache_misses", "count", d(s.plan_cache_misses), cls);
  r->Layer("plan.cache_hit_ratio", "ratio",
           Ratio(d(s.plan_cache_hits),
                 d(s.plan_cache_hits + s.plan_cache_misses)),
           cls);
  r->Layer("plan.joins_reordered_dp", "count", d(s.joins_reordered_dp), cls);
  r->Layer("exec.rows_scanned", "count", d(s.rows_scan_input), cls);
  r->Layer("exec.cells_decoded", "count", d(s.cells_decompressed), cls);
  r->Layer("exec.decode_avoided_ratio", "ratio",
           Ratio(d(s.cells_decompress_avoided),
                 d(s.cells_decompress_avoided + s.cells_decompressed)),
           cls);
  r->Layer("exec.blocks_skipped", "count", d(s.blocks_skipped), cls);
  r->Layer("exec.hash_probes", "count", d(s.hash_probes), cls);
  r->Layer("exec.hash_chain_follows", "count", d(s.hash_chain_follows), cls);
  r->Layer("exec.hash_bytes", "bytes", d(s.hash_bytes), cls);
  r->Layer("storage.chunks_created", "count", d(s.chunks_created), cls);
  r->Layer("storage.chunks_rewritten", "count", d(s.chunks_rewritten), cls);
}

/// The trains of a pass: each sample's model must match the first bit for
/// bit, and its repeat counters must match the first exactly.
class TrainChecker {
 public:
  explicit TrainChecker(Report* r) : r_(r) {}

  void Check(const Trained& t, const char* what) {
    auto counters = RepeatCounters(t);
    if (!first_) {
      first_model_ = t.result.model;
      first_counters_ = counters;
      first_ = true;
      r_->notes.push_back("repeat_counters_digest=" +
                          CounterDigest(counters));
      return;
    }
    std::string diff = ModelDiff(first_model_, t.result.model);
    if (!diff.empty()) {
      r_->Fail(std::string(what) + " model differs from the first (" + diff +
               ")");
      return;
    }
    for (size_t i = 0; i < counters.size(); ++i) {
      if (counters[i].second != first_counters_[i].second) {
        r_->Fail(std::string(what) + " counter " + counters[i].first + " = " +
                 std::to_string(counters[i].second) + ", first train had " +
                 std::to_string(first_counters_[i].second));
        return;
      }
    }
  }

  bool has_model() const { return first_; }
  const jb::core::Ensemble& first_model() const { return first_model_; }

 private:
  Report* r_;
  bool first_ = false;
  jb::core::Ensemble first_model_;
  std::vector<std::pair<const char*, uint64_t>> first_counters_;
};

/// Runs after the pass's last sample and its peak_rss_mb reading, on freshly
/// loaded tables, so its dense copies of the join never set that peak: the
/// fig11 comparison (traced pass) and the RMSE gate, which requires the
/// model's RMSE on the materialized join to equal exact-mode HistogramGbdt's
/// (bins cover every distinct value) within 1e-6 relative.
void BaselinesAndRmseGate(const WorkloadDef& w, uint64_t seed,
                          const jb::core::Ensemble& model, double train_s,
                          Tracer* tracer, Report* r) {
  r->Attempt();
  try {
    jb::exec::Database db(Profile(w.train_threads));
    jb::Dataset ds = MakeData(w, seed, &db);
    const jb::core::JoinedEval eval = jb::core::MaterializeJoin(ds);
    const uint64_t flow = tracer->NewFlow();
    Tracer::Scope mat(tracer, "baselines", "MaterializeExportLoad", flow);
    jb::baselines::DenseDataset dense =
        jb::baselines::MaterializeExportLoad(ds, nullptr);
    const double materialize_s = mat.Stop();
    if (tracer->enabled()) {
      Tracer::Scope train(tracer, "baselines", "HistogramGbdt::Train", flow);
      jb::baselines::HistogramGbdt(Params(w), &db.pool()).Train(dense);
      const double base_train_s = train.Stop();
      const auto timing = CounterClass::kTiming;
      r->Layer("baselines.materialize_s", "s", materialize_s, timing);
      r->Layer("baselines.train_s", "s", base_train_s, timing);
      r->Layer("baselines.gap_x", "x",
               Ratio(train_s, materialize_s + base_train_s), timing);
    }
    jb::core::TrainParams exact = Params(w);
    exact.max_bin = 1 << 20;
    jb::core::Ensemble reference =
        jb::baselines::HistogramGbdt(exact, &db.pool()).Train(dense);
    const double got = eval.Rmse(model);
    const double want = eval.Rmse(reference);
    const double rel =
        std::fabs(got - want) / std::max(std::fabs(want), 1e-300);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "rmse=%.17g exact_histogram_rmse=%.17g rel=%.3g", got, want,
                  rel);
    r->notes.push_back(buf);
    if (!(rel <= 1e-6)) r->Fail(std::string("RMSE gate: ") + buf);
  } catch (const std::exception& e) {
    r->Fail(std::string("RMSE gate threw: ") + e.what());
  }
}

/// Traced pass only: trains at 1 thread and at the default budget (those the
/// workload does not already train at), each gated bit-equal to the
/// workload's model, for exec.parallel_speedup and the parallel figures.
void ThreadBudgetTrains(const WorkloadDef& w, uint64_t seed,
                        const Trained& measured, Tracer* tracer, Report* r) {
  std::map<int, std::unique_ptr<Trained>> alts;
  for (int threads : {1, kDefaultThreads}) {
    if (threads == w.train_threads) continue;
    r->Attempt();
    try {
      auto alt = std::make_unique<Trained>(
          GenerateAndTrain(w, seed, threads, tracer));
      std::string diff = ModelDiff(measured.result.model, alt->result.model);
      if (!diff.empty()) {
        r->Fail("train at " + std::to_string(threads) +
                " threads differs from the workload's model (" + diff + ")");
      }
      alt->ds.reset();  // only the timings and counters are kept
      alt->db.reset();
      alts[threads] = std::move(alt);
    } catch (const std::exception& e) {
      r->Fail("train at " + std::to_string(threads) + " threads threw: " +
              e.what());
      return;
    }
  }
  auto at = [&](int threads) -> const Trained& {
    return threads == w.train_threads ? measured : *alts.at(threads);
  };
  const Trained& one = at(1);
  const Trained& dflt = at(kDefaultThreads);
  // The parallel figures describe the train at the default budget.
  const jb::plan::PlanStats& ps = dflt.result.plan_stats;
  const auto t = CounterClass::kTiming;
  r->Layer("exec.morsels", "count",
           static_cast<double>(ps.morsels_dispatched));
  r->Layer("exec.helper_share", "ratio",
           Ratio(static_cast<double>(ps.morsels_stolen),
                 static_cast<double>(ps.morsels_dispatched)),
           t);
  r->Layer("exec.cpu_per_wall", "ratio", Ratio(dflt.train_cpu_s, dflt.train_s),
           t);
  r->Layer("exec.train_default_s", "s", dflt.train_s, t);
  r->Layer("exec.train_default_cpu_s", "s", dflt.train_cpu_s, t);
  r->Layer("exec.train_1t_s", "s", one.train_s, t);
  r->Layer("exec.parallel_speedup", "x", Ratio(one.train_s, dflt.train_s), t);
}

// ---------------------------------------------------------------- serving

/// The served fact's rows and each dimension key's value, read from an
/// identically seeded copy loaded with compression off: the reference
/// shares the generator and LoadTable with the served tables, but no codec
/// and no decode path.
struct Reference {
  std::vector<jb::Field> fields;
  std::vector<std::vector<int64_t>> ints;  ///< by fact column; int columns
  std::vector<std::vector<double>> dbls;   ///< by fact column; float columns
  size_t rows = 0;
  size_t date = 0, key = 0, y = 0;  ///< fact column indexes
  std::vector<double> dim_value;    ///< by dimension key
  int64_t num_dates = 1;
};

Reference LoadReference(const WorkloadDef& w, uint64_t seed) {
  jb::EngineProfile plain = Profile(1);
  plain.compression = false;
  jb::exec::Database db(plain);
  MakeData(w, seed, &db);
  const QueryShape shape = ShapeOf(w.schema);
  Reference ref;
  jb::TablePtr fact = db.catalog().Get(shape.fact);
  ref.fields = fact->schema().fields();
  ref.rows = fact->num_rows();
  ref.ints.resize(ref.fields.size());
  ref.dbls.resize(ref.fields.size());
  for (size_t c = 0; c < ref.fields.size(); ++c) {
    // Plain* requires an unencoded single-chunk column and throws otherwise.
    if (ref.fields[c].type == jb::TypeId::kFloat64) {
      ref.dbls[c] = *fact->column(c)->PlainDoubles();
    } else {
      ref.ints[c] = *fact->column(c)->PlainInts();
    }
  }
  auto index = [](const jb::TablePtr& t, const char* col) {
    return static_cast<size_t>(t->schema().FieldIndex(col));
  };
  ref.date = index(fact, shape.date_col);
  ref.key = index(fact, shape.key_col);
  ref.y = index(fact, shape.fact_y);

  jb::TablePtr dim = db.catalog().Get(shape.dim);
  const auto& keys = *dim->column(index(dim, shape.key_col))->PlainInts();
  const auto& values =
      *dim->column(index(dim, shape.dim_value))->PlainDoubles();
  const int64_t max_key = *std::max_element(keys.begin(), keys.end());
  ref.dim_value.assign(static_cast<size_t>(max_key) + 1, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    ref.dim_value[static_cast<size_t>(keys[i])] = values[i];
  }
  const auto& dates = ref.ints[ref.date];
  ref.num_dates = *std::max_element(dates.begin(), dates.end()) + 1;
  return ref;
}

/// Per-date sums of the serve query's aggregates over a set of fact rows.
struct DateSums {
  std::vector<double> count, dim_sum, y_sum;
  explicit DateSums(size_t dates)
      : count(dates, 0), dim_sum(dates, 0), y_sum(dates, 0) {}
  void Add(int64_t date, double dim_value, double y) {
    const size_t d = static_cast<size_t>(date);
    count[d] += 1;
    dim_sum[d] += dim_value;
    y_sum[d] += y;
  }
};

struct QueryAnswer {
  uint64_t version = 0;
  int64_t lo = 0, hi = 0;
  double count = 0, dim_sum = 0, y_sum = 0;
};

/// Latencies one client thread observed.
struct ClientLog {
  std::vector<double> query_ms, predict_ms, append_ms;
  // Traced pass only: the layer calls behind each request.
  std::vector<double> open_session_us, exec_query_ms, flat_forest_ms,
      append_rows_ms, publish_ms;
  std::vector<QueryAnswer> answers;

  void Merge(const ClientLog& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&query_ms, o.query_ms);
    cat(&predict_ms, o.predict_ms);
    cat(&append_ms, o.append_ms);
    cat(&open_session_us, o.open_session_us);
    cat(&exec_query_ms, o.exec_query_ms);
    cat(&flat_forest_ms, o.flat_forest_ms);
    cat(&append_rows_ms, o.append_rows_ms);
    cat(&publish_ms, o.publish_ms);
    answers.insert(answers.end(), o.answers.begin(), o.answers.end());
  }
};

/// One served database and the three request kinds issued against it, each
/// checked against the Reference: every appended row is generated here from
/// the reference rows, and query answers are recomputed with plain loops.
class ServeLoad {
 public:
  ServeLoad(Schema schema, uint64_t seed, jb::exec::Database* db,
            const jb::core::Ensemble& model,
            std::shared_ptr<const jb::exec::ExecTable> batch,
            const Reference* ref, Tracer* tracer, Report* report)
      : seed_(seed),
        shape_(ShapeOf(schema)),
        db_(db),
        ctx_(db, BaseTables(schema)),
        batch_(std::move(batch)),
        ref_(ref),
        tracer_(tracer),
        report_(report),
        base_(static_cast<size_t>(ref->num_dates)) {
    for (size_t i = 0; i < ref_->rows; ++i) {
      base_.Add(ref_->ints[ref_->date][i],
                ref_->dim_value[static_cast<size_t>(ref_->ints[ref_->key][i])],
                ref_->dbls[ref_->y][i]);
    }
    ctx_.PublishModel(model);
    expected_ = jb::core::FlatForest::Compile(model).PredictBatch(*batch_);
    appends_at_version_[ctx_.current()->version] = 0;
  }

  jb::serve::ServingContext& ctx() { return ctx_; }

  /// OpenSession + Session::Query; the answer is kept for Verify().
  void Query(uint64_t i, ClientLog* log) {
    jb::Rng rng(jb::SplitMix64(seed_ * 0x100000001B3ULL + i));
    const int64_t width = std::max<int64_t>(1, ref_->num_dates / 4);
    const int64_t lo = rng.NextInt(0, ref_->num_dates - width);
    const int64_t hi = lo + width - 1;
    const std::string sql = QuerySql(lo, hi);
    const uint64_t flow = tracer_->NewFlow();
    report_->Attempt();
    try {
      Tracer::Scope request(tracer_, "serve", "query request", flow);
      Tracer::Scope open(tracer_, "serve", "OpenSession", flow);
      jb::serve::ServingContext::Session session = ctx_.OpenSession();
      const double open_s = open.Stop();
      Tracer::Scope query(tracer_, "serve", "Session::Query", flow);
      auto result = session.Query(sql);
      query.Stop();
      log->query_ms.push_back(request.Stop() * 1e3);
      log->answers.push_back(Answer(session.version(), lo, hi, *result));
      if (!tracer_->enabled()) return;
      log->open_session_us.push_back(open_s * 1e6);
      // The same statement on the session's pinned catalog, without the
      // serving layer (no admission, no guard): what the engine costs.
      Tracer::Scope exec(tracer_, "exec", "Database::Query", flow);
      jb::exec::ReadContext rctx;
      rctx.catalog = &session.snapshot().tables;
      rctx.tag = "ledger";
      auto direct = db_->Query(rctx, sql);
      log->exec_query_ms.push_back(exec.Stop() * 1e3);
      report_->Attempt();
      log->answers.push_back(Answer(session.version(), lo, hi, *direct));
    } catch (const std::exception& e) {
      report_->Fail("query [" + sql + "] threw: " + e.what());
    }
  }

  /// OpenSession + Session::PredictBatch, bit-compared with the published
  /// model's FlatForest::PredictBatch.
  void Predict(ClientLog* log) {
    const uint64_t flow = tracer_->NewFlow();
    report_->Attempt();
    try {
      Tracer::Scope request(tracer_, "serve", "predict request", flow);
      Tracer::Scope open(tracer_, "serve", "OpenSession", flow);
      jb::serve::ServingContext::Session session = ctx_.OpenSession();
      const double open_s = open.Stop();
      Tracer::Scope predict(tracer_, "serve", "Session::PredictBatch", flow);
      std::vector<double> preds = session.PredictBatch(*batch_);
      predict.Stop();
      log->predict_ms.push_back(request.Stop() * 1e3);
      if (preds.size() != expected_.size() ||
          std::memcmp(preds.data(), expected_.data(),
                      preds.size() * sizeof(double)) != 0) {
        report_->Fail("PredictBatch differs from FlatForest::PredictBatch");
      }
      if (!tracer_->enabled()) return;
      log->open_session_us.push_back(open_s * 1e6);
      Tracer::Scope flat(tracer_, "core", "FlatForest::PredictBatch", flow);
      std::vector<double> direct =
          session.snapshot().forest->PredictBatch(*batch_);
      log->flat_forest_ms.push_back(flat.Stop() * 1e3);
      report_->Attempt();
      if (direct != preds) {
        report_->Fail("FlatForest::PredictBatch differs between calls");
      }
    } catch (const std::exception& e) {
      report_->Fail(std::string("PredictBatch threw: ") + e.what());
    }
  }

  /// The k-th append: ServingContext::Append, or in the traced pass its
  /// two halves, Database::AppendRows then ServingContext::Republish.
  void Append(int k, ClientLog* log) {
    DateSums sums(static_cast<size_t>(ref_->num_dates));
    jb::exec::ExecTable rows = AppendBatch(k, &sums);
    const uint64_t flow = tracer_->NewFlow();
    report_->Attempt();
    try {
      jb::serve::SnapshotPtr snap;
      Tracer::Scope request(tracer_, "serve", "append request", flow);
      if (!tracer_->enabled()) {
        snap = ctx_.Append(shape_.fact, rows);
      } else {
        Tracer::Scope append(tracer_, "storage", "Database::AppendRows", flow);
        db_->AppendRows(shape_.fact, rows);
        log->append_rows_ms.push_back(append.Stop() * 1e3);
        Tracer::Scope publish(tracer_, "serve", "ServingContext::Republish",
                              flow);
        snap = ctx_.Republish();
        log->publish_ms.push_back(publish.Stop() * 1e3);
      }
      log->append_ms.push_back(request.Stop() * 1e3);
      std::lock_guard<std::mutex> lock(mu_);
      appended_.push_back(std::move(sums));
      appends_at_version_[snap->version] = appended_.size();
    } catch (const std::exception& e) {
      report_->Fail(std::string("append threw: ") + e.what());
    }
  }

  /// Check every recorded answer against the rows its session's pinned
  /// version held: the loaded rows plus the appends published up to it.
  void Verify(std::vector<QueryAnswer> answers) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<size_t, const QueryAnswer*>> order;
    for (const QueryAnswer& a : answers) {
      auto it = appends_at_version_.find(a.version);
      if (it == appends_at_version_.end()) {
        report_->Fail("query pinned unknown version " +
                      std::to_string(a.version));
        continue;
      }
      order.emplace_back(it->second, &a);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    DateSums cur = base_;
    size_t applied = 0;
    for (const auto& [appends, a] : order) {
      for (; applied < appends; ++applied) {
        const DateSums& s = appended_[applied];
        for (size_t d = 0; d < cur.count.size(); ++d) {
          cur.count[d] += s.count[d];
          cur.dim_sum[d] += s.dim_sum[d];
          cur.y_sum[d] += s.y_sum[d];
        }
      }
      double count = 0, dim_sum = 0, y_sum = 0;
      for (int64_t d = a->lo; d <= a->hi; ++d) {
        count += cur.count[static_cast<size_t>(d)];
        dim_sum += cur.dim_sum[static_cast<size_t>(d)];
        y_sum += cur.y_sum[static_cast<size_t>(d)];
      }
      // COUNT and the integer-valued dimension sum are exact; the float
      // sum of the target may differ in summation order only.
      const bool ok = a->count == count && a->dim_sum == dim_sum &&
                      std::fabs(a->y_sum - y_sum) <=
                          1e-9 * std::max(1.0, std::fabs(y_sum));
      if (!ok) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "query [%lld, %lld] at version %llu: got (%.17g, "
                      "%.17g, %.17g), reference (%.17g, %.17g, %.17g)",
                      static_cast<long long>(a->lo),
                      static_cast<long long>(a->hi),
                      static_cast<unsigned long long>(a->version), a->count,
                      a->dim_sum, a->y_sum, count, dim_sum, y_sum);
        report_->Fail(buf);
      }
    }
  }

 private:
  std::string QuerySql(int64_t lo, int64_t hi) const {
    std::ostringstream s;
    s << "SELECT COUNT(*) AS c, SUM(" << shape_.dim << "." << shape_.dim_value
      << ") AS f, SUM(" << shape_.fact << "." << shape_.fact_y
      << ") AS y FROM " << shape_.fact << " JOIN " << shape_.dim << " ON "
      << shape_.fact << "." << shape_.key_col << " = " << shape_.dim << "."
      << shape_.key_col << " WHERE " << shape_.fact << "." << shape_.date_col
      << " BETWEEN " << lo << " AND " << hi;
    return s.str();
  }

  QueryAnswer Answer(uint64_t version, int64_t lo, int64_t hi,
                     const jb::exec::ExecTable& t) const {
    QueryAnswer a;
    a.version = version;
    a.lo = lo;
    a.hi = hi;
    if (t.rows != 1 || t.cols.size() != 3) {
      a.count = -1;  // fails Verify: a count is never negative
      return a;
    }
    a.count = t.GetValue(0, 0).AsDouble();
    a.dim_sum = t.GetValue(0, 1).AsDouble();
    a.y_sum = t.GetValue(0, 2).AsDouble();
    return a;
  }

  /// Rows resampled from the reference fact (each column of a row drawn
  /// from an independent row), seeded by (seed, k): every run appends the
  /// same rows, and every key still joins.
  jb::exec::ExecTable AppendBatch(int k, DateSums* sums) const {
    jb::Rng rng(jb::SplitMix64(seed_ ^ (0xA11EULL << 32)) +
                static_cast<uint64_t>(k));
    const Reference& ref = *ref_;
    const size_t n = kAppendRows;
    jb::exec::ExecTable out;
    out.rows = n;
    std::vector<std::vector<size_t>> pick(ref.fields.size(),
                                          std::vector<size_t>(n));
    for (size_t c = 0; c < ref.fields.size(); ++c) {
      for (size_t i = 0; i < n; ++i) pick[c][i] = rng.NextBounded(ref.rows);
    }
    for (size_t c = 0; c < ref.fields.size(); ++c) {
      if (ref.fields[c].type == jb::TypeId::kFloat64) {
        std::vector<double> v(n);
        for (size_t i = 0; i < n; ++i) v[i] = ref.dbls[c][pick[c][i]];
        out.cols.push_back({"", ref.fields[c].name,
                            jb::exec::VectorData::FromDoubles(std::move(v))});
      } else {
        std::vector<int64_t> v(n);
        for (size_t i = 0; i < n; ++i) v[i] = ref.ints[c][pick[c][i]];
        out.cols.push_back({"", ref.fields[c].name,
                            jb::exec::VectorData::FromInts(std::move(v))});
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const int64_t key = ref.ints[ref.key][pick[ref.key][i]];
      sums->Add(ref.ints[ref.date][pick[ref.date][i]],
                ref.dim_value[static_cast<size_t>(key)],
                ref.dbls[ref.y][pick[ref.y][i]]);
    }
    return out;
  }

  const uint64_t seed_;
  const QueryShape shape_;
  jb::exec::Database* db_;
  jb::serve::ServingContext ctx_;
  std::shared_ptr<const jb::exec::ExecTable> batch_;
  std::vector<double> expected_;
  const Reference* ref_;
  Tracer* tracer_;
  Report* report_;
  DateSums base_;  ///< the reference rows as loaded

  std::mutex mu_;  // guards appended_ and appends_at_version_
  std::vector<DateSums> appended_;
  std::map<uint64_t, size_t> appends_at_version_;
};

/// The serving mix as a closed loop: one session thread queries, one
/// predicts, and a writer appends after every kAppendEvery completed
/// queries, so the appended rows depend only on the seed. It ends after
/// kStretchQueries queries.
double ClosedLoop(ServeLoad* load, Tracer* tracer, ClientLog* log) {
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::condition_variable cv;
  uint64_t appends_due = 0;    // guarded by mu
  bool queries_done = false;  // guarded by mu
  ClientLog query_log, predict_log, writer_log;

  const auto t0 = std::chrono::steady_clock::now();
  std::thread query([&] {
    tracer->NameThread("query client");
    for (uint64_t i = 0; i < kStretchQueries; ++i) {
      load->Query(i, &query_log);
      if ((i + 1) % kAppendEvery == 0) {
        std::lock_guard<std::mutex> lock(mu);
        ++appends_due;
        cv.notify_all();
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    queries_done = true;
    cv.notify_all();
  });
  std::thread predict([&] {
    tracer->NameThread("predict client");
    while (!stop.load()) load->Predict(&predict_log);
  });
  std::thread writer([&] {
    tracer->NameThread("append writer");
    uint64_t done = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return appends_due > done || stop.load(); });
        if (appends_due == done) return;
      }
      load->Append(static_cast<int>(done++), &writer_log);
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return queries_done; });
    stop.store(true);
    cv.notify_all();
  }
  query.join();
  predict.join();
  writer.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  log->Merge(query_log);
  log->Merge(predict_log);
  log->Merge(writer_log);
  return wall;
}

/// Serving observed over the stretches of a pass.
struct ServeTotals {
  ClientLog log;
  double wall_s = 0;
  uint64_t admission_waits = 0, admission_rejected = 0;
  uint64_t snapshots_published = 0, snapshot_reads = 0;

  void Add(const ClientLog& l, double wall,
           const jb::serve::ServingContext& c) {
    log.Merge(l);
    wall_s += wall;
    admission_waits += c.admission_waits();
    admission_rejected += c.admission_rejected();
    snapshots_published += c.snapshots_published();
    snapshot_reads += c.snapshot_reads();
  }
};

/// End-to-end latencies, the layer calls of the traced pass, and the
/// closed-loop distribution and counters of the untraced pass.
void ServeMetrics(const ServeTotals& s, Tracer* tracer, Report* r) {
  const ClientLog& log = s.log;
  auto add = [&](const char* name, const std::vector<double>& v) {
    for (double x : v) r->Add(name, "ms", x);
  };
  add("query_ms", log.query_ms);
  add("predict_ms", log.predict_ms);
  add("append_ms", log.append_ms);
  const auto t = CounterClass::kTiming;
  if (tracer->enabled()) {
    const double exec_ms = Median(log.exec_query_ms);
    const double flat_ms = Median(log.flat_forest_ms);
    r->Layer("exec.query_ms", "ms", exec_ms, t);
    r->Layer("core.flat_forest_ms", "ms", flat_ms, t);
    r->Layer("storage.append_rows_ms", "ms", Median(log.append_rows_ms), t);
    r->Layer("serve.publish_ms", "ms", Median(log.publish_ms), t);
    r->Layer("serve.open_session_us", "us", Median(log.open_session_us), t);
    r->Layer("serve.query_overhead_ms", "ms", Median(log.query_ms) - exec_ms,
             t);
    r->Layer("serve.predict_overhead_ms", "ms",
             Median(log.predict_ms) - flat_ms, t);
    return;
  }
  r->Layer("serve.query_p99_ms", "ms", Quantile(log.query_ms, 0.99), t);
  r->Layer("serve.predict_p99_ms", "ms", Quantile(log.predict_ms, 0.99), t);
  r->Layer("serve.append_p99_ms", "ms", Quantile(log.append_ms, 0.99), t);
  r->Layer("serve.rps", "1/s",
           Ratio(static_cast<double>(log.query_ms.size() +
                                     log.predict_ms.size()),
                 s.wall_s),
           t);
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  r->Layer("serve.admission_waits", "count", d(s.admission_waits), t);
  r->Layer("serve.admission_rejected", "count", d(s.admission_rejected), t);
  r->Layer("serve.snapshots_published", "count", d(s.snapshots_published), t);
  r->Layer("serve.snapshot_reads", "count", d(s.snapshot_reads), t);
}

/// The first request of each kind in a serving stretch meets a freshly
/// loaded database and a cold plan cache: warm-up, not counted.
void DropWarmup(ClientLog* log) {
  for (auto* v : {&log->query_ms, &log->predict_ms, &log->append_ms}) {
    if (!v->empty()) v->erase(v->begin());
  }
}

/// The database a round serves from: loaded like the train's, at
/// kServeThreads, with the first kBatchRows rows of the join (all of them
/// when fewer) as the prediction batch. The join is released once the
/// batch is copied out.
struct Served {
  std::unique_ptr<jb::exec::Database> db;
  std::unique_ptr<jb::Dataset> ds;
  std::shared_ptr<const jb::exec::ExecTable> batch;
};

Served SetUpServing(const WorkloadDef& w, uint64_t seed, Tracer* tracer) {
  Served s;
  Tracer::Scope setup(tracer, "serve", "serving set-up", tracer->NewFlow());
  s.db = std::make_unique<jb::exec::Database>(Profile(kServeThreads));
  s.ds = std::make_unique<jb::Dataset>(MakeData(w, seed, s.db.get()));
  const jb::core::JoinedEval eval = jb::core::MaterializeJoin(*s.ds);
  std::vector<uint32_t> idx(std::min(kBatchRows, eval.rows()));
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  s.batch = std::make_shared<const jb::exec::ExecTable>(
      eval.table().GatherRows(idx));
  return s;
}

/// How much each phase of the latest round raised the resident set's
/// high-water mark, so a run shows which allocations set peak_rss_mb.
class PeakGrowth {
 public:
  void StartRound() {
    growth_.clear();
    last_ = PeakRssMb();
  }
  void After(const char* phase) {
    const double now = PeakRssMb();
    growth_[phase] += std::max(0.0, now - last_);
    last_ = std::max(last_, now);
  }
  std::string Note() const {
    std::string s = "peak_rss_growth_mb (last round):";
    char buf[64];
    for (const auto& [phase, mb] : growth_) {
      std::snprintf(buf, sizeof(buf), " %s=%.1f", phase.c_str(), mb);
      s += buf;
    }
    return s;
  }

 private:
  double last_ = 0;
  std::map<std::string, double> growth_;
};

/// One pass: rounds of a train on a freshly loaded, identically seeded
/// database, then the serving mix against its model on a second database.
/// The untraced pass discards a warm-up round; the traced pass measures
/// one. Each round's peak_rss_mb is the resident set's high-water mark from
/// the round's start (after malloc_trim) to the end of its serving, so the
/// RMSE gate and baselines after the last round never set it.
void RunPass(const WorkloadDef& w, const Options& opts, Tracer* tracer,
             Report* r) {
  const bool traced = tracer->enabled();
  const int warmup = traced ? 0 : 1;
  TrainChecker checker(r);
  ServeTotals serving;
  PeakGrowth peak;
  bool peak_per_round = true;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const int measured = i - warmup;
    if (measured == 0) t0 = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (traced ? measured >= 1
               : measured >= kMinSamples && elapsed >= opts.seconds) {
      break;
    }

    // Freed memory that the previous round's threads left in their malloc
    // arenas would otherwise stay resident and blur which phase sets the
    // peak; return it to the system so every round starts alike.
    malloc_trim(0);
    peak_per_round &= ResetPeakRss();
    peak.StartRound();
    r->Attempt();
    std::unique_ptr<Trained> t;
    try {
      t = std::make_unique<Trained>(
          GenerateAndTrain(w, opts.seed, w.train_threads, tracer));
    } catch (const std::exception& e) {
      r->Fail(std::string("train threw: ") + e.what());
      return;
    }
    peak.After("load+train");
    checker.Check(*t, "train");
    if (traced) {  // before other statements join the train's query log
      TrainLayers(*t, tracer, r);
      EngineLayers(t->result.plan_stats, r);
      ThreadBudgetTrains(w, opts.seed, *t, tracer, r);
      peak.After("traced layer calls");
    }
    const double setup_s = t->setup_s, train_s = t->train_s;
    const double train_cpu_s = t->train_cpu_s;
    const jb::core::Ensemble model = t->result.model;
    t.reset();
    malloc_trim(0);

    r->Attempt();
    try {
      Served served = SetUpServing(w, opts.seed, tracer);
      peak.After("serving set-up");
      if (measured >= 0) {
        r->Add("setup_s", "s", setup_s);
        r->Add("train_s", "s", train_s);
        r->Add("train_cpu_s", "s", train_cpu_s);
      }
      const Reference ref = LoadReference(w, opts.seed);
      peak.After("reference");
      ServeLoad load(w.schema, opts.seed, served.db.get(), model,
                     served.batch, &ref, tracer, r);
      ClientLog log;
      const double wall = ClosedLoop(&load, tracer, &log);
      peak.After("serving");
      load.Verify(std::move(log.answers));
      if (measured >= 0) {
        DropWarmup(&log);
        serving.Add(log, wall, load.ctx());
      }
    } catch (const std::exception& e) {
      r->Fail(std::string("serving threw: ") + e.what());
    }
    if (measured >= 0) r->Add("peak_rss_mb", "MB", PeakRssMb());
  }
  ServeMetrics(serving, tracer, r);
  r->notes.push_back(peak.Note());
  r->notes.push_back(peak_per_round
                         ? "peak_rss_mb=per round (VmHWM reset at its start)"
                         : "peak_rss_mb=VmHWM since process start "
                           "(/proc/self/clear_refs not writable)");
  BaselinesAndRmseGate(w, opts.seed, checker.first_model(),
                       r->Median("train_s"), tracer, r);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& w : kWorkloads) names.push_back(w.name);
  return names;
}

void RunWorkload(const Options& opts, Tracer* tracer, Report* report) {
  for (const WorkloadDef& w : kWorkloads) {
    if (opts.workload != w.name) continue;
    report->notes.push_back("train_exec_threads=" +
                            std::to_string(w.train_threads));
    report->notes.push_back("serve_exec_threads=" +
                            std::to_string(kServeThreads));
    report->notes.push_back(
        "serve_clients=3 (query, predict, append every " +
        std::to_string(kAppendEvery) + " queries)");
    report->notes.push_back("serving=" + std::to_string(kStretchQueries) +
                            " queries after each train");
    RunPass(w, opts, tracer, report);
  }
}

}  // namespace ledger
