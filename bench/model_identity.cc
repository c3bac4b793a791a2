// Model identity harness: trains a fixed set of configurations (objectives,
// thread counts, planner modes, trainer variants, update strategies, engine
// profiles, inter-query parallelism, rf/dt; Favorita, TPC-DS and IMDB) and
// prints one line per configuration:
//
//   <name> nodes=<N> model=<digest> log=<digest> statements=<K>
//
// `model` is FNV-1a over the ensemble's base score and every TreeNode field
// (doubles hashed by their bits), `log` is FNV-1a over each query-log
// entry's tag and SQL text. Under inter_query_parallelism the log order is
// nondeterministic, so those logs are sorted before hashing. Two builds that
// print the same lines train bit-identical models with the same statements.
//
// Data sizes are fixed (JB_SCALE is ignored) so that runs of different
// builds compare. JB_BENCH_JSON names the JSON copy of the lines (default
// MODEL_IDENTITY.json).

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "joinboost.h"

namespace jb = joinboost;

namespace {

class Digest {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof v); }
  void Double(double d) { Bytes(&d, sizeof d); }
  /// Length first, so that ("ab", "c") and ("a", "bc") differ.
  void Str(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

enum class Data { kFavorita, kFavoritaDate, kTpcds, kImdb };

struct Config {
  std::string name;
  Data data = Data::kFavorita;
  jb::EngineProfile profile = jb::EngineProfile::DSwap();
  jb::core::TrainParams params;
};

jb::Dataset MakeData(Data data, jb::exec::Database* db) {
  switch (data) {
    case Data::kFavorita:
    case Data::kFavoritaDate: {
      jb::data::FavoritaConfig c;
      c.sales_rows = 12000;
      c.date_feature_on_fact = data == Data::kFavoritaDate;
      return jb::data::MakeFavorita(db, c);
    }
    case Data::kTpcds: {
      jb::data::TpcdsConfig c;
      c.base_fact_rows = 3000;
      c.num_features = 15;
      return jb::data::MakeTpcds(db, c);
    }
    case Data::kImdb: {
      jb::data::ImdbConfig c;
      c.num_movies = 300;
      c.num_persons = 600;
      return jb::data::MakeImdb(db, c);
    }
  }
  std::abort();
}

std::vector<Config> Configs() {
  std::vector<Config> out;
  auto add = [&](const std::string& name, Data data,
                 const std::function<void(Config*)>& edit) {
    Config c;
    c.name = name;
    c.data = data;
    c.params.boosting = "gbdt";
    c.params.num_iterations = 5;
    c.params.num_leaves = 8;
    edit(&c);
    out.push_back(std::move(c));
  };
  auto threads = [](int n) {
    return [n](Config* c) { c->profile.exec_threads = n; };
  };
  for (const char* obj : {"rmse", "huber", "fair", "quantile", "mae"}) {
    for (const int t : {1, 4}) {
      add(std::string("fav_") + obj + "_t" + std::to_string(t), Data::kFavorita,
          [obj, t](Config* c) {
            c->params.objective = obj;
            c->profile.exec_threads = t;
          });
    }
  }
  add("fav_fair_c100", Data::kFavorita, [](Config* c) {
    c->params.objective = "fair";
    c->params.objective_param = 100;
  });
  for (const int t : {1, 4}) {
    add("fav_planner_off_t" + std::to_string(t), Data::kFavorita,
        [t](Config* c) {
          c->profile.use_planner = false;
          c->profile.exec_threads = t;
        });
  }
  for (const char* variant : {"batch", "naive"}) {
    add(std::string("fav_variant_") + variant, Data::kFavorita,
        [variant](Config* c) { c->params.variant = variant; });
  }
  for (const char* strategy : {"update", "create", "naive_u"}) {
    add(std::string("fav_update_") + strategy, Data::kFavorita,
        [strategy](Config* c) { c->params.update_strategy = strategy; });
  }
  const std::pair<const char*, jb::EngineProfile> profiles[] = {
      {"xrow", jb::EngineProfile::XRow()},
      {"xcol", jb::EngineProfile::XCol()},
      {"dmem", jb::EngineProfile::DMem()},
      {"ddisk", jb::EngineProfile::DDisk()},
      {"dp", jb::EngineProfile::DP()}};
  for (const auto& [name, profile] : profiles) {
    add(std::string("fav_profile_") + name, Data::kFavorita,
        [profile = profile](Config* c) { c->profile = profile; });
  }
  add("fav_inter_query", Data::kFavorita, [](Config* c) {
    c->params.inter_query_parallelism = true;
  });
  for (const int t : {1, 4}) {
    add("fav_rf_t" + std::to_string(t), Data::kFavorita, [t](Config* c) {
      c->params.boosting = "rf";
      c->params.num_iterations = 4;
      c->profile.exec_threads = t;
    });
  }
  add("fav_rf_inter_query", Data::kFavorita, [](Config* c) {
    c->params.boosting = "rf";
    c->params.num_iterations = 4;
    c->params.inter_query_parallelism = true;
  });
  add("fav_dt", Data::kFavorita, [](Config* c) {
    c->params.boosting = "dt";
    c->params.num_leaves = 16;
  });
  add("fav_date_feature", Data::kFavoritaDate, threads(4));
  for (const int t : {1, 4}) {
    add("tpcds_gbdt_t" + std::to_string(t), Data::kTpcds, [t](Config* c) {
      c->params.num_iterations = 15;
      c->profile.exec_threads = t;
    });
  }
  add("tpcds_huber", Data::kTpcds,
      [](Config* c) { c->params.objective = "huber"; });
  add("tpcds_rf", Data::kTpcds, [](Config* c) { c->params.boosting = "rf"; });
  add("tpcds_dt", Data::kTpcds, [](Config* c) {
    c->params.boosting = "dt";
    c->params.num_leaves = 16;
  });
  for (const int t : {1, 4}) {
    add("imdb_gbdt_t" + std::to_string(t), Data::kImdb, threads(t));
  }
  add("imdb_dt", Data::kImdb, [](Config* c) { c->params.boosting = "dt"; });
  add("imdb_rf", Data::kImdb, [](Config* c) { c->params.boosting = "rf"; });
  return out;
}

struct Line {
  std::string name;
  size_t nodes = 0;
  uint64_t model = 0;
  uint64_t log = 0;
  size_t statements = 0;
};

Line Run(const Config& config) {
  jb::exec::Database db(config.profile);
  jb::Dataset ds = MakeData(config.data, &db);
  db.ClearQueryLog();
  const jb::core::Ensemble model = jb::Train(config.params, ds).model;

  Line line;
  line.name = config.name;
  Digest m;
  m.Double(model.base_score);
  m.Int(model.average);
  for (const jb::core::TreeModel& tree : model.trees) {
    m.Int(static_cast<int64_t>(tree.nodes.size()));
    for (const jb::core::TreeNode& n : tree.nodes) {
      m.Int(n.is_leaf);
      m.Str(n.feature);
      m.Int(n.relation);
      m.Int(n.categorical);
      m.Double(n.threshold);
      m.Int(n.category);
      m.Str(n.category_str);
      m.Double(n.gain);
      m.Int(n.left);
      m.Int(n.right);
      m.Double(n.prediction);
      m.Double(n.count);
      m.Double(n.sum);
    }
    line.nodes += tree.nodes.size();
  }
  line.model = m.value();

  std::vector<std::pair<std::string, std::string>> log;
  for (const auto& e : db.QueryLog()) log.emplace_back(e.tag, e.sql);
  if (config.params.inter_query_parallelism) std::sort(log.begin(), log.end());
  Digest l;
  for (const auto& [tag, sql] : log) {
    l.Str(tag);
    l.Str(sql);
  }
  line.log = l.value();
  line.statements = log.size();
  return line;
}

}  // namespace

int main() {
  std::vector<Line> lines;
  for (const Config& config : Configs()) {
    lines.push_back(Run(config));
    const Line& x = lines.back();
    std::printf("%-22s nodes=%-4zu model=%016" PRIx64 " log=%016" PRIx64
                " statements=%zu\n",
                x.name.c_str(), x.nodes, x.model, x.log, x.statements);
    std::fflush(stdout);
  }
  const char* path = std::getenv("JB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "MODEL_IDENTITY.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("  -- could not open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"model_identity\",\n  \"configs\": {\n");
  for (size_t i = 0; i < lines.size(); ++i) {
    const Line& x = lines[i];
    std::fprintf(f,
                 "    \"%s\": {\"nodes\": %zu, \"model\": \"%016" PRIx64
                 "\", \"log\": \"%016" PRIx64 "\", \"statements\": %zu}%s\n",
                 x.name.c_str(), x.nodes, x.model, x.log, x.statements,
                 i + 1 < lines.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("  -- wrote %s (%zu configurations)\n", path, lines.size());
  return 0;
}
