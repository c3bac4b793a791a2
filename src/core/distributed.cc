#include "core/distributed.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/boosting.h"
#include "core/split.h"
#include "factor/message_passing.h"
#include "sql/printer.h"
#include "util/check.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace joinboost {
namespace core {

struct DistributedTrainer::Worker {
  std::unique_ptr<exec::Database> db;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<Session> session;
};

DistributedTrainer::DistributedTrainer(Dataset& source,
                                       DistributedConfig config)
    : config_(std::move(config)) {
  Partition(source);
}

DistributedTrainer::~DistributedTrainer() = default;

void DistributedTrainer::Partition(Dataset& source) {
  source.Prepare();
  const graph::JoinGraph& g = source.graph();
  std::vector<int> facts;
  std::vector<int> clusters = g.ComputeClusters(&facts);
  JB_CHECK_MSG(facts.size() == 1,
               "distributed training supports snowflake schemas");
  int fact = facts[0];
  (void)clusters;
  y_column_ = g.relation(g.YRelation()).y_column;
  features_ = g.AllFeatures();
  for (const auto& rel : g.relations()) {
    null_features_.insert(null_features_.end(), rel.null_features.begin(),
                          rel.null_features.end());
  }

  TablePtr fact_tbl = source.db()->catalog().Get(g.relation(fact).name);
  const size_t rows = fact_tbl->num_rows();
  const size_t W = static_cast<size_t>(config_.num_workers);

  for (size_t w = 0; w < W; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->db = std::make_unique<exec::Database>(EngineProfile::DSwap());
    // Hash-partition the fact; replicate dimensions zero-copy.
    std::vector<uint32_t> shard_rows;
    for (size_t r = w; r < rows; r += W) {
      shard_rows.push_back(static_cast<uint32_t>(r));
    }
    std::vector<ColumnPtr> cols;
    for (size_t c = 0; c < fact_tbl->num_columns(); ++c) {
      const auto& col = fact_tbl->column(c);
      if (col->type() == TypeId::kFloat64) {
        std::vector<double> src = col->DecodeDoubles();
        std::vector<double> dst;
        dst.reserve(shard_rows.size());
        for (uint32_t r : shard_rows) dst.push_back(src[r]);
        cols.push_back(ColumnBuilder(TypeId::kFloat64)
                           .AppendDoubles(std::move(dst))
                           .Build());
      } else {
        std::vector<int64_t> src = col->DecodeInts();
        std::vector<int64_t> dst;
        dst.reserve(shard_rows.size());
        for (uint32_t r : shard_rows) dst.push_back(src[r]);
        if (col->type() == TypeId::kString) {
          cols.push_back(ColumnBuilder(TypeId::kString, col->dict())
                             .AppendCodes(std::move(dst))
                             .Build());
        } else {
          cols.push_back(ColumnBuilder(TypeId::kInt64)
                             .AppendInts(std::move(dst))
                             .Build());
        }
      }
    }
    worker->db->RegisterTable(std::make_shared<Table>(
        fact_tbl->name(), fact_tbl->schema(), std::move(cols)));
    for (size_t r = 0; r < g.num_relations(); ++r) {
      if (static_cast<int>(r) == fact) continue;
      worker->db->RegisterTable(
          source.db()->catalog().Get(g.relation(static_cast<int>(r)).name));
    }
    // Mirror the dataset definition.
    worker->dataset = std::make_unique<Dataset>(worker->db.get());
    for (size_t r = 0; r < g.num_relations(); ++r) {
      const auto& rel = g.relation(static_cast<int>(r));
      worker->dataset->AddTable(rel.name, rel.features, rel.y_column);
    }
    for (const auto& e : g.edges()) {
      worker->dataset->AddJoin(g.relation(e.a).name, g.relation(e.b).name,
                               e.keys);
    }
    workers_.push_back(std::move(worker));
  }
}

DistributedResult DistributedTrainer::Train(const TrainParams& params) {
  DistributedResult out;
  Timer wall;
  ThreadPool pool(workers_.size());
  const size_t W = workers_.size();

  auto charge_network = [&](size_t bytes_per_worker) {
    out.shuffle_bytes += bytes_per_worker * W;
    out.shuffle_seconds +=
        config_.network_latency_s +
        static_cast<double>(bytes_per_worker * W) /
            config_.network_bandwidth_bytes_per_s;
  };

  // Prepare sessions in parallel; align base scores globally.
  pool.ParallelFor(W, [&](size_t w) {
    workers_[w]->session =
        std::make_unique<Session>(workers_[w]->dataset.get(), params);
    workers_[w]->session->Prepare();
  });
  // Merge per-worker totals into the global base score.
  double global_c = 0, global_s = 0;
  std::vector<semiring::VarianceElem> totals(W);
  factor::PredicateSet none;
  pool.ParallelFor(W, [&](size_t w) {
    totals[w] = workers_[w]->session->fac().TotalAggregate(
        workers_[w]->session->y_fact(), none, "message");
  });
  charge_network(24);
  const bool boosted = params.boosting == "gbdt";
  for (size_t w = 0; w < W; ++w) {
    // Undo each worker's local base to recover raw sums.
    double local_base = workers_[w]->session->base_score();
    global_c += totals[w].c;
    global_s += totals[w].s + local_base * totals[w].c;
  }
  double base = boosted && global_c > 0 ? global_s / global_c : 0;
  if (boosted) {
    pool.ParallelFor(W, [&](size_t w) {
      Session& s = *workers_[w]->session;
      double diff = s.base_score() - base;
      if (std::fabs(diff) > 1e-15) {
        s.db().Execute("UPDATE " + s.FactTable(s.y_fact()) + " SET s = s + " +
                           sql::DoubleLiteral(diff),
                       "update");
        s.fac().BumpEpoch(s.y_fact());
      }
    });
  }

  Ensemble& model = out.model;
  model.base_score = base;
  model.average = false;

  struct Leaf {
    int node;
    int depth = 0;
    factor::PredicateSet preds;
    double c, s;
    bool has_best = false;
    std::string best_feature;
    int best_rel = -1;
    double best_threshold = 0, best_gain = 0, best_cl = 0, best_sl = 0;
  };

  int iterations = boosted ? params.num_iterations : 1;
  GradientBoosting updater(nullptr, params);

  for (int iter = 0; iter < iterations; ++iter) {
    // --- grow one tree with coordinator-merged aggregates ---
    TreeModel tree;
    tree.nodes.push_back(TreeNode{});
    std::vector<semiring::VarianceElem> t(W);
    pool.ParallelFor(W, [&](size_t w) {
      t[w] = workers_[w]->session->fac().TotalAggregate(
          workers_[w]->session->y_fact(), none, "message");
    });
    charge_network(24);
    double total_c = 0, total_s = 0;
    for (const auto& e : t) {
      total_c += e.c;
      total_s += e.s;
    }

    auto find_best = [&](Leaf& leaf) {
      leaf.has_best = false;
      for (const auto& f : features_) {
        int rel = workers_[0]->session->graph().RelationOfFeature(f);
        // Merge per-worker grouped aggregates (the shuffle stage of Fig 13).
        std::map<double, std::pair<double, double>> groups;
        std::vector<std::map<double, std::pair<double, double>>> parts(W);
        pool.ParallelFor(W, [&](size_t w) {
          Session& s = *workers_[w]->session;
          auto abs = s.fac().BuildAbsorption(rel, leaf.preds, "message");
          std::string sql = "SELECT " + f + " AS val, SUM(" + abs.c_expr +
                            ") AS c, SUM(" + abs.s_expr + ") AS s " +
                            abs.from_where + " GROUP BY " + f;
          auto res = s.db().Query(sql, "feature");
          for (size_t r = 0; r < res->rows; ++r) {
            parts[w][res->GetValue(r, 0).AsDouble()] = {
                res->GetValue(r, 1).AsDouble(), res->GetValue(r, 2).AsDouble()};
          }
        });
        size_t bytes = 0;
        for (const auto& p : parts) bytes += p.size() * 24;
        charge_network(bytes / std::max<size_t>(W, 1));
        for (const auto& p : parts) {
          for (const auto& [val, cs] : p) {
            auto& acc = groups[val];
            acc.first += cs.first;
            acc.second += cs.second;
          }
        }
        // Coordinator-side prefix scan.
        double cum_c = 0, cum_s = 0;
        for (const auto& [val, cs] : groups) {
          cum_c += cs.first;
          cum_s += cs.second;
          if (cum_c < params.min_data_in_leaf ||
              leaf.c - cum_c < params.min_data_in_leaf) {
            continue;
          }
          double gain = semiring::GradientGain(leaf.s, leaf.c, cum_s, cum_c,
                                               params.lambda_l2,
                                               params.min_gain);
          if (gain > 1e-12 && (!leaf.has_best || gain > leaf.best_gain)) {
            leaf.has_best = true;
            leaf.best_feature = f;
            leaf.best_rel = rel;
            leaf.best_threshold = val;
            leaf.best_gain = gain;
            leaf.best_cl = cum_c;
            leaf.best_sl = cum_s;
          }
        }
      }
    };

    std::vector<Leaf> leaves;
    {
      Leaf root;
      root.node = 0;
      root.c = total_c;
      root.s = total_s;
      find_best(root);
      leaves.push_back(std::move(root));
    }
    int num_leaves = 1;
    while (num_leaves < params.num_leaves) {
      int pick = -1;
      for (size_t i = 0; i < leaves.size(); ++i) {
        if (!leaves[i].has_best) continue;
        if (pick < 0 || leaves[i].best_gain >
                            leaves[static_cast<size_t>(pick)].best_gain) {
          pick = static_cast<int>(i);
        }
      }
      if (pick < 0) break;
      Leaf leaf = std::move(leaves[static_cast<size_t>(pick)]);
      leaves.erase(leaves.begin() + pick);

      TreeNode& parent = tree.nodes[static_cast<size_t>(leaf.node)];
      parent.is_leaf = false;
      parent.feature = leaf.best_feature;
      parent.relation = leaf.best_rel;
      parent.threshold = leaf.best_threshold;
      parent.gain = leaf.best_gain;
      int li = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      int ri = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back(TreeNode{});
      tree.nodes[static_cast<size_t>(leaf.node)].left = li;
      tree.nodes[static_cast<size_t>(leaf.node)].right = ri;

      Leaf left, right;
      left.node = li;
      right.node = ri;
      left.depth = right.depth = leaf.depth + 1;
      ChildPredicates child = SplitPredicates(
          leaf.best_feature, /*categorical=*/false, leaf.best_threshold, "",
          std::find(null_features_.begin(), null_features_.end(),
                    leaf.best_feature) != null_features_.end());
      left.preds = leaf.preds;
      left.preds.Add(leaf.best_rel, child.left);
      right.preds = leaf.preds;
      right.preds.Add(leaf.best_rel, child.right);
      left.c = leaf.best_cl;
      left.s = leaf.best_sl;
      right.c = leaf.c - left.c;
      right.s = leaf.s - left.s;
      ++num_leaves;
      // As in TreeGrower::Grow, a leaf at max_depth is never split.
      if (num_leaves < params.num_leaves &&
          (params.max_depth < 0 || left.depth < params.max_depth)) {
        find_best(left);
        find_best(right);
      }
      leaves.push_back(std::move(left));
      leaves.push_back(std::move(right));
    }

    // Leaf values from global aggregates; build per-worker update input.
    GrowthResult grown;
    for (auto& leaf : leaves) {
      double raw = leaf.c + params.lambda_l2 > 0
                       ? leaf.s / (leaf.c + params.lambda_l2)
                       : 0;
      double shrunk = boosted ? params.learning_rate * raw : raw;
      tree.nodes[static_cast<size_t>(leaf.node)].prediction = shrunk;
      tree.nodes[static_cast<size_t>(leaf.node)].count = leaf.c;
      tree.nodes[static_cast<size_t>(leaf.node)].sum = leaf.s;
      GrowthResult::LeafInfo info;
      info.node = leaf.node;
      info.preds = leaf.preds;
      info.c = leaf.c;
      info.s = leaf.s;
      info.raw_value = raw;
      grown.leaves.push_back(std::move(info));
    }
    grown.tree = tree;

    if (boosted && iter + 1 <= params.num_iterations) {
      // Broadcast leaf predicates; shards update independently.
      charge_network(64 * grown.leaves.size());
      pool.ParallelFor(W, [&](size_t w) {
        Session& s = *workers_[w]->session;
        updater.UpdateResiduals(s, grown, s.y_fact());
      });
    }
    model.trees.push_back(std::move(tree));
  }

  out.compute_seconds = wall.Seconds();
  out.seconds = out.compute_seconds + out.shuffle_seconds;
  return out;
}

}  // namespace core
}  // namespace joinboost
