#pragma once

#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/model.h"
#include "core/params.h"
#include "core/session.h"

namespace joinboost {
namespace core {

/// Multi-node simulation (paper §6.2, Figures 12–13): the fact table is
/// hash-partitioned across in-process worker engines and dimension tables
/// are replicated (zero-copy shared columns). Tree growth aggregates
/// per-worker semi-ring partials on a coordinator; residual updates run on
/// every shard. Worker compute is real (parallel threads); the network is
/// modeled (per-exchange latency plus bytes/bandwidth) since no actual wire
/// exists in-process — see docs/ARCHITECTURE.md "Paper-to-code map".
struct DistributedConfig {
  int num_workers = 4;
  double network_latency_s = 0.002;           ///< per coordinator exchange
  double network_bandwidth_bytes_per_s = 2e8;  ///< shuffle payload cost
};

struct DistributedResult {
  Ensemble model;
  double seconds = 0;          ///< wall time + modeled network time
  double compute_seconds = 0;  ///< measured wall time only
  double shuffle_seconds = 0;  ///< modeled network time
  size_t shuffle_bytes = 0;
};

/// Distributed factorized trainer (snowflake, rmse). Supports "dt" and
/// "gbdt" boosting types.
class DistributedTrainer {
 public:
  /// `make_dataset` must register the same tables/graph into the given
  /// worker database, with the fact table restricted to shard `w` of `n`.
  DistributedTrainer(Dataset& source, DistributedConfig config);
  ~DistributedTrainer();

  DistributedResult Train(const TrainParams& params);

 private:
  struct Worker;
  void Partition(Dataset& source);

  DistributedConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::string y_column_;
  std::vector<std::string> features_;
};

}  // namespace core
}  // namespace joinboost
