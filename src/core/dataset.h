#pragma once

#include <string>
#include <vector>

#include "exec/engine.h"
#include "graph/join_graph.h"

namespace joinboost {

/// The user-facing training dataset (paper Figure 4): a join graph over
/// tables registered in a Database, with features X and target Y declared
/// per table. Mirrors joinboost.join_graph() / add_node / add_edge.
class Dataset {
 public:
  explicit Dataset(exec::Database* db) : db_(db) {}

  /// Declare a participating table with its feature columns and optional Y.
  void AddTable(const std::string& table, std::vector<std::string> features,
                const std::string& y_column = "");

  /// Natural-join edge over shared key columns.
  void AddJoin(const std::string& t1, const std::string& t2,
               std::vector<std::string> keys);

  /// Validate tables/columns, measure cardinalities and edge-key uniqueness
  /// (drives N-to-1 detection, identity messages and CPT clusters), and
  /// record which features hold a NULL. Called automatically by Train();
  /// idempotent. Throws JbError when a target column holds a NULL, NaN or
  /// infinite value.
  void Prepare();
  bool prepared() const { return prepared_; }

  exec::Database* db() const { return db_; }
  graph::JoinGraph& graph() { return graph_; }
  const graph::JoinGraph& graph() const { return graph_; }

 private:
  exec::Database* db_;
  graph::JoinGraph graph_;
  bool prepared_ = false;
};

}  // namespace joinboost
