#pragma once

#include <string>
#include <vector>

namespace joinboost {
namespace graph {

/// One relation (base table) participating in training.
struct Relation {
  std::string name;
  std::vector<std::string> features;  ///< X attributes offered by this table
  std::string y_column;               ///< non-empty iff this is R_Y
  /// Table cardinality; used to pick cluster fact tables and message roots.
  size_t num_rows = 0;
  /// Features whose column holds a NULL (NaN for floats), filled by
  /// Dataset::Prepare: a split's right child must admit those rows.
  std::vector<std::string> null_features;
};

/// An undirected join edge with (natural-join) key attributes.
struct Edge {
  int a = -1, b = -1;
  std::vector<std::string> keys;  ///< shared attribute names
  /// Key uniqueness on each side, filled by the trainer from data; drives
  /// N-to-1 direction detection, identity messages and CPT clusters.
  bool unique_a = false;
  bool unique_b = false;
};

/// The training dataset of the paper's API (Figure 4): relations + join
/// conditions, features X and target Y. Mirrors joinboost.join_graph().
class JoinGraph {
 public:
  /// Returns the relation id.
  int AddRelation(const std::string& name,
                  std::vector<std::string> features = {},
                  const std::string& y_column = "");

  /// Natural-join edge on shared key attributes.
  int AddEdge(const std::string& r1, const std::string& r2,
              std::vector<std::string> keys);

  int RelationIndex(const std::string& name) const;  ///< -1 when absent
  const Relation& relation(int i) const { return relations_.at(static_cast<size_t>(i)); }
  Relation& relation(int i) { return relations_.at(static_cast<size_t>(i)); }
  const std::vector<Relation>& relations() const { return relations_; }
  const std::vector<Edge>& edges() const { return edges_; }
  Edge& edge(int i) { return edges_.at(static_cast<size_t>(i)); }
  size_t num_relations() const { return relations_.size(); }

  /// Relation id hosting Y; -1 when no Y was declared.
  int YRelation() const;

  /// Relation id offering feature `attr`; -1 when unknown.
  int RelationOfFeature(const std::string& attr) const;

  /// All features across relations.
  std::vector<std::string> AllFeatures() const;

  /// (neighbor relation, edge index) pairs of `r`.
  std::vector<std::pair<int, int>> Neighbors(int r) const;

  /// True when the relation/edge graph is a tree (message passing requires
  /// an acyclic join graph; cyclic graphs need hypertree decomposition).
  bool IsTree() const;

  /// GYO reduction over the hypergraph of {keys ∪ features ∪ y} per relation:
  /// true iff α-acyclic. (Tree edge graphs are always α-acyclic; this is the
  /// general check from §3.1 footnote 1.)
  bool IsAlphaAcyclic() const;

  /// Directed view toward `root`: parent[i] is the next relation on i's path
  /// to the root (-1 for the root), parent_edge[i] the connecting edge, and
  /// `order` lists relations leaves-first (message passing order).
  struct Directed {
    std::vector<int> parent;
    std::vector<int> parent_edge;
    std::vector<int> order;
  };
  Directed DirectTowards(int root) const;

  /// CPT clusters (§4.2.2): assigns every relation a cluster id such that
  /// each cluster has a single fact table with N-to-1 paths to its members.
  /// Requires edge uniqueness flags to be filled. Returns cluster id per
  /// relation; `fact_of_cluster` receives the fact relation of each cluster.
  std::vector<int> ComputeClusters(std::vector<int>* fact_of_cluster) const;

  /// True when `r` is N-to-1 toward every other relation on its paths —
  /// i.e. the snowflake fact-table test (every edge away from r points at a
  /// unique side).
  bool IsSnowflakeFact(int r) const;

 private:
  std::vector<Relation> relations_;
  std::vector<Edge> edges_;
};

}  // namespace graph
}  // namespace joinboost
