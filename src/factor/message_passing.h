#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/engine.h"
#include "graph/join_graph.h"
#include "semiring/semiring.h"

namespace joinboost {
namespace factor {

/// How a base relation participates in semi-ring aggregation.
struct RelationBinding {
  std::string table;       ///< physical (lifted-copy) table name in the DB
  bool annotated = false;  ///< carries the linear component column(s)
  bool has_c = false;      ///< explicit count/weight column (cuboids); else 1
  std::string c_col = "c";
  std::string s_col = "s";
  std::string q_col = "q";
};

/// Per-tree-node selection predicates: relation id → conjunction of SQL
/// predicate strings over that relation's columns. The signature of the
/// predicates inside a message's subtree is (part of) the message cache key —
/// this is exactly what makes messages shareable between parent and child
/// tree nodes (§5.5.1, Figure 6).
class PredicateSet {
 public:
  void Add(int rel, const std::string& pred) { preds_[rel].push_back(pred); }
  const std::vector<std::string>* For(int rel) const {
    auto it = preds_.find(rel);
    return it == preds_.end() ? nullptr : &it->second;
  }
  bool AnyIn(const std::vector<int>& rels) const;
  std::string Signature(const std::vector<int>& rels) const;
  const std::map<int, std::vector<std::string>>& all() const { return preds_; }

 private:
  std::map<int, std::vector<std::string>> preds_;
};

/// A computed (materialized) message.
struct Message {
  enum class Kind {
    kNone,       ///< identity — dropped entirely (Appendix D.2)
    kSelection,  ///< distinct surviving keys; consumed as a semi-join
    kFull,       ///< aggregated semi-ring annotations per key
  };
  Kind kind = Kind::kNone;
  std::string table;
  std::vector<std::string> keys;
  bool has_s = false;
  bool has_q = false;
};

/// One relation's request in a leaf's batched split evaluation
/// (Factorizer::BatchedHistograms): the attributes to histogram at `root`.
struct HistogramRequest {
  int root = 0;
  std::vector<std::string> attrs;
};

/// A leaf's histogram queries, one per HistogramRequest, each yielding rows
/// (set_id, attrs..., c, s) with set_id = i for attribute i. A query may
/// read from a shared-scan table listed in `shared_tables`; it stays until
/// Factorizer::ReleaseShared (or the cache is cleared).
struct LeafHistograms {
  std::vector<std::string> sql;
  std::vector<std::string> shared_tables;
};

struct FactorizerOptions {
  /// Materialize and reuse messages across tree nodes (JoinBoost). When
  /// false every request recomputes — the LMFAO/Batch behaviour (Fig 16a).
  bool cache_messages = true;
  /// Track the quadratic q component (needed to report absolute variance;
  /// the split criterion itself only needs c and s — §5.3.1 optimization).
  bool track_q = false;
  std::string temp_prefix = "jb_msg_";
};

/// Generates and executes message-passing SQL over a join graph (§3.1), with
/// bidirectional message caching, identity-message elision and selection
/// (semi-join) messages. All data access goes through SQL on the Database.
///
/// Shared scans: each entry point first walks the join tree and plans every
/// missing full message, then materializes them together. Misses with the
/// same FROM/JOIN/WHERE input and aggregates are computed by one GROUP BY
/// GROUPING SETS statement and split into their message tables; a histogram
/// with that input (BatchedHistograms) joins the same statement. Message
/// names, contents, row order and cache keys are those of computing each
/// message on its own, except that two same-input messages with one key
/// list share the first one's table.
///
/// Thread safety: every public entry point serializes on an internal
/// recursive mutex, so one Factorizer may be shared by concurrent callers
/// (e.g. serving sessions racing a training thread). Message materialization
/// runs *while holding* the lock — deliberately: the trainer's message phase
/// is serial by design (intra-query parallelism does the scaling, §5.5), and
/// serializing here guarantees a message table is fully materialized before
/// any other thread can observe its cache entry.
class Factorizer {
 public:
  Factorizer(exec::Database* db, const graph::JoinGraph* graph,
             FactorizerOptions options);
  ~Factorizer();

  void BindRelation(int rel, RelationBinding binding);
  const RelationBinding& binding(int rel) const {
    return bindings_.at(static_cast<size_t>(rel));
  }

  /// Invalidate every cached message whose subtree covers `rel` (after a
  /// residual update of that relation's annotations).
  void BumpEpoch(int rel);

  /// Message from `from` toward `to` under node predicates.
  Message GetMessage(int from, int to, const PredicateSet& preds,
                     const std::string& tag);

  /// Pure selection variant (ignores annotations): the semi-join selectors
  /// used by residual updates (§5.3.1).
  Message GetSelector(int from, int to, const PredicateSet& preds,
                      const std::string& tag);

  /// γ(σ(R⋈)) rooted at `root`: total (c, s, q) aggregate.
  semiring::VarianceElem TotalAggregate(int root, const PredicateSet& preds,
                                        const std::string& tag);

  /// FROM/WHERE fragment + ⊗-product select expressions for an absorption at
  /// `root`: callers compose "SELECT <attr>, SUM(c_expr), SUM(s_expr) ...".
  struct AbsorptionParts {
    std::string from_where;  ///< "FROM root JOIN m1 ON ... WHERE ..."
    std::string c_expr;
    std::string s_expr;
    std::string q_expr;  ///< empty unless track_q
  };
  AbsorptionParts BuildAbsorption(int root, const PredicateSet& preds,
                                  const std::string& tag);

  /// BuildAbsorption for several roots under one leaf's predicates: every
  /// root's missing messages are planned before any is materialized, so
  /// same-input misses share one scan.
  std::vector<AbsorptionParts> BuildAbsorptions(const std::vector<int>& roots,
                                                const PredicateSet& preds,
                                                const std::string& tag);

  /// Batched split evaluation: one histogram query per relation per leaf,
  /// O(#relations) queries instead of O(#features). Builds every request's
  /// absorption like BuildAbsorptions and returns, per request, a query whose
  /// rows with set_id = i form attribute i's (value, c, s) histogram (no q:
  /// the criterion needs only c and s). A request whose absorption has the
  /// input of the leaf's missing messages, over a relation of at least
  /// 8,192 rows, is computed in their shared GROUPING SETS statement and
  /// read back from its table; the others get their own GROUPING SETS
  /// query. The queries are read-only and may run
  /// concurrently. `tag` labels the message-materialization statements
  /// (callers tag the histogram queries when executing them). Call
  /// ReleaseShared once the queries have run.
  LeafHistograms BatchedHistograms(const std::vector<HistogramRequest>& reqs,
                                   const PredicateSet& preds,
                                   const std::string& tag);

  /// Drop the shared-scan tables a BatchedHistograms result reads.
  void ReleaseShared(const LeafHistograms& hists);

  size_t cache_hits() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return cache_hits_;
  }
  size_t cache_misses() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return cache_misses_;
  }
  size_t messages_materialized() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return messages_materialized_;
  }

  /// Drop all cached message tables.
  void ClearCache();

  exec::Database* db() { return db_; }
  const graph::JoinGraph& graph() const { return *graph_; }

 private:
  /// Relations reachable from `u` without crossing `v` (memoized).
  const std::vector<int>& SubtreeRels(int u, int v);

  /// True when every key of `to` finds a partner in `from` (lazily checked,
  /// memoized): required to drop identity messages (Appendix D.2).
  bool RefComplete(int from, int to, const std::vector<std::string>& keys);

  std::string CacheKey(const char* prefix, int from, int to,
                       const PredicateSet& preds);
  std::string NewTempName();

  /// A full message planned but not yet materialized. Its statement is
  ///   CREATE TABLE <table> AS SELECT <source.keys>, <sums> <input>
  ///   GROUP BY <source.keys>
  struct PendingMessage {
    std::string table;
    std::string source;             ///< relation table the keys belong to
    std::vector<std::string> keys;  ///< edge keys (unqualified)
    std::string input;              ///< "FROM … [JOIN …] [WHERE …]"
    std::vector<std::string> sums;  ///< "SUM(…) AS c", "SUM(…) AS s", …
    std::vector<std::string> cache_keys;  ///< entries pointing at `table`
    bool materialized = false;
  };
  /// A batched histogram query waiting to learn whether it shares a scan.
  struct PendingHistogram {
    const std::vector<std::string>* attrs = nullptr;
    AbsorptionParts parts;
    std::vector<std::string> sums;
    /// Its relation is large enough for sharing to pay, and its unqualified
    /// attributes bind only to the root relation, so the shared statement
    /// may qualify them without changing the plan.
    bool shareable = false;
    std::string sql;  ///< read-back query, set when it shares a scan
  };

  /// The recursive join-tree walk behind GetMessage: cache lookups and
  /// accounting as if each message were computed on the spot, but full
  /// messages are only planned (pending_) until Flush.
  Message PlanMessage(int from, int to, const PredicateSet& preds,
                      const std::string& tag);
  std::vector<Message> PlanIncoming(int root, const PredicateSet& preds,
                                    const std::string& tag);
  AbsorptionParts Absorption(int root, const std::vector<Message>& msgs,
                             const PredicateSet& preds) const;
  /// Materialize pending_ in planning order (children before parents). Each
  /// group of pending messages with one input and one aggregate list, plus
  /// the `hists` entries with that input, becomes one GROUPING SETS statement
  /// and one split statement per message. Tables that shared histograms
  /// still read are appended to `shared_tables`.
  void Flush(const std::string& tag, std::vector<PendingHistogram>* hists,
             std::vector<std::string>* shared_tables);
  /// Undo a failed walk or Flush: cache entries of unmaterialized messages
  /// are erased so no entry names a missing table.
  void DiscardPending();
  void DropOwned(const std::string& table);

  /// Serializes all cache state (cache_, subtree_cache_, ref_complete_cache_,
  /// owned_tables_, pending_, counters, temp_counter_, epochs_) and message
  /// materialization. Recursive because the walks re-enter GetSelector and
  /// the public entry points build on each other.
  mutable std::recursive_mutex mu_;
  exec::Database* db_;
  const graph::JoinGraph* graph_;
  FactorizerOptions options_;
  std::vector<RelationBinding> bindings_;
  std::vector<uint64_t> epochs_;

  std::unordered_map<std::string, Message> cache_;
  std::unordered_map<std::string, std::vector<int>> subtree_cache_;
  std::unordered_map<std::string, bool> ref_complete_cache_;
  std::vector<std::string> owned_tables_;
  std::vector<PendingMessage> pending_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  size_t messages_materialized_ = 0;
  uint64_t temp_counter_ = 0;
};

}  // namespace factor
}  // namespace joinboost
