#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sql/ast.h"
#include "storage/catalog.h"

namespace joinboost {
namespace plan {

/// Counters produced while planning and executing queries. The engine
/// accumulates them per-database; trainers report the delta over a training
/// run (Figure 9 instrumentation extended with planner effectiveness).
struct PlanStats {
  size_t queries_planned = 0;    ///< SELECTs that went through the planner
  size_t scans = 0;              ///< base-table scans executed
  size_t rows_scan_input = 0;    ///< base-table rows entering scans
  size_t rows_scan_output = 0;   ///< rows surviving fused scan filters
  size_t cols_scanned = 0;       ///< columns materialized by scans
  size_t cols_pruned = 0;        ///< columns skipped via projection pruning
  size_t cols_decompressed = 0;  ///< encoded columns actually decoded
  size_t cells_decompressed = 0; ///< rows x decoded columns (decode volume)
  size_t cells_decompress_avoided = 0; ///< encoded cells compressed execution
                                       ///< never materialized; deterministic
                                       ///< for any thread count
  size_t blocks_skipped = 0;     ///< encoded blocks skipped wholesale via
                                 ///< zone-map (min/max) predicate bounds
  size_t predicates_pushed = 0;  ///< WHERE conjuncts fused into scans
  size_t constants_folded = 0;   ///< predicate subtrees folded to literals
  size_t joins_reordered = 0;    ///< queries whose join order changed
  /// Always 0: the planner has no DP enumerator or plan cache. These three
  /// stay only because perfbench/ still reports them.
  size_t joins_reordered_dp = 0;
  size_t plan_cache_hits = 0;    ///< always 0 (see joins_reordered_dp)
  size_t plan_cache_misses = 0;  ///< always 0 (see joins_reordered_dp)
  size_t morsels_dispatched = 0; ///< morsels run by parallel operators
  size_t morsels_stolen = 0;     ///< morsels executed by pool workers rather
                                 ///< than the dispatching thread
  size_t multi_aggs = 0;         ///< multi-aggregate (GROUPING SETS) operators
  size_t grouping_sets = 0;      ///< grouping sets evaluated by them
  size_t hash_probes = 0;        ///< hash-table lookups (join build + probe,
                                 ///< group find-or-add; one per input row)
  size_t hash_chain_follows = 0; ///< bucket-chain links walked (join probe
                                 ///< matches + same-hash group collisions);
                                 ///< deterministic for any thread count
  size_t hash_bytes = 0;         ///< hash memory at canonical (single-table)
                                 ///< sizing: next[] chains + slot directory
  size_t chunks_created = 0;     ///< column segments sealed (loads, result
                                 ///< materialization, appends, rewrites)
  size_t chunks_rewritten = 0;   ///< pre-existing column segments rebuilt;
                                 ///< appends pin this to 0 (O(new rows))
  size_t chunks_pruned = 0;      ///< horizontal chunks eliminated wholesale
                                 ///< by zone maps (never decoded); like the
                                 ///< other decode counters, deterministic
                                 ///< for any thread count
  size_t guard_checks = 0;       ///< cooperative QueryGuard check points on
                                 ///< governed queries (logical morsels,
                                 ///< conjunct x block, operator seals) —
                                 ///< deterministic for any thread count
  size_t queries_cancelled = 0;  ///< queries aborted via QueryGuard::Cancel
  size_t deadline_aborts = 0;    ///< queries aborted by a guard deadline
  size_t budget_aborts = 0;      ///< queries aborted by the byte budget

  PlanStats& operator+=(const PlanStats& o) {
    queries_planned += o.queries_planned;
    scans += o.scans;
    rows_scan_input += o.rows_scan_input;
    rows_scan_output += o.rows_scan_output;
    cols_scanned += o.cols_scanned;
    cols_pruned += o.cols_pruned;
    cols_decompressed += o.cols_decompressed;
    cells_decompressed += o.cells_decompressed;
    cells_decompress_avoided += o.cells_decompress_avoided;
    blocks_skipped += o.blocks_skipped;
    predicates_pushed += o.predicates_pushed;
    constants_folded += o.constants_folded;
    joins_reordered += o.joins_reordered;
    morsels_dispatched += o.morsels_dispatched;
    morsels_stolen += o.morsels_stolen;
    multi_aggs += o.multi_aggs;
    grouping_sets += o.grouping_sets;
    hash_probes += o.hash_probes;
    hash_chain_follows += o.hash_chain_follows;
    hash_bytes += o.hash_bytes;
    chunks_created += o.chunks_created;
    chunks_rewritten += o.chunks_rewritten;
    chunks_pruned += o.chunks_pruned;
    guard_checks += o.guard_checks;
    queries_cancelled += o.queries_cancelled;
    deadline_aborts += o.deadline_aborts;
    budget_aborts += o.budget_aborts;
    return *this;
  }
  PlanStats operator-(const PlanStats& o) const {
    PlanStats d = *this;
    d.queries_planned -= o.queries_planned;
    d.scans -= o.scans;
    d.rows_scan_input -= o.rows_scan_input;
    d.rows_scan_output -= o.rows_scan_output;
    d.cols_scanned -= o.cols_scanned;
    d.cols_pruned -= o.cols_pruned;
    d.cols_decompressed -= o.cols_decompressed;
    d.cells_decompressed -= o.cells_decompressed;
    d.cells_decompress_avoided -= o.cells_decompress_avoided;
    d.blocks_skipped -= o.blocks_skipped;
    d.predicates_pushed -= o.predicates_pushed;
    d.constants_folded -= o.constants_folded;
    d.joins_reordered -= o.joins_reordered;
    d.morsels_dispatched -= o.morsels_dispatched;
    d.morsels_stolen -= o.morsels_stolen;
    d.multi_aggs -= o.multi_aggs;
    d.grouping_sets -= o.grouping_sets;
    d.hash_probes -= o.hash_probes;
    d.hash_chain_follows -= o.hash_chain_follows;
    d.hash_bytes -= o.hash_bytes;
    d.chunks_created -= o.chunks_created;
    d.chunks_rewritten -= o.chunks_rewritten;
    d.chunks_pruned -= o.chunks_pruned;
    d.guard_checks -= o.guard_checks;
    d.queries_cancelled -= o.queries_cancelled;
    d.deadline_aborts -= o.deadline_aborts;
    d.budget_aborts -= o.budget_aborts;
    return d;
  }
};

/// Degree-of-parallelism policy the engine derives from its EngineProfile.
/// The planner uses it to annotate operators with a DOP estimate (surfaced
/// in EXPLAIN); execution uses the same thresholds, so the annotation
/// matches what the morsel dispatcher will actually do.
struct ParallelPolicy {
  int threads = 1;                     ///< pool-clamped intra-query budget
  size_t morsel_rows = 16384;          ///< rows per dispatched morsel
  size_t threshold_rows = 8192;        ///< below this, operators run serially

  /// DOP estimate for an operator consuming ~`rows` input rows. A zero
  /// threshold disables parallelism, mirroring OpContext::CanParallel.
  int DopForRows(double rows) const {
    if (threads <= 1 || rows < 0 || threshold_rows == 0 ||
        rows < static_cast<double>(threshold_rows)) {
      return 1;
    }
    double morsels =
        (rows + static_cast<double>(morsel_rows) - 1) /
        static_cast<double>(morsel_rows);
    if (morsels >= static_cast<double>(threads)) return threads;
    return morsels < 1 ? 1 : static_cast<int>(morsels);
  }
};

/// Logical operator kinds. The data section (Scan/SubqueryScan/Join/Filter)
/// is executed recursively by the engine; the upper section
/// (Aggregate/Window/Project/Distinct/Sort/Limit) parameterizes the shared
/// finishing pipeline and exists in the tree for EXPLAIN.
enum class OpKind {
  kScan,          ///< base-table scan (column subset + fused filter)
  kSubqueryScan,  ///< derived table: a nested SELECT in FROM
  kJoin,          ///< hash join (inner / left / semi / anti)
  kFilter,        ///< post-join residual predicate
  kNoFrom,        ///< SELECT <exprs> without FROM (one synthetic row)
  kAggregate,     ///< GROUP BY + aggregate evaluation (incl. HAVING)
  kMultiAggregate,///< GROUPING SETS: one shared pass, one histogram per set
  kWindow,        ///< window aggregates over the data section
  kProject,       ///< final select-list projection
  kDistinct,      ///< SELECT DISTINCT row dedup
  kSort,          ///< ORDER BY
  kLimit,         ///< LIMIT
};

struct LogicalOp;
using LogicalOpPtr = std::shared_ptr<LogicalOp>;

struct LogicalOp {
  OpKind kind = OpKind::kScan;
  std::vector<LogicalOpPtr> children;

  // ---- kScan / kSubqueryScan ----
  std::string table;      ///< base table name (kScan)
  std::string qualifier;  ///< alias / effective column qualifier
  /// Pruned scan columns in schema order; empty + !pruned => all columns.
  std::vector<std::string> columns;
  bool pruned = false;           ///< columns is a strict schema subset
  size_t table_columns = 0;      ///< total columns in the base table
  const sql::SelectStmt* subquery = nullptr;  ///< kSubqueryScan body

  /// Fused scan predicate (kScan/kSubqueryScan), residual join predicate
  /// (kJoin) or post-join filter (kFilter). Conjunction, constant-folded.
  sql::ExprPtr filter;

  // ---- kJoin ----
  sql::JoinType join_type = sql::JoinType::kInner;
  sql::ExprPtr condition;  ///< full ON conjunction (equi keys + residual)

  /// Upper-section nodes keep a pointer to the statement they came from.
  const sql::SelectStmt* stmt = nullptr;

  // ---- estimates (explain / join ordering) ----
  double est_rows = -1;   ///< cardinality estimate; -1 = unknown
  int est_cols = -1;      ///< output column estimate; -1 = unknown
  double base_rows = -1;  ///< kScan: actual base-table row count
  int est_dop = 1;        ///< degree-of-parallelism estimate (morsel policy)

  /// Observed output rows, recorded by the executor as it walks the tree
  /// (mutable: the plan is per-query local and the walk is serial). -1 until
  /// the node has run; EXPLAIN ANALYZE renders estimated vs. actual.
  mutable double actual_rows = -1;
};

/// A planned SELECT: the full operator tree for EXPLAIN plus the data-section
/// root the engine executes (null when the statement has no FROM clause).
struct LogicalPlan {
  LogicalOpPtr root;
  LogicalOpPtr data_root;
  const sql::SelectStmt* stmt = nullptr;

  // Rule-application counters for PlanStats.
  size_t predicates_pushed = 0;
  size_t constants_folded = 0;
  bool joins_reordered = false;
};

/// Lower a SELECT into a logical tree and apply the rewrite rules:
/// constant folding, predicate pushdown, projection pruning and greedy join
/// reordering (the FROM relation stays the anchor; among the clauses whose
/// ON condition is satisfiable, the smallest heuristic post-filter estimate
/// joins first).
/// `for_explain` additionally plans FROM-clause subqueries as explain-only
/// children (execution plans them in their own Query call instead).
/// `parallel` annotates operators with a DOP estimate from row counts
/// (defaulted: everything serial, est_dop = 1).
LogicalPlan PlanSelect(const sql::SelectStmt& stmt, const Catalog& catalog,
                       bool for_explain = false,
                       const ParallelPolicy& parallel = ParallelPolicy());

/// Render a plan as indented text, one operator per line, with per-operator
/// row/column estimates. Deterministic (golden-tested).
std::string Explain(const LogicalPlan& plan);

/// One-line description of a single operator (no children, no indent).
std::string OperatorLabel(const LogicalOp& op);

/// Human-readable dump of the execution counters (EXPLAIN-adjacent
/// reporting; the sql_shell surfaces it as \stats). One "name value" line
/// per counter group, deterministic for a deterministic query stream.
std::string FormatStats(const PlanStats& s);

// ---- rewrite rules (rules.cc; exposed for unit tests) ----

/// Fold literal arithmetic/comparisons inside a predicate. `bool_ctx` marks
/// positions where only truthiness matters (WHERE/ON roots and AND/OR/NOT
/// operands), enabling TRUE/FALSE short-circuit simplification. Returns the
/// original pointer when nothing folded; increments *folds per rewrite.
sql::ExprPtr FoldConstants(const sql::ExprPtr& e, bool bool_ctx, int* folds);

/// Heuristic selectivity of one predicate conjunct (1.0 = keeps everything).
double EstimateSelectivity(const sql::Expr& e);

/// True when `e` is an int/float literal; `truthy` receives its boolean value.
bool IsFoldedLiteral(const sql::Expr& e, bool* truthy);

}  // namespace plan
}  // namespace joinboost
