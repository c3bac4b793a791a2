#pragma once

#include <vector>

#include "exec/expr_eval.h"
#include "exec/vector.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"
#include "storage/engine_profile.h"
#include "storage/table.h"
#include "util/query_guard.h"
#include "util/threadpool.h"

namespace joinboost {
namespace exec {

/// Options threaded into operators from the engine profile.
struct OpContext {
  bool row_mode = false;       ///< tuple-at-a-time execution (X-row)
  int threads = 1;             ///< intra-query parallelism
  ThreadPool* pool = nullptr;  ///< shared pool (may be null -> sequential)
  bool interop_scan = false;   ///< dataframe scans pay an extra copy (DP)
  bool compressed_exec = false;  ///< evaluate predicates/hashes on codes
  plan::PlanStats* stats = nullptr;  ///< optional per-query counters
  size_t morsel_rows = 16384;        ///< rows per dispatched morsel
  size_t parallel_threshold = 8192;  ///< inputs below this run serially
  /// Lifecycle guard (cancellation / deadline / byte budget); nullptr =
  /// ungoverned. Checked at morsel boundaries, per compressed block, and at
  /// operator output-seal points; tracked allocations charge ChargeBytes().
  util::QueryGuard* guard = nullptr;
  /// When false, guard checks still run but are not added to
  /// PlanStats::guard_checks. Cleared for scheduling-only passes that exist
  /// solely on the parallel path (e.g. the hash-partition scatter), so the
  /// counter reflects the canonical logical check structure and stays
  /// bit-identical across thread counts.
  bool count_guard_checks = true;

  /// True when an operator consuming `rows` input rows should go parallel.
  /// Row-mode (tuple-at-a-time) profiles always run serially: per-tuple
  /// dispatch is the cost structure being emulated.
  bool CanParallel(size_t rows) const {
    return pool != nullptr && threads > 1 && !row_mode &&
           rows >= parallel_threshold && parallel_threshold > 0;
  }
};

/// Planner-driven scan parameters: column subset + fused filter.
struct ScanSpec {
  /// Schema indices to materialize, ascending; nullptr = all columns.
  const std::vector<int>* columns = nullptr;
  /// Predicate fused into the scan (evaluated over the subset, then rows are
  /// gathered once). Requires `ectx` when set.
  const sql::Expr* filter = nullptr;
  EvalContext* ectx = nullptr;
};

/// Scan a base table into an ExecTable. Compressed columns are decompressed
/// (real CPU); dataframe tables additionally pay the interop materialization
/// pass when `ctx.interop_scan` is set (paper §5.4, DP mode). The ScanSpec
/// overload is the planner's fused scan-filter path: only the requested
/// column subset is materialized/decompressed.
ExecTable ScanTable(const Table& table, const std::string& qualifier,
                    const OpContext& ctx);
ExecTable ScanTable(const Table& table, const std::string& qualifier,
                    const OpContext& ctx, const ScanSpec& spec);

/// Keep the rows selected by `pred`.
ExecTable FilterExec(const ExecTable& input, const sql::Expr& pred,
                     EvalContext& ectx, const OpContext& ctx);

/// Key equality of hash joins, grouping and IN (subquery): row `ra` of `a`
/// equals row `rb` of `b` cell by cell. Float cells compare by bit pattern
/// (NaN equals NaN); an int cell against a float cell compares as doubles.
bool RowsEqual(const std::vector<const VectorData*>& a, size_t ra,
               const std::vector<const VectorData*>& b, size_t rb);

/// `probe` in `build`'s dictionary code space when both are strings over
/// different dictionaries, so hashing and RowsEqual run on plain codes;
/// otherwise `probe` itself. NULL stays NULL, and a string absent from
/// `build`'s dictionary gets a code no build row carries.
VectorData AlignDictionary(const VectorData& probe, const VectorData& build);

/// True when one key column is int64 and the other float64.
bool MixedNumericKeys(const VectorData& a, const VectorData& b);

/// `key` as it hashes and compares against `other`, the key column it is
/// matched with. In an int64 = float64 pair both sides become doubles: an
/// int as its double (NULL as NaN), a float with -0.0 read as 0.0. Doubles
/// then compare equal exactly when their bits do, so keys equal as doubles
/// hash alike and match. Any other pair keeps `key` as it is.
VectorData AlignNumericKey(const VectorData& key, const VectorData& other);

/// Equi-join, building on `right`. `left_keys`/`right_keys` index into the
/// inputs' columns. Inner and left-outer produce concatenated schemas;
/// semi/anti return the filtered left input. A left row with a NULL key
/// cell matches nothing (left-outer null-extends it). Integer keys whose box
/// is small take the array path, others are hashed; both emit the same rows
/// in the same order.
ExecTable HashJoinExec(const ExecTable& left, const ExecTable& right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys, sql::JoinType type,
                       const OpContext& ctx);

/// One aggregate in a grouped select.
struct AggSpec {
  const sql::Expr* node = nullptr;  ///< AST node (identity for overrides)
  std::string func;                 ///< SUM/COUNT/AVG/MIN/MAX
  const sql::Expr* arg = nullptr;   ///< nullptr for COUNT(*)
};

/// Result of grouping: ids and representatives, shared between the hash
/// aggregate and ancestral sampling.
struct GroupResult {
  /// Per input row. NOTE: HashAggExec's parallel path leaves this empty —
  /// it aggregates partition-locally and only needs `representatives`;
  /// consumers that require per-row ids must use GroupRows directly.
  std::vector<uint32_t> group_ids;
  std::vector<uint32_t> representatives;   ///< one input row per group
  size_t num_groups = 0;
};

/// Group rows by the given key columns (NULL is one group). Group ids are
/// assigned in first-occurrence order, on the array path or hashed.
GroupResult GroupRows(const ExecTable& input, const std::vector<int>& key_cols,
                      const OpContext& ctx);

/// Hash aggregation: evaluates key exprs + aggregates; output columns are
/// [keys..., one column per AggSpec] and the override map is filled so the
/// caller can project arbitrary expressions over aggregate results.
ExecTable HashAggExec(const ExecTable& input,
                      const std::vector<sql::ExprPtr>& group_by,
                      const std::vector<AggSpec>& aggs, EvalContext& ectx,
                      const OpContext& ctx,
                      std::vector<VectorData>* agg_outputs);

/// Result of the multi-aggregate (GROUP BY GROUPING SETS) operator: one
/// output row per group of each grouping set, sets concatenated in
/// declaration order. `table` holds the union of all key expressions (in
/// first-appearance order, NULL-extended for rows whose set lacks the key)
/// followed by one column per aggregate; `grouping_id` carries the set index
/// of every row (the GROUPING_ID() pseudo-function).
struct MultiAggResult {
  ExecTable table;
  std::vector<VectorData> agg_outputs;    ///< aligned with the AggSpec list
  VectorData grouping_id;                 ///< int64 set index per output row
  std::vector<std::string> union_key_sql; ///< printed key exprs, union order
};

/// Evaluate every grouping set over one shared input. Key expressions and
/// aggregate arguments are evaluated exactly once; each set then reuses the
/// partitioned-aggregation machinery of HashAggExec, so every set's groups,
/// accumulation order and float results are bit-identical to running that
/// set's plain GROUP BY — serial or parallel, any thread count.
MultiAggResult MultiAggExec(const ExecTable& input,
                            const std::vector<std::vector<sql::ExprPtr>>& sets,
                            const std::vector<AggSpec>& aggs,
                            EvalContext& ectx, const OpContext& ctx);

/// Sort by order items (expressions evaluated against `input`). Sort keys
/// are evaluated morsel-parallel; the comparison sort itself stays serial
/// (stable_sort, deterministic).
ExecTable SortExec(const ExecTable& input,
                   const std::vector<sql::OrderItem>& order, EvalContext& ectx,
                   const OpContext& ctx);

ExecTable LimitExec(const ExecTable& input, int64_t limit);

/// Compute a window aggregate (currently SUM/COUNT/AVG OVER (PARTITION BY
/// ... ORDER BY ...)) returning one value per input row in input order.
VectorData WindowExec(const ExecTable& input, const sql::Expr& win,
                      EvalContext& ectx);

/// Concatenate two exec tables' columns (used by joins).
ExecTable ConcatColumns(ExecTable left, ExecTable right);

}  // namespace exec
}  // namespace joinboost
