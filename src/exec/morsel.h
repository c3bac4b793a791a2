#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "exec/expr_eval.h"
#include "exec/operators.h"
#include "exec/vector.h"

namespace joinboost {
namespace exec {
namespace morsel {

/// Morsel-driven execution helpers (Leis et al., adapted): operator inputs
/// are split into fixed-size row ranges ("morsels") dispatched on the shared
/// thread pool; every worker pulls the next morsel from an atomic cursor, so
/// load balances dynamically. Determinism contract: per-morsel outputs are
/// merged in morsel-index (= row) order and no floating-point reduction ever
/// crosses a morsel boundary in a data-dependent order, so results are
/// bit-identical to single-threaded execution for any thread count and any
/// morsel size.

struct RunStats {
  size_t morsels = 0;  ///< ranges dispatched (1 when run serially)
  size_t stolen = 0;   ///< morsels executed by pool workers, not the caller
};

/// Number of morsels `rows` splits into under `ctx` (1 when serial).
size_t NumMorsels(const OpContext& ctx, size_t rows);

/// Run fn(morsel_index, begin, end) over [0, rows). Parallel when the
/// context allows it and `rows` meets the threshold; otherwise one serial
/// call covering the whole range. Exceptions from any morsel propagate to
/// the caller (smallest morsel index wins). Updates ctx.stats counters.
RunStats ForEachMorsel(const OpContext& ctx, size_t rows,
                       const std::function<void(size_t, size_t, size_t)>& fn);

/// Split [0, rows) into morsel-sized ranges that never cross the given
/// storage-chunk boundaries (`offsets` is a chunk_offsets()-style list
/// starting at 0), so each range decodes from exactly one column segment.
/// With a single chunk this degenerates to the plain morsel split.
std::vector<std::pair<size_t, size_t>> ChunkAlignedRanges(
    const OpContext& ctx, const std::vector<size_t>& offsets, size_t rows);

/// Run fn(range_index, begin, end) over pre-computed ranges, in parallel
/// when the context allows it for `rows` total input rows. Ranges partition
/// the input and outputs land at range-local offsets, so results are
/// bit-identical to a serial pass. Counter semantics match ForEachMorsel
/// (stats updated by the dispatching thread, only when run in parallel).
RunStats ForEachRange(const OpContext& ctx, size_t rows,
                      const std::vector<std::pair<size_t, size_t>>& ranges,
                      const std::function<void(size_t, size_t, size_t)>& fn);

/// Materialize rows [begin, end) of `input` as a standalone table (column
/// payloads are copied; dictionaries are shared). Morsel-local evaluation
/// then works on cache-resident vectors. `columns`, when given, restricts
/// the slice to that subset (ascending input positions — relative column
/// order is preserved so first-match name resolution is unchanged).
ExecTable SliceRows(const ExecTable& input, size_t begin, size_t end,
                    const std::vector<size_t>* columns = nullptr);

/// Input columns `e` could resolve against: every column a ref's
/// first-match lookup might land on (same name; qualifier matching or
/// absent), ascending. Copying only these keeps a row subset's cost
/// proportional to the expression, not the table width, without changing
/// name resolution.
std::vector<size_t> UsedColumns(const sql::Expr& e, const ExecTable& input);

/// True when `e` can be evaluated independently per morsel: no subqueries
/// (would re-run per morsel), no aggregate/window nodes, and no pre-computed
/// override results in `ectx` (those are full-length vectors aligned to the
/// unsliced input).
bool ExprMorselSafe(const sql::Expr& e, const EvalContext& ectx);

/// EvalExpr over morsel slices, results concatenated in morsel order.
/// Falls back to plain EvalExpr when parallelism is off, the input is small,
/// the expression is not morsel-safe, or per-morsel results disagree on
/// type/dictionary (string-literal producing expressions).
VectorData ParallelEvalExpr(const sql::Expr& e, const ExecTable& input,
                            EvalContext& ectx, const OpContext& ctx);

/// EvalPredicate over morsel slices; selected row ids are rebased to the
/// full table and concatenated in morsel order (== ascending row order,
/// exactly like the serial scan).
std::vector<uint32_t> ParallelEvalPredicate(const sql::Expr& e,
                                            const ExecTable& input,
                                            EvalContext& ectx,
                                            const OpContext& ctx);

/// Morsel-parallel VectorData::Gather into a pre-sized output.
VectorData ParallelGather(const VectorData& v,
                          const std::vector<uint32_t>& idx,
                          const OpContext& ctx);

/// Gather with a null mask: idx entries equal to UINT32_MAX produce NULLs
/// (left-outer join right side).
VectorData ParallelGatherWithNulls(const VectorData& v,
                                   const std::vector<uint32_t>& idx,
                                   const OpContext& ctx);

/// ExecTable::GatherRows with morsel-parallel column materialization.
ExecTable ParallelGatherRows(const ExecTable& input,
                             const std::vector<uint32_t>& idx,
                             const OpContext& ctx);

/// Seed for composite-key hashing. The columnar and row-mode key hashers
/// share it (and the per-cell mixing math), so both produce identical
/// 64-bit hashes — partition ownership and table layout cannot diverge
/// between the vectorized and tuple-at-a-time engines.
constexpr uint64_t kKeyHashSeed = 0xABCDEF0123456789ULL;

/// Column-at-a-time key hashing: every key column is mixed into a shared
/// per-row uint64 buffer one column at a time, with the column's type
/// dispatched once per (column, morsel) instead of once per cell. Runs
/// morsel-parallel when the context allows (pure per-row function, so
/// bit-identical for any thread count). Row-mode contexts fall back to
/// per-tuple Value-materializing hashing — the genuine cost structure of a
/// row engine — which computes the same hash values.
std::vector<uint64_t> HashKeys(const std::vector<const VectorData*>& keys,
                               size_t rows, const OpContext& ctx);

/// The array path's stand-in for key hashing: a box over integer key
/// columns (int64 values or dictionary codes), per column the [min, max] of
/// its non-NULL values plus, with `null_slot`, one offset for NULL. A row's
/// offset in the box is its slot. GROUP BY asks for the NULL slot (NULL is
/// one group); a join or IN key with a NULL matches nothing, so it does not.
struct KeyBox {
  std::vector<uint64_t> mins;     ///< per column, the min as unsigned bits
  std::vector<uint64_t> spans;    ///< per column: max - min + 1, or 0
  std::vector<uint64_t> strides;  ///< per column: product of earlier widths
  bool null_slot = false;
  /// Slots in the box; 0 when a column has no non-NULL value and no NULL
  /// slot, so no row has a slot.
  uint64_t size = 0;
};

/// A row whose key has no slot in its box (NULL, or outside [min, max]).
constexpr uint32_t kNoSlot = UINT32_MAX;

/// The array path is taken when the box has at most this many slots per row
/// the operator handles, so its array is no larger than the per-row hashes
/// it replaces.
constexpr uint64_t kBoxSlotsPerRow = 2;

/// True when every key column holds integers (int64 values or dictionary
/// codes), which both sides of an array-path join or IN need.
bool IntKeys(const std::vector<const VectorData*>& keys);

/// Fit `keys` (rows [0, rows)) into `box`. False when a key column is a
/// float or the box would hold more than `limit` slots. Spans and the slot
/// count are computed in unsigned arithmetic that cannot overflow.
bool FitKeyBox(const std::vector<const VectorData*>& keys, size_t rows,
               bool null_slot, uint64_t limit, KeyBox* box);

/// Per-row slots of `keys` in `box` (kNoSlot for a row without one): one
/// column at a time, morsel-parallel like HashKeys.
std::vector<uint32_t> BoxSlots(const KeyBox& box,
                               const std::vector<const VectorData*>& keys,
                               size_t rows, const OpContext& ctx);

/// Partition rows [0, n) by precomputed hash so partition p owns every row
/// whose hash satisfies h % parts == p, with each partition's row list in
/// ascending order. This is the determinism backbone of the parallel join
/// build and aggregation: a key's rows all land in one partition and keep
/// their serial scan order, so bucket chains and per-group accumulation
/// sequences are identical to single-threaded execution for any partition
/// count. The scatter runs morsel-parallel (O(n) total work regardless of
/// `parts`).
std::vector<std::vector<uint32_t>> PartitionRowsByHash(
    const OpContext& ctx, const std::vector<uint64_t>& hashes, size_t parts);

}  // namespace morsel
}  // namespace exec
}  // namespace joinboost
