#include "exec/compressed_scan.h"

#include <algorithm>
#include <memory>

#include "sql/expr_util.h"
#include "storage/compression.h"
#include "util/check.h"

namespace joinboost {
namespace exec {

namespace {

using compression::EncodedInts;
using compression::kBlockSize;

void SplitAnd(const sql::Expr* e, std::vector<const sql::Expr*>* out) {
  if (e->kind == sql::ExprKind::kBinary && e->op == "AND") {
    SplitAnd(e->args[0].get(), out);
    SplitAnd(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// Resolve a column ref against the scan's (qualifier, pruned subset) the
/// same way ExecTable::Find would on the materialized scan output. Returns
/// the subset position or -1.
int ResolveRef(const sql::Expr& ref, const Table& table,
               const std::string& qualifier, const std::vector<int>& cols) {
  if (!ref.table.empty() && ref.table != qualifier) return -1;
  for (size_t c = 0; c < cols.size(); ++c) {
    if (table.schema().field(static_cast<size_t>(cols[c])).name == ref.column) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

/// A conjunct lowered into the code space of one encoded int/string column.
struct Lowered {
  enum Kind { kCmp, kInList, kIsNull };
  Kind kind = kCmp;
  size_t col = 0;          ///< subset position of the anchor column
  std::string op;          ///< kCmp comparison op, column-on-the-left form
  double lit = 0;          ///< kCmp literal, in the double space EvalComparison uses
  bool lit_null = false;   ///< kCmp vs NULL / absent dictionary string: selects nothing
  const InListSet* set = nullptr;  ///< kInList members (codes / int64)
  bool negated = false;            ///< NOT IN / IS NOT NULL
};

std::string MirrorOp(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return op;  // = and <> are symmetric
}

bool IsLiteralKind(sql::ExprKind k) {
  return k == sql::ExprKind::kIntLiteral || k == sql::ExprKind::kFloatLiteral ||
         k == sql::ExprKind::kStringLiteral || k == sql::ExprKind::kNullLiteral;
}

bool IsCmpOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

/// Translate one comparison/IN/IS NULL conjunct into code space. Only shapes
/// whose decoded semantics we can reproduce exactly are lowered: int columns
/// against numeric literals, string columns against string literals (codes
/// compare numerically once the literal is translated through the column's
/// dictionary — same-dictionary comparison semantics), and IS [NOT] NULL.
/// Everything else stays a residual conjunct. `enc` flags the subset columns
/// whose every chunk is int/string-encoded (anchor candidates).
bool LowerConjunct(const sql::Expr& e, const Table& table,
                   const std::string& qualifier, const std::vector<int>& cols,
                   const std::vector<uint8_t>& enc, EvalContext& ectx,
                   Lowered* out) {
  if (e.kind == sql::ExprKind::kIsNull) {
    if (e.args[0]->kind != sql::ExprKind::kColumnRef) return false;
    int c = ResolveRef(*e.args[0], table, qualifier, cols);
    if (c < 0 || !enc[static_cast<size_t>(c)]) return false;
    out->kind = Lowered::kIsNull;
    out->col = static_cast<size_t>(c);
    out->negated = e.negated;
    return true;
  }
  if (e.kind == sql::ExprKind::kInList) {
    if (e.args[0]->kind != sql::ExprKind::kColumnRef) return false;
    int c = ResolveRef(*e.args[0], table, qualifier, cols);
    if (c < 0 || !enc[static_cast<size_t>(c)]) return false;
    const auto& col = table.column(static_cast<size_t>(cols[c]));
    out->kind = Lowered::kInList;
    out->col = static_cast<size_t>(c);
    out->negated = e.negated;
    // Shares the (node, dictionary) translation cache with EvalExpr, so the
    // list translates at most once per dictionary per statement.
    out->set = &GetOrBuildInListSet(e, col->type(), col->dict().get(), ectx);
    return true;
  }
  if (e.kind != sql::ExprKind::kBinary || !IsCmpOp(e.op)) return false;
  const sql::Expr* ref = nullptr;
  const sql::Expr* lit = nullptr;
  std::string op = e.op;
  if (e.args[0]->kind == sql::ExprKind::kColumnRef &&
      IsLiteralKind(e.args[1]->kind)) {
    ref = e.args[0].get();
    lit = e.args[1].get();
  } else if (e.args[1]->kind == sql::ExprKind::kColumnRef &&
             IsLiteralKind(e.args[0]->kind)) {
    ref = e.args[1].get();
    lit = e.args[0].get();
    op = MirrorOp(op);
  } else {
    return false;
  }
  int c = ResolveRef(*ref, table, qualifier, cols);
  if (c < 0 || !enc[static_cast<size_t>(c)]) return false;
  const auto& col = table.column(static_cast<size_t>(cols[c]));
  out->kind = Lowered::kCmp;
  out->col = static_cast<size_t>(c);
  out->op = op;
  if (lit->kind == sql::ExprKind::kNullLiteral) {
    out->lit_null = true;
    return true;
  }
  if (col->type() == TypeId::kString) {
    // Mixed string/number comparisons keep the decoded path's quirks; only
    // string literals lower, via a single dictionary probe. An absent
    // literal behaves like a NULL broadcast: the conjunct selects nothing —
    // the whole-column skip this enables needs no decoding at all.
    if (lit->kind != sql::ExprKind::kStringLiteral) return false;
    int64_t code = col->dict()->Find(lit->str_val);
    if (code == kNullInt64) {
      out->lit_null = true;
    } else {
      out->lit = static_cast<double>(code);
    }
    return true;
  }
  if (lit->kind == sql::ExprKind::kStringLiteral) return false;
  out->lit = lit->kind == sql::ExprKind::kFloatLiteral
                 ? lit->float_val
                 : static_cast<double>(lit->int_val);
  return true;
}

/// Exact per-value predicate — the same math EvalComparison/EvalExpr apply
/// to decoded values (a NULL is selected only by IS NULL).
bool EvalOne(const Lowered& p, int64_t v) {
  switch (p.kind) {
    case Lowered::kCmp: {
      if (p.lit_null || v == kNullInt64) return false;
      double x = static_cast<double>(v);
      double y = p.lit;
      if (p.op == "=") return x == y;
      if (p.op == "<>") return x != y;
      if (p.op == "<") return x < y;
      if (p.op == "<=") return x <= y;
      if (p.op == ">") return x > y;
      return x >= y;
    }
    case Lowered::kInList: {
      const bool null_probe = v == kNullInt64;
      const bool found =
          !null_probe && p.set->set->Contains(static_cast<uint64_t>(v));
      return p.negated ? NotInList(found, null_probe, *p.set) : found;
    }
    case Lowered::kIsNull:
      return (v == kNullInt64) != p.negated;
  }
  return false;
}

enum class Verdict { kNone, kAll, kPartial };

/// Zone-map classification of one block. `reference` is the block minimum,
/// so a block contains NULLs (the int64 minimum sentinel) iff reference is
/// the sentinel — which also means [reference, max] always bounds every
/// value. int64→double conversion is monotone, so the double-space bounds
/// [dmin, dmax] are valid for the double-space comparisons EvalComparison
/// performs. None-match tests stay conservative with NULLs present (NULL
/// rows never satisfy a comparison); all-match additionally requires a
/// NULL-free block.
Verdict Classify(const Lowered& p, const EncodedInts::Block& blk) {
  if (blk.reference == blk.max) {
    // Constant block (bit width 0), including the all-NULL case: one exact
    // evaluation decides every row without touching packed words.
    return EvalOne(p, blk.reference) ? Verdict::kAll : Verdict::kNone;
  }
  const bool has_null = blk.reference == kNullInt64;
  switch (p.kind) {
    case Lowered::kCmp: {
      if (p.lit_null) return Verdict::kNone;
      double dmin = static_cast<double>(blk.reference);
      double dmax = static_cast<double>(blk.max);
      double y = p.lit;
      if (p.op == "=") {
        if (y < dmin || y > dmax) return Verdict::kNone;
      } else if (p.op == "<>") {
        if (!has_null && (y < dmin || y > dmax)) return Verdict::kAll;
      } else if (p.op == "<") {
        if (dmin >= y) return Verdict::kNone;
        if (!has_null && dmax < y) return Verdict::kAll;
      } else if (p.op == "<=") {
        if (dmin > y) return Verdict::kNone;
        if (!has_null && dmax <= y) return Verdict::kAll;
      } else if (p.op == ">") {
        if (dmax <= y) return Verdict::kNone;
        if (!has_null && dmin > y) return Verdict::kAll;
      } else {  // ">="
        if (dmax < y) return Verdict::kNone;
        if (!has_null && dmin >= y) return Verdict::kAll;
      }
      return Verdict::kPartial;
    }
    case Lowered::kInList: {
      // No member can fall inside the block's value range => no row is
      // found. Plain IN selects nothing; NOT IN selects nothing when the
      // list holds a NULL, and otherwise every row but the NULL ones.
      bool overlap = p.set->has_bounds && p.set->max_value >= blk.reference &&
                     p.set->min_value <= blk.max;
      if (overlap) return Verdict::kPartial;
      if (!p.negated || p.set->has_null) return Verdict::kNone;
      return has_null ? Verdict::kPartial : Verdict::kAll;
    }
    case Lowered::kIsNull:
      if (!has_null) {
        return p.negated ? Verdict::kAll : Verdict::kNone;
      }
      return Verdict::kPartial;
  }
  return Verdict::kPartial;
}

}  // namespace

CompressedScanResult TryCompressedScan(const Table& table,
                                       const std::string& qualifier,
                                       const std::vector<int>& cols,
                                       const sql::Expr& filter,
                                       EvalContext& ectx,
                                       const OpContext& ctx) {
  CompressedScanResult res;
  if (ctx.row_mode || !ectx.overrides.empty()) return res;
  const size_t rows = table.num_rows();
  const size_t n_cols = cols.size();
  if (rows == 0 || n_cols == 0) return res;

  // Encoded columns participate via a *shared* global block layout derived
  // from their chunk boundaries: block b covers rows
  // [layout[b].row_begin, row_begin + count) and belongs to chunk
  // layout[b].chunk. A single-chunk column reproduces the flat
  // b * kBlockSize layout exactly. Columns whose chunk boundaries disagree
  // (possible after a column swap) make the scan bail to the
  // decode-everything path — correctness never depends on a shared layout.
  struct BlockSpan {
    size_t row_begin = 0;
    uint32_t count = 0;
    uint32_t chunk = 0;
  };
  std::vector<uint8_t> enc(n_cols, 0);
  const std::vector<size_t>* ref_offsets = nullptr;
  for (size_t c = 0; c < n_cols; ++c) {
    const auto& col = table.column(static_cast<size_t>(cols[c]));
    if (!col->encoded()) continue;
    for (const auto& ch : col->chunks()) {
      // Mixed plain/encoded chunk lists (possible only through exotic swap
      // sequences) are not worth a third code path here.
      if (!ch->encoded) return res;
    }
    if (ref_offsets == nullptr) {
      ref_offsets = &col->chunk_offsets();
    } else if (col->chunk_offsets() != *ref_offsets) {
      return res;
    }
    enc[c] = 1;
  }
  if (ref_offsets == nullptr) return res;  // nothing encoded

  std::vector<BlockSpan> layout;
  // Per-chunk [first, last) global block ids, for chunk-level accounting.
  std::vector<std::pair<size_t, size_t>> chunk_blocks;
  chunk_blocks.reserve(ref_offsets->size() - 1);
  for (size_t ci = 0; ci + 1 < ref_offsets->size(); ++ci) {
    const size_t cbegin = (*ref_offsets)[ci];
    const size_t crows = (*ref_offsets)[ci + 1] - cbegin;
    const size_t first = layout.size();
    for (size_t o = 0; o < crows; o += kBlockSize) {
      layout.push_back({cbegin + o,
                        static_cast<uint32_t>(std::min(kBlockSize, crows - o)),
                        static_cast<uint32_t>(ci)});
    }
    chunk_blocks.emplace_back(first, layout.size());
  }
  // Per-column block pointer arrays in global block order.
  std::vector<std::vector<const EncodedInts::Block*>> iblk(n_cols);
  for (size_t c = 0; c < n_cols; ++c) {
    if (!enc[c]) continue;
    const auto& col = table.column(static_cast<size_t>(cols[c]));
    auto& iv = iblk[c];
    for (const auto& ch : col->chunks()) {
      for (const auto& b : ch->enc_ints->blocks) iv.push_back(&b);
    }
    // Defensive: the column's blocks disagree with the shared layout.
    if (iv.size() != layout.size()) return res;
  }

  std::vector<const sql::Expr*> conjuncts;
  SplitAnd(&filter, &conjuncts);
  std::vector<Lowered> lowered;
  std::vector<const sql::Expr*> residual;
  for (const sql::Expr* cj : conjuncts) {
    Lowered p;
    if (LowerConjunct(*cj, table, qualifier, cols, enc, ectx, &p)) {
      lowered.push_back(std::move(p));
    } else {
      residual.push_back(cj);
    }
  }
  // Without a lowerable conjunct there is no block skipping to gain; the
  // decode-everything path is simpler and no slower.
  if (lowered.empty()) return res;
  // Residual conjuncts are evaluated against a sub-table holding only the
  // columns they reference; bail if any ref cannot resolve inside the
  // subset (the planner prunes to filter-covering subsets, so this is a
  // belt-and-braces check).
  for (const sql::Expr* cj : residual) {
    std::vector<const sql::Expr*> refs;
    sql::CollectColumnRefs(*cj, &refs);
    for (const sql::Expr* r : refs) {
      if (ResolveRef(*r, table, qualifier, cols) < 0) return res;
    }
  }

  const size_t n_blocks = layout.size();

  // ---- Phase A: lowered conjuncts over zone maps + packed blocks ----
  std::vector<uint8_t> mask(rows, 1);
  std::vector<uint8_t> block_alive(n_blocks, 1);
  // Per-(column, block) touch map: the source of every counter, dependent
  // only on predicate outcomes — never on morsel or thread layout.
  std::vector<std::vector<uint8_t>> touched(n_cols);
  for (size_t c = 0; c < n_cols; ++c) {
    if (enc[c]) touched[c].assign(n_blocks, 0);
  }

  util::QueryGuard* guard = ctx.guard;
  for (const Lowered& p : lowered) {
    const EncodedInts::Block* const* pblocks = iblk[p.col].data();
    uint8_t* touch = touched[p.col].data();
    auto process = [&](size_t b) {
      // Per-block guard granularity: a cancel/deadline lands within one
      // block of the trigger even inside the fused scan.
      if (guard != nullptr) guard->Check();
      if (!block_alive[b]) return;  // already dead: no decode, stays skipped
      const EncodedInts::Block& blk = *pblocks[b];
      const size_t base = layout[b].row_begin;
      Verdict v = Classify(p, blk);
      if (v == Verdict::kAll) return;
      if (v == Verdict::kNone) {
        std::fill(mask.begin() + static_cast<ptrdiff_t>(base),
                  mask.begin() + static_cast<ptrdiff_t>(base + blk.count), 0);
        block_alive[b] = 0;
        return;
      }
      touch[b] = 1;
      int64_t buf[kBlockSize];
      compression::UnpackBlock(blk, buf);
      uint8_t* m = mask.data() + base;
      uint8_t alive = 0;
      for (uint32_t i = 0; i < blk.count; ++i) {
        if (m[i] != 0 && !EvalOne(p, buf[i])) m[i] = 0;
        alive |= m[i];
      }
      if (alive == 0) block_alive[b] = 0;
    };
    // Blocks are independent within one conjunct (disjoint mask/touch
    // ranges), so this parallelizes without ordering effects.
    if (ctx.CanParallel(rows) && n_blocks > 1) {
      ctx.pool->ParallelFor(n_blocks, process);
    } else {
      for (size_t b = 0; b < n_blocks; ++b) process(b);
    }
  }
  if (guard != nullptr && ctx.stats != nullptr) {
    // One check per (conjunct, block), independent of scheduling.
    ctx.stats->guard_checks += lowered.size() * n_blocks;
  }

  std::vector<uint32_t> sel;
  sel.reserve(rows / 4);
  for (size_t b = 0; b < n_blocks; ++b) {
    if (!block_alive[b]) continue;
    const size_t base = layout[b].row_begin;
    const size_t cnt = layout[b].count;
    for (size_t i = 0; i < cnt; ++i) {
      if (mask[base + i]) sel.push_back(static_cast<uint32_t>(base + i));
    }
  }

  // Late materialization of column `c` at the (ascending) surviving rows:
  // encoded payloads unpack one block at a time, only for blocks that still
  // hold survivors (a monotone cursor over the global layout maps rows to
  // blocks); plain payloads gather through their own chunk list.
  auto materialize_at = [&](size_t c,
                            const std::vector<uint32_t>& at) -> VectorData {
    // The late-materialization buffer is a tracked allocation: 8 bytes per
    // surviving row, charged against the query's byte budget.
    if (guard != nullptr) guard->ChargeBytes(at.size() * 8);
    const auto& col = table.column(static_cast<size_t>(cols[c]));
    VectorData v;
    v.type = col->type();
    v.dict = col->dict();
    if (enc[c]) {
      std::vector<int64_t> out;
      out.reserve(at.size());
      int64_t buf[kBlockSize];
      size_t bi = 0;
      size_t cur = n_blocks;  // sentinel: no block decoded yet
      for (uint32_t r : at) {
        while (r >= layout[bi].row_begin + layout[bi].count) ++bi;
        if (bi != cur) {
          compression::UnpackBlock(*iblk[c][bi], buf);
          touched[c][bi] = 1;
          cur = bi;
        }
        out.push_back(buf[r - layout[bi].row_begin]);
      }
      v.ints = std::make_shared<const std::vector<int64_t>>(std::move(out));
    } else if (col->type() == TypeId::kFloat64) {
      // Plain column (every chunk plain — partially encoded columns bailed
      // above): gather through the chunk list with a monotone cursor.
      const auto& offs = col->chunk_offsets();
      std::vector<double> out;
      out.reserve(at.size());
      size_t ci = 0;
      const double* src = nullptr;
      size_t cbegin = 0, cend = 0;
      for (uint32_t r : at) {
        if (r >= cend) {
          while (r >= offs[ci + 1]) ++ci;
          src = col->chunk(ci)->dbls->data();
          cbegin = offs[ci];
          cend = offs[ci + 1];
        }
        out.push_back(src[r - cbegin]);
      }
      v.dbls = std::make_shared<const std::vector<double>>(std::move(out));
    } else {
      const auto& offs = col->chunk_offsets();
      std::vector<int64_t> out;
      out.reserve(at.size());
      size_t ci = 0;
      const int64_t* src = nullptr;
      size_t cbegin = 0, cend = 0;
      for (uint32_t r : at) {
        if (r >= cend) {
          while (r >= offs[ci + 1]) ++ci;
          src = col->chunk(ci)->ints->data();
          cbegin = offs[ci];
          cend = offs[ci + 1];
        }
        out.push_back(src[r - cbegin]);
      }
      v.ints = std::make_shared<const std::vector<int64_t>>(std::move(out));
    }
    return v;
  };

  // ---- Phase B: residual conjuncts on progressively-filtered survivors ----
  // Every expression form EvalPredicate covers is per-row independent (and
  // subquery/scalar results are cached in the shared EvalContext), so
  // evaluating on the gathered survivor subset selects exactly the rows the
  // full-table evaluation would.
  for (const sql::Expr* cj : residual) {
    if (sel.empty()) break;
    std::vector<const sql::Expr*> refs;
    sql::CollectColumnRefs(*cj, &refs);
    ExecTable sub;
    sub.rows = sel.size();
    for (size_t c = 0; c < n_cols; ++c) {
      const std::string& name =
          table.schema().field(static_cast<size_t>(cols[c])).name;
      bool used = false;
      for (const sql::Expr* r : refs) {
        if (r->column == name &&
            (r->table.empty() || r->table == qualifier)) {
          used = true;
          break;
        }
      }
      if (!used) continue;
      sub.cols.push_back({qualifier, name, materialize_at(c, sel)});
    }
    std::vector<uint32_t> keep = EvalPredicate(*cj, sub, ectx, false);
    std::vector<uint32_t> next;
    next.reserve(keep.size());
    for (uint32_t k : keep) next.push_back(sel[k]);
    sel = std::move(next);
  }

  // ---- Phase C: materialize the requested columns at the final rows ----
  res.table.rows = sel.size();
  res.table.cols.resize(n_cols);
  auto emit = [&](size_t c) {
    res.table.cols[c] = {
        qualifier, table.schema().field(static_cast<size_t>(cols[c])).name,
        materialize_at(c, sel)};
  };
  if (ctx.CanParallel(rows) && n_cols > 1) {
    ctx.pool->ParallelFor(n_cols, emit);
  } else {
    for (size_t c = 0; c < n_cols; ++c) emit(c);
  }

  for (size_t c = 0; c < n_cols; ++c) {
    if (touched[c].empty()) continue;  // plain column: nothing to account
    size_t t_blocks = 0, t_cells = 0;
    for (size_t b = 0; b < n_blocks; ++b) {
      if (touched[c][b]) {
        ++t_blocks;
        t_cells += layout[b].count;
      }
    }
    if (t_blocks > 0) ++res.cols_decompressed;
    res.cells_decompressed += t_cells;
    res.cells_avoided += rows - t_cells;
    res.blocks_skipped += n_blocks - t_blocks;
  }
  // A chunk counts as pruned when zone maps alone eliminated every one of
  // its blocks — no column ever unpacked a block in it. Like the block
  // counters this depends only on predicate outcomes, never on threads.
  for (const auto& [first, last] : chunk_blocks) {
    if (first == last) continue;  // empty chunk: nothing was skipped
    bool pruned = true;
    for (size_t b = first; b < last && pruned; ++b) {
      if (block_alive[b]) pruned = false;
      for (size_t c = 0; c < n_cols && pruned; ++c) {
        if (!touched[c].empty() && touched[c][b]) pruned = false;
      }
    }
    if (pruned) ++res.chunks_pruned;
  }
  res.used = true;
  return res;
}

}  // namespace exec
}  // namespace joinboost
