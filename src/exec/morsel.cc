#include "exec/morsel.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "sql/expr_util.h"
#include "storage/compression.h"
#include "util/check.h"
#include "util/hash.h"

namespace joinboost {
namespace exec {
namespace morsel {

size_t NumMorsels(const OpContext& ctx, size_t rows) {
  if (rows == 0) return 0;
  // Governed queries always split into logical morsels — even when executed
  // serially — so the guard is checked (and an abort observed) within one
  // morsel of the trigger for any thread count, and guard_checks counts the
  // same logical quantity regardless of how the morsels were scheduled.
  if (!ctx.CanParallel(rows) && ctx.guard == nullptr) return 1;
  size_t mr = std::max<size_t>(ctx.morsel_rows, 1);
  return (rows + mr - 1) / mr;
}

RunStats ForEachMorsel(const OpContext& ctx, size_t rows,
                       const std::function<void(size_t, size_t, size_t)>& fn) {
  RunStats rs;
  if (rows == 0) return rs;
  util::QueryGuard* guard = ctx.guard;
  if (!ctx.CanParallel(rows)) {
    if (guard == nullptr) {
      fn(0, 0, rows);
      rs.morsels = 1;
      return rs;
    }
    // Serial governed path: same logical morsels as the parallel path, with
    // a cooperative guard check ahead of each one.
    size_t mr = std::max<size_t>(ctx.morsel_rows, 1);
    size_t n = (rows + mr - 1) / mr;
    for (size_t m = 0; m < n; ++m) {
      guard->Check();
      fn(m, m * mr, std::min(rows, m * mr + mr));
    }
    rs.morsels = n;
    if (ctx.stats != nullptr && ctx.count_guard_checks) {
      ctx.stats->guard_checks += n;
    }
    return rs;
  }
  size_t mr = std::max<size_t>(ctx.morsel_rows, 1);
  size_t n = (rows + mr - 1) / mr;
  ThreadPool::ParallelForStats ps = ctx.pool->ParallelFor(n, [&](size_t m) {
    if (guard != nullptr) guard->Check();
    size_t begin = m * mr;
    size_t end = std::min(rows, begin + mr);
    fn(m, begin, end);
  });
  rs.morsels = n;
  rs.stolen = ps.helper_items;
  if (ctx.stats != nullptr) {
    // Updated by the dispatching thread only, after all morsels finished.
    ctx.stats->morsels_dispatched += rs.morsels;
    ctx.stats->morsels_stolen += rs.stolen;
    if (guard != nullptr && ctx.count_guard_checks) {
      ctx.stats->guard_checks += n;
    }
  }
  return rs;
}

std::vector<std::pair<size_t, size_t>> ChunkAlignedRanges(
    const OpContext& ctx, const std::vector<size_t>& offsets, size_t rows) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (rows == 0) return ranges;
  const size_t mr = std::max<size_t>(ctx.morsel_rows, 1);
  size_t prev = 0;
  for (size_t i = 1; i < offsets.size() && prev < rows; ++i) {
    const size_t end = std::min(offsets[i], rows);
    for (size_t b = prev; b < end; b += mr) {
      ranges.emplace_back(b, std::min(end, b + mr));
    }
    prev = std::max(prev, end);
  }
  // Defensive tail in case the offsets list covers fewer than `rows` rows.
  for (size_t b = prev; b < rows; b += mr) {
    ranges.emplace_back(b, std::min(rows, b + mr));
  }
  return ranges;
}

RunStats ForEachRange(const OpContext& ctx, size_t rows,
                      const std::vector<std::pair<size_t, size_t>>& ranges,
                      const std::function<void(size_t, size_t, size_t)>& fn) {
  RunStats rs;
  if (ranges.empty()) return rs;
  util::QueryGuard* guard = ctx.guard;
  if (!ctx.CanParallel(rows) || ranges.size() == 1) {
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (guard != nullptr) guard->Check();
      fn(i, ranges[i].first, ranges[i].second);
    }
    rs.morsels = 1;
    if (guard != nullptr && ctx.stats != nullptr && ctx.count_guard_checks) {
      ctx.stats->guard_checks += ranges.size();
    }
    return rs;
  }
  ThreadPool::ParallelForStats ps =
      ctx.pool->ParallelFor(ranges.size(), [&](size_t i) {
        if (guard != nullptr) guard->Check();
        fn(i, ranges[i].first, ranges[i].second);
      });
  rs.morsels = ranges.size();
  rs.stolen = ps.helper_items;
  if (ctx.stats != nullptr) {
    // Updated by the dispatching thread only, after all ranges finished.
    ctx.stats->morsels_dispatched += rs.morsels;
    ctx.stats->morsels_stolen += rs.stolen;
    if (guard != nullptr && ctx.count_guard_checks) {
      ctx.stats->guard_checks += ranges.size();
    }
  }
  return rs;
}

ExecTable SliceRows(const ExecTable& input, size_t begin, size_t end,
                    const std::vector<size_t>* columns) {
  JB_CHECK(begin <= end && end <= input.rows);
  ExecTable out;
  out.rows = end - begin;
  const size_t n_cols = columns ? columns->size() : input.cols.size();
  out.cols.reserve(n_cols);
  for (size_t ci = 0; ci < n_cols; ++ci) {
    const auto& c = input.cols[columns ? (*columns)[ci] : ci];
    VectorData v;
    v.type = c.data.type;
    v.dict = c.data.dict;
    if (c.data.type == TypeId::kFloat64) {
      const auto& src = *c.data.dbls;
      v.dbls = std::make_shared<const std::vector<double>>(
          src.begin() + static_cast<ptrdiff_t>(begin),
          src.begin() + static_cast<ptrdiff_t>(end));
    } else {
      const auto& src = *c.data.ints;
      v.ints = std::make_shared<const std::vector<int64_t>>(
          src.begin() + static_cast<ptrdiff_t>(begin),
          src.begin() + static_cast<ptrdiff_t>(end));
    }
    out.cols.push_back({c.qualifier, c.name, std::move(v)});
  }
  return out;
}

namespace {

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

bool ExprNodeSafe(const sql::Expr& e) {
  switch (e.kind) {
    case sql::ExprKind::kInSubquery:
    case sql::ExprKind::kAggCall:
    case sql::ExprKind::kWindowAgg:
      return false;
    case sql::ExprKind::kStringLiteral:
      // A string literal in value position mints a private dictionary per
      // evaluation, so per-morsel results could not be concatenated — the
      // runtime homogeneity check would discard all the parallel work.
      return false;
    case sql::ExprKind::kBinary:
      if (IsComparisonOp(e.op)) {
        // Comparison results are plain ints and a literal operand adopts
        // the other side's dictionary: direct string literals are safe.
        for (const auto& a : e.args) {
          if (a && a->kind != sql::ExprKind::kStringLiteral &&
              !ExprNodeSafe(*a)) {
            return false;
          }
        }
        return true;
      }
      break;
    case sql::ExprKind::kInList:
      // List members only feed the membership set; the result is int.
      return !e.args.empty() && e.args[0] && ExprNodeSafe(*e.args[0]);
    default:
      break;
  }
  for (const auto& a : e.args) {
    if (a && !ExprNodeSafe(*a)) return false;
  }
  for (const auto& p : e.partition_by) {
    if (p && !ExprNodeSafe(*p)) return false;
  }
  return e.subquery == nullptr;
}

/// Per-morsel results must agree on type and dictionary before they can be
/// concatenated into one vector.
bool PartsHomogeneous(const std::vector<VectorData>& parts) {
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].type != parts[0].type) return false;
    if (parts[i].dict != parts[0].dict) return false;
  }
  return true;
}

VectorData ConcatParts(const std::vector<VectorData>& parts, size_t rows) {
  VectorData out;
  out.type = parts[0].type;
  out.dict = parts[0].dict;
  if (out.type == TypeId::kFloat64) {
    std::vector<double> data;
    data.reserve(rows);
    for (const auto& p : parts) data.insert(data.end(), p.dbls->begin(),
                                            p.dbls->end());
    out.dbls = std::make_shared<const std::vector<double>>(std::move(data));
  } else {
    std::vector<int64_t> data;
    data.reserve(rows);
    for (const auto& p : parts) data.insert(data.end(), p.ints->begin(),
                                            p.ints->end());
    out.ints = std::make_shared<const std::vector<int64_t>>(std::move(data));
  }
  return out;
}

}  // namespace

std::vector<size_t> UsedColumns(const sql::Expr& e, const ExecTable& input) {
  std::vector<const sql::Expr*> refs;
  sql::CollectColumnRefs(e, &refs);
  std::vector<size_t> used;
  for (size_t c = 0; c < input.cols.size(); ++c) {
    for (const auto* r : refs) {
      if (r->column == input.cols[c].name &&
          (r->table.empty() || r->table == input.cols[c].qualifier)) {
        used.push_back(c);
        break;
      }
    }
  }
  return used;
}

bool ExprMorselSafe(const sql::Expr& e, const EvalContext& ectx) {
  return ectx.overrides.empty() && ExprNodeSafe(e);
}

VectorData ParallelEvalExpr(const sql::Expr& e, const ExecTable& input,
                            EvalContext& ectx, const OpContext& ctx) {
  // Bare column refs are zero-copy in EvalExpr; slicing would only add
  // copies. Same for anything the morsel contract cannot cover.
  size_t n = NumMorsels(ctx, input.rows);
  if (e.kind == sql::ExprKind::kColumnRef || n <= 1 ||
      !ExprMorselSafe(e, ectx)) {
    return EvalExpr(e, input, ectx);
  }
  std::vector<size_t> used = UsedColumns(e, input);
  std::vector<VectorData> parts(n);
  ForEachMorsel(ctx, input.rows, [&](size_t m, size_t begin, size_t end) {
    ExecTable slice = SliceRows(input, begin, end, &used);
    EvalContext local;  // overrides verified empty; no subqueries reachable
    parts[m] = EvalExpr(e, slice, local);
  });
  if (!PartsHomogeneous(parts)) {
    // String-literal expressions mint a private dictionary per evaluation;
    // re-evaluate serially rather than merging dictionaries.
    return EvalExpr(e, input, ectx);
  }
  return ConcatParts(parts, input.rows);
}

std::vector<uint32_t> ParallelEvalPredicate(const sql::Expr& e,
                                            const ExecTable& input,
                                            EvalContext& ectx,
                                            const OpContext& ctx) {
  size_t n = NumMorsels(ctx, input.rows);
  if (n <= 1 || !ExprMorselSafe(e, ectx)) {
    return EvalPredicate(e, input, ectx, ctx.row_mode);
  }
  std::vector<size_t> used = UsedColumns(e, input);
  std::vector<std::vector<uint32_t>> parts(n);
  ForEachMorsel(ctx, input.rows, [&](size_t m, size_t begin, size_t end) {
    ExecTable slice = SliceRows(input, begin, end, &used);
    EvalContext local;
    std::vector<uint32_t> sel =
        EvalPredicate(e, slice, local, /*row_mode=*/false);
    for (uint32_t& r : sel) r += static_cast<uint32_t>(begin);
    parts[m] = std::move(sel);
  });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

namespace {

template <typename T, typename GetFn>
std::shared_ptr<const std::vector<T>> GatherInto(
    const std::vector<uint32_t>& idx, const OpContext& ctx, GetFn get) {
  auto data = std::make_shared<std::vector<T>>(idx.size());
  std::vector<T>& dst = *data;
  ForEachMorsel(ctx, idx.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) dst[i] = get(idx[i]);
  });
  return std::shared_ptr<const std::vector<T>>(std::move(data));
}

}  // namespace

VectorData ParallelGather(const VectorData& v,
                          const std::vector<uint32_t>& idx,
                          const OpContext& ctx) {
  // Governed gathers always take the logical-morsel loop — even serially —
  // so guard checks land within one morsel and guard_checks counts the same
  // structure for any thread count.
  if (!ctx.CanParallel(idx.size()) && ctx.guard == nullptr) {
    return v.Gather(idx);
  }
  VectorData out;
  out.type = v.type;
  out.dict = v.dict;
  if (v.type == TypeId::kFloat64) {
    const auto& src = *v.dbls;
    out.dbls = GatherInto<double>(idx, ctx,
                                  [&src](uint32_t i) { return src[i]; });
  } else {
    const auto& src = *v.ints;
    out.ints = GatherInto<int64_t>(idx, ctx,
                                   [&src](uint32_t i) { return src[i]; });
  }
  return out;
}

VectorData ParallelGatherWithNulls(const VectorData& v,
                                   const std::vector<uint32_t>& idx,
                                   const OpContext& ctx) {
  VectorData out;
  out.type = v.type;
  out.dict = v.dict;
  if (v.type == TypeId::kFloat64) {
    const auto& src = *v.dbls;
    out.dbls = GatherInto<double>(idx, ctx, [&src](uint32_t i) {
      return i == UINT32_MAX ? NullFloat64() : src[i];
    });
  } else {
    const auto& src = *v.ints;
    out.ints = GatherInto<int64_t>(idx, ctx, [&src](uint32_t i) {
      return i == UINT32_MAX ? kNullInt64 : src[i];
    });
  }
  return out;
}

ExecTable ParallelGatherRows(const ExecTable& input,
                             const std::vector<uint32_t>& idx,
                             const OpContext& ctx) {
  if (!ctx.CanParallel(idx.size()) && ctx.guard == nullptr) {
    return input.GatherRows(idx);
  }
  ExecTable out;
  out.rows = idx.size();
  out.cols.reserve(input.cols.size());
  for (const auto& c : input.cols) {
    out.cols.push_back({c.qualifier, c.name, ParallelGather(c.data, idx, ctx)});
  }
  return out;
}

namespace {

/// Mix one key column into the shared hash buffer over [begin, end). The
/// per-cell math matches the row-mode hasher exactly:
/// h = HashCombine(h, cell_bits) — HashCombine SplitMix64-mixes its value
/// argument internally, so no extra finalizer pass is needed per cell.
void MixColumnHash(const VectorData& v, size_t begin, size_t end,
                   uint64_t* out) {
  if (v.type == TypeId::kFloat64) {
    const double* src = v.dbls->data();
    for (size_t r = begin; r < end; ++r) {
      int64_t bits;
      std::memcpy(&bits, &src[r], 8);
      out[r] = HashCombine(out[r], static_cast<uint64_t>(bits));
    }
  } else {
    const int64_t* src = v.ints->data();
    for (size_t r = begin; r < end; ++r) {
      out[r] = HashCombine(out[r], static_cast<uint64_t>(src[r]));
    }
  }
}

/// Mix one encoded key column into the hash buffer straight from the packed
/// payload — no decode buffer. Each cell's bits are reconstructed as
/// reference + delta in unsigned space, which is exactly the value the
/// decoded vector would hold, so hashes (and therefore partition ownership
/// and probe order) are identical to MixColumnHash over decoded ints.
void MixColumnHashEncoded(const EncodedView& view, size_t begin, size_t end,
                          uint64_t* out) {
  // Locate the chunk slice containing `begin`; slices are ordered by
  // row_begin, and block indices restart at every slice.
  size_t si = static_cast<size_t>(
                  std::upper_bound(view.slices.begin(), view.slices.end(),
                                   begin,
                                   [](size_t row, const EncodedView::Slice& s) {
                                     return row < s.row_begin;
                                   }) -
                  view.slices.begin()) -
              1;
  size_t r = begin;
  for (; r < end; ++si) {
    const EncodedView::Slice& slice = view.slices[si];
    const compression::EncodedInts& enc = *slice.enc;
    const size_t sbegin = slice.row_begin;
    const size_t slice_stop = std::min(end, sbegin + enc.size);
    size_t b = (r - sbegin) / compression::kBlockSize;
    for (; r < slice_stop; ++b) {
      const compression::EncodedInts::Block& blk = enc.blocks[b];
      const size_t base = sbegin + b * compression::kBlockSize;
      const size_t stop = std::min(slice_stop, base + blk.count);
      const uint64_t uref = static_cast<uint64_t>(blk.reference);
      const uint8_t bw = blk.bit_width;
      if (bw == 0) {
        for (; r < stop; ++r) out[r] = HashCombine(out[r], uref);
        continue;
      }
      const uint64_t mask = bw == 64 ? ~0ULL : ((1ULL << bw) - 1);
      const uint64_t* words = blk.words.data();
      for (; r < stop; ++r) {
        const size_t bit_pos = (r - base) * bw;
        const size_t word = bit_pos >> 6;
        const size_t offset = bit_pos & 63;
        uint64_t v = words[word] >> offset;
        if (offset + bw > 64) v |= words[word + 1] << (64 - offset);
        out[r] = HashCombine(out[r], uref + (v & mask));
      }
    }
  }
}

/// Row-mode hashing goes through Value materialization — the per-tuple
/// overhead that makes row engines slower on analytics. Produces the same
/// hash values as the columnar path.
uint64_t HashRowSlow(const std::vector<const VectorData*>& cols, size_t row) {
  uint64_t h = kKeyHashSeed;
  for (const auto* c : cols) {
    Value v = c->GetValue(row);
    uint64_t cell = v.type == TypeId::kFloat64
                        ? [&] {
                            int64_t bits;
                            std::memcpy(&bits, &v.d, 8);
                            return static_cast<uint64_t>(bits);
                          }()
                        : static_cast<uint64_t>(v.i);
    h = HashCombine(h, cell);
  }
  return h;
}

}  // namespace

std::vector<uint64_t> HashKeys(const std::vector<const VectorData*>& keys,
                               size_t rows, const OpContext& ctx) {
  std::vector<uint64_t> out(rows, kKeyHashSeed);
  if (ctx.row_mode) {
    for (size_t r = 0; r < rows; ++r) out[r] = HashRowSlow(keys, r);
    return out;
  }
  ForEachMorsel(ctx, rows, [&](size_t, size_t begin, size_t end) {
    for (const auto* k : keys) {
      if (k->enc && k->type != TypeId::kFloat64 && k->enc->rows == rows) {
        MixColumnHashEncoded(*k->enc, begin, end, out.data());
      } else {
        MixColumnHash(*k, begin, end, out.data());
      }
    }
  });
  return out;
}

bool IntKeys(const std::vector<const VectorData*>& keys) {
  for (const auto* k : keys) {
    if (k->type == TypeId::kFloat64) return false;
  }
  return true;
}

bool FitKeyBox(const std::vector<const VectorData*>& keys, size_t rows,
               bool null_slot, uint64_t limit, KeyBox* box) {
  if (!IntKeys(keys)) return false;
  // Slots are uint32 with kNoSlot reserved.
  limit = std::min<uint64_t>(limit, kNoSlot);
  box->null_slot = null_slot;
  box->mins.assign(keys.size(), 0);
  box->spans.assign(keys.size(), 0);
  box->strides.assign(keys.size(), 0);
  uint64_t size = 1;
  for (size_t c = 0; c < keys.size(); ++c) {
    const int64_t* v = keys[c]->ints->data();
    // NULL (INT64_MIN) cannot lower `hi`, and is lifted out of `lo`'s way,
    // so one branch-free pass finds the non-NULL range.
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (size_t r = 0; r < rows; ++r) {
      const int64_t x = v[r];
      lo = std::min(lo, x == kNullInt64 ? std::numeric_limits<int64_t>::max()
                                        : x);
      hi = std::max(hi, x);
    }
    // lo > INT64_MIN, so hi - lo + 1 <= 2^64 - 1 fits in uint64.
    const uint64_t span =
        lo > hi ? 0 : static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (span > limit) return false;
    const uint64_t width = span + (null_slot ? 1 : 0);
    box->mins[c] = static_cast<uint64_t>(lo);
    box->spans[c] = span;
    box->strides[c] = size;
    if (width == 0 || size == 0) {
      size = 0;  // no slots; the remaining columns still must fit the limit
    } else if (width > limit / size) {
      return false;
    } else {
      size *= width;
    }
  }
  box->size = size;
  return true;
}

std::vector<uint32_t> BoxSlots(const KeyBox& box,
                               const std::vector<const VectorData*>& keys,
                               size_t rows, const OpContext& ctx) {
  std::vector<uint32_t> out(rows, box.size == 0 ? kNoSlot : 0);
  if (box.size == 0) return out;
  ForEachMorsel(ctx, rows, [&](size_t, size_t begin, size_t end) {
    for (size_t c = 0; c < keys.size(); ++c) {
      const int64_t* v = keys[c]->ints->data();
      const uint64_t lo = box.mins[c];
      const uint64_t span = box.spans[c];
      const uint64_t stride = box.strides[c];
      // Every offset, the NULL slot's (span * stride) included, stays below
      // box.size <= kNoSlot, so neither products nor sums overflow.
      for (size_t r = begin; r < end; ++r) {
        if (out[r] == kNoSlot) continue;
        const int64_t x = v[r];
        const uint64_t d = static_cast<uint64_t>(x) - lo;
        uint64_t add;
        if (d < span) {
          add = d * stride;
        } else if (x == kNullInt64 && box.null_slot) {
          add = span * stride;
        } else {
          out[r] = kNoSlot;
          continue;
        }
        out[r] = static_cast<uint32_t>(out[r] + add);
      }
    }
  });
  return out;
}

std::vector<std::vector<uint32_t>> PartitionRowsByHash(
    const OpContext& ctx, const std::vector<uint64_t>& hashes, size_t parts) {
  JB_CHECK(parts > 0);
  const size_t n = hashes.size();
  std::vector<std::vector<uint32_t>> out(parts);
  // Morsel-local scatter into (morsel, partition) buffers, then each
  // partition concatenates its buffers in morsel-index order — ascending
  // row order within every partition, the invariant the determinism
  // contract rests on.
  size_t M = NumMorsels(ctx, n);
  std::vector<std::vector<std::vector<uint32_t>>> scatter(
      M, std::vector<std::vector<uint32_t>>(parts));
  // The scatter is a scheduling detail of the partitioned (parallel) path —
  // the serial algorithm has no such pass. Its guard checks still run, but
  // are left out of guard_checks so the counter is thread-count invariant.
  OpContext scatter_ctx = ctx;
  scatter_ctx.count_guard_checks = false;
  ForEachMorsel(scatter_ctx, n, [&](size_t m, size_t begin, size_t end) {
    auto& local = scatter[m];
    for (size_t r = begin; r < end; ++r) {
      local[hashes[r] % parts].push_back(static_cast<uint32_t>(r));
    }
  });
  auto concat = [&](size_t p) {
    std::vector<uint32_t>& rows = out[p];
    size_t total = 0;
    for (size_t m = 0; m < M; ++m) total += scatter[m][p].size();
    rows.reserve(total);
    for (size_t m = 0; m < M; ++m) {
      rows.insert(rows.end(), scatter[m][p].begin(), scatter[m][p].end());
    }
  };
  if (ctx.pool != nullptr && parts > 1) {
    ctx.pool->ParallelFor(parts, concat);
  } else {
    for (size_t p = 0; p < parts; ++p) concat(p);
  }
  return out;
}

}  // namespace morsel
}  // namespace exec
}  // namespace joinboost
