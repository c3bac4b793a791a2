#include "exec/operators.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "exec/compressed_scan.h"
#include "exec/hash_table.h"
#include "exec/morsel.h"
#include "sql/printer.h"
#include "util/hash.h"

namespace joinboost {
namespace exec {

namespace {

/// Canonical hash-memory accounting for PlanStats: the footprint of a
/// single-table build over `rows` chained rows with `keys` distinct-hash
/// upper bound. Deliberately partition-count independent (the parallel
/// build's per-partition directories can sum to a different power-of-two
/// total), so the counter is bit-stable across thread counts and machines.
size_t CanonicalHashBytes(size_t rows, size_t keys) {
  return rows * sizeof(uint32_t) + hash::SlotCountFor(keys) * hash::kSlotBytes;
}

/// Charge a tracked allocation (hash table, materialization buffer) against
/// the query's byte budget. The amounts mirror the hash_bytes /
/// decompression accounting, so budget charges are as thread-count
/// deterministic as the stats counters they shadow.
void ChargeTracked(const OpContext& ctx, size_t bytes) {
  if (ctx.guard != nullptr) ctx.guard->ChargeBytes(bytes);
}

/// Operator output-seal check point: one cooperative guard check as an
/// operator seals its output table (counted deterministically — one per
/// sealed operator, independent of scheduling).
void GuardSeal(const OpContext& ctx) {
  if (ctx.guard == nullptr) return;
  ctx.guard->Check();
  if (ctx.stats != nullptr) ++ctx.stats->guard_checks;
}

bool CellsEqual(const VectorData& a, size_t ra, const VectorData& b,
                size_t rb) {
  if (a.type == TypeId::kFloat64 || b.type == TypeId::kFloat64) {
    double x = a.type == TypeId::kFloat64
                   ? (*a.dbls)[ra]
                   : static_cast<double>((*a.ints)[ra]);
    double y = b.type == TypeId::kFloat64
                   ? (*b.dbls)[rb]
                   : static_cast<double>((*b.ints)[rb]);
    int64_t bx, by;
    std::memcpy(&bx, &x, 8);
    std::memcpy(&by, &y, 8);
    return bx == by;  // bit equality: NaN groups with NaN
  }
  return (*a.ints)[ra] == (*b.ints)[rb];
}

}  // namespace

bool RowsEqual(const std::vector<const VectorData*>& a, size_t ra,
               const std::vector<const VectorData*>& b, size_t rb) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!CellsEqual(*a[i], ra, *b[i], rb)) return false;
  }
  return true;
}

VectorData AlignDictionary(const VectorData& probe, const VectorData& build) {
  if (!(probe.type == TypeId::kString && build.type == TypeId::kString &&
        probe.dict && build.dict && probe.dict != build.dict)) {
    return probe;
  }
  // Build codes are dense non-negatives or the NULL sentinel, so a string
  // absent from the build dictionary gets a code that matches nothing. NULL
  // stays NULL, which joins and IN never match, as with a shared
  // dictionary.
  constexpr int64_t kAbsentCode = kNullInt64 + 1;
  const Dictionary& pd = *probe.dict;
  const Dictionary& bd = *build.dict;
  std::vector<int64_t> remap(pd.size());
  for (size_t code = 0; code < pd.size(); ++code) {
    int64_t t = bd.Find(pd.At(static_cast<int64_t>(code)));
    remap[code] = t == kNullInt64 ? kAbsentCode : t;
  }
  const std::vector<int64_t>& src = *probe.ints;
  std::vector<int64_t> codes(src.size());
  for (size_t r = 0; r < src.size(); ++r) {
    codes[r] = src[r] == kNullInt64 ? kNullInt64
                                    : remap[static_cast<size_t>(src[r])];
  }
  return VectorData::FromCodes(std::move(codes), build.dict);
}

bool MixedNumericKeys(const VectorData& a, const VectorData& b) {
  return (a.type == TypeId::kInt64 && b.type == TypeId::kFloat64) ||
         (a.type == TypeId::kFloat64 && b.type == TypeId::kInt64);
}

VectorData AlignNumericKey(const VectorData& key, const VectorData& other) {
  if (!MixedNumericKeys(key, other)) return key;
  std::vector<double> out(key.size());
  if (key.type == TypeId::kFloat64) {
    const std::vector<double>& src = *key.dbls;
    for (size_t r = 0; r < src.size(); ++r) {
      out[r] = src[r] == 0.0 ? 0.0 : src[r];
    }
  } else {
    const std::vector<int64_t>& src = *key.ints;
    for (size_t r = 0; r < src.size(); ++r) {
      out[r] =
          src[r] == kNullInt64 ? NullFloat64() : static_cast<double>(src[r]);
    }
  }
  return VectorData::FromDoubles(std::move(out));
}

ExecTable ScanTable(const Table& table, const std::string& qualifier,
                    const OpContext& ctx) {
  return ScanTable(table, qualifier, ctx, ScanSpec{});
}

ExecTable ScanTable(const Table& table, const std::string& qualifier,
                    const OpContext& ctx, const ScanSpec& spec) {
  ExecTable out;
  out.rows = table.num_rows();
  const size_t total_cols = table.num_columns();
  std::vector<int> all_cols;
  if (spec.columns == nullptr) {
    all_cols.reserve(total_cols);
    for (size_t i = 0; i < total_cols; ++i) {
      all_cols.push_back(static_cast<int>(i));
    }
  }
  const std::vector<int>& cols = spec.columns ? *spec.columns : all_cols;
  const bool pay_interop = ctx.interop_scan && table.dataframe();
  if (ctx.compressed_exec && !ctx.row_mode && spec.filter != nullptr &&
      !table.dataframe()) {
    // Compressed execution: evaluate the fused filter directly on encoded
    // payloads and late-materialize only the touched blocks. Falls through
    // to the decode-everything path when the filter/column mix is not
    // coverable; when it runs, the selected rows and output cells are
    // bit-identical to that path.
    JB_CHECK_MSG(spec.ectx != nullptr, "fused scan filter needs an EvalContext");
    CompressedScanResult cres = TryCompressedScan(table, qualifier, cols,
                                                  *spec.filter, *spec.ectx, ctx);
    if (cres.used) {
      GuardSeal(ctx);
      if (ctx.stats != nullptr) {
        plan::PlanStats& s = *ctx.stats;
        ++s.scans;
        s.rows_scan_input += table.num_rows();
        s.rows_scan_output += cres.table.rows;
        s.cols_scanned += cols.size();
        s.cols_pruned += total_cols - cols.size();
        s.cols_decompressed += cres.cols_decompressed;
        s.cells_decompressed += cres.cells_decompressed;
        s.cells_decompress_avoided += cres.cells_avoided;
        s.blocks_skipped += cres.blocks_skipped;
        s.chunks_pruned += cres.chunks_pruned;
      }
      return std::move(cres.table);
    }
  }
  out.cols.resize(cols.size());
  std::vector<uint8_t> col_decompressed(cols.size(), 0);
  auto materialize = [&](size_t c) {
    const size_t i = static_cast<size_t>(cols[c]);
    const auto& col = table.column(i);
    VectorData v;
    v.type = col->type();
    v.dict = col->dict();
    if (col->encoded() || col->num_chunks() > 1) {
      // Real decompression / chunk-stitching cost, like any compressed
      // columnar engine — but only for the columns the plan actually
      // references. Ranges align to segment boundaries, so every range
      // decodes from exactly one chunk; any partition of the rows writes
      // the same bytes, keeping results chunking- and thread-oblivious.
      col_decompressed[c] = col->encoded() ? 1 : 0;
      // The decode buffer below is a tracked allocation: 8 bytes per row
      // regardless of element type.
      ChargeTracked(ctx, col->size() * 8);
      const auto ranges =
          morsel::ChunkAlignedRanges(ctx, col->chunk_offsets(), col->size());
      if (col->type() == TypeId::kFloat64) {
        auto data = std::make_shared<std::vector<double>>(col->size());
        morsel::ForEachRange(ctx, col->size(), ranges,
                             [&](size_t, size_t begin, size_t end) {
                               col->MaterializeDoubles(begin, end,
                                                       data->data() + begin);
                             });
        v.dbls = std::move(data);
      } else {
        auto data = std::make_shared<std::vector<int64_t>>(col->size());
        morsel::ForEachRange(ctx, col->size(), ranges,
                             [&](size_t, size_t begin, size_t end) {
                               col->MaterializeInts(begin, end,
                                                    data->data() + begin);
                             });
        v.ints = std::move(data);
        if (ctx.compressed_exec && !ctx.row_mode) {
          // Compressed sidecar: downstream hash kernels mix dictionary ids
          // and frame-of-reference deltas straight from the packed payload.
          v.enc = col->EncodedIntsView();
        }
      }
    } else if (pay_interop) {
      // DP mode: the dataframe scan converts values element-by-element with
      // null checks, like DuckDB's Pandas scan operator.
      if (col->type() == TypeId::kFloat64) {
        const auto& src = *col->PlainDoubles();
        std::vector<double> dst(src.size());
        for (size_t r = 0; r < src.size(); ++r) {
          double x = src[r];
          dst[r] = IsNullFloat64(x) ? NullFloat64() : x;
        }
        v.dbls = std::make_shared<const std::vector<double>>(std::move(dst));
      } else {
        const auto& src = *col->PlainInts();
        std::vector<int64_t> dst(src.size());
        for (size_t r = 0; r < src.size(); ++r) {
          int64_t x = src[r];
          dst[r] = x == kNullInt64 ? kNullInt64 : x;
        }
        v.ints = std::make_shared<const std::vector<int64_t>>(std::move(dst));
      }
    } else {
      // Zero-copy share of the plain single-chunk payload.
      if (col->type() == TypeId::kFloat64) {
        v.dbls = col->PlainDoubles();
      } else {
        v.ints = col->PlainInts();
      }
    }
    out.cols[c] = {qualifier, table.schema().field(i).name, std::move(v)};
  };
  // Decoding columns dispatch their own chunk-aligned ranges on the pool, so
  // the column loop stays serial except for the interop conversion (which is
  // element-wise per column and embarrassingly parallel across columns);
  // zero-copy shares are too cheap to be worth dispatching. The two dispatch
  // shapes are mutually exclusive so pool ParallelFor calls never nest.
  bool any_ranged = false;
  for (size_t c = 0; c < cols.size() && !any_ranged; ++c) {
    const auto& col = table.column(static_cast<size_t>(cols[c]));
    any_ranged = col->encoded() || col->num_chunks() > 1;
  }
  if (!any_ranged && pay_interop && ctx.CanParallel(table.num_rows()) &&
      cols.size() > 1) {
    ctx.pool->ParallelFor(cols.size(), materialize);
  } else {
    for (size_t c = 0; c < cols.size(); ++c) materialize(c);
  }
  size_t decompressed = 0;
  for (uint8_t d : col_decompressed) decompressed += d;
  if (spec.filter != nullptr) {
    // Fused scan-filter: evaluate the pushed predicate over the (pruned)
    // scan output morsel-by-morsel and gather survivors in morsel order.
    JB_CHECK_MSG(spec.ectx != nullptr, "fused scan filter needs an EvalContext");
    std::vector<uint32_t> sel =
        morsel::ParallelEvalPredicate(*spec.filter, out, *spec.ectx, ctx);
    out = morsel::ParallelGatherRows(out, sel, ctx);
  }
  GuardSeal(ctx);
  if (ctx.stats != nullptr) {
    plan::PlanStats& s = *ctx.stats;
    ++s.scans;
    s.rows_scan_input += table.num_rows();
    s.rows_scan_output += out.rows;
    s.cols_scanned += cols.size();
    s.cols_pruned += total_cols - cols.size();
    s.cols_decompressed += decompressed;
    s.cells_decompressed += decompressed * table.num_rows();
  }
  return out;
}

ExecTable FilterExec(const ExecTable& input, const sql::Expr& pred,
                     EvalContext& ectx, const OpContext& ctx) {
  std::vector<uint32_t> sel =
      morsel::ParallelEvalPredicate(pred, input, ectx, ctx);
  ExecTable out = morsel::ParallelGatherRows(input, sel, ctx);
  GuardSeal(ctx);
  return out;
}

ExecTable ConcatColumns(ExecTable left, ExecTable right) {
  JB_CHECK(left.rows == right.rows);
  for (auto& c : right.cols) left.cols.push_back(std::move(c));
  return left;
}

namespace {

bool AnyNullKey(const std::vector<const VectorData*>& keys, size_t row) {
  for (const auto* k : keys) {
    if (k->IsNull(row)) return true;
  }
  return false;
}

}  // namespace

ExecTable HashJoinExec(const ExecTable& left, const ExecTable& right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys, sql::JoinType type,
                       const OpContext& ctx) {
  JB_CHECK(left_keys.size() == right_keys.size() && !left_keys.empty());
  std::vector<const VectorData*> lk, rk;
  for (int k : left_keys) lk.push_back(&left.cols[static_cast<size_t>(k)].data);
  for (int k : right_keys) {
    rk.push_back(&right.cols[static_cast<size_t>(k)].data);
  }
  // Cross-dictionary string joins: remap the probe (left) side's codes into
  // the build side's code space once per key column, so hashing and equality
  // both run on plain int codes with no string materialization. Both sides
  // of an int64 = float64 key become doubles. Output columns gather from the
  // original inputs, untouched.
  std::vector<VectorData> aligned;
  aligned.reserve(2 * lk.size());  // keep the pointers stable across pushes
  for (size_t i = 0; i < lk.size(); ++i) {
    const VectorData& build = *rk[i];
    aligned.push_back(AlignNumericKey(build, *lk[i]));
    rk[i] = &aligned.back();
    aligned.push_back(AlignNumericKey(AlignDictionary(*lk[i], build), build));
    lk[i] = &aligned.back();
  }

  const bool is_semi = type == sql::JoinType::kSemi;
  const bool is_anti = type == sql::JoinType::kAnti;
  const bool is_left = type == sql::JoinType::kLeft;
  const bool filter_only = is_semi || is_anti;

  // Both paths build on the right input (messages / dimension tables are
  // small) and probe with the left. A probe row with a NULL key cell matches
  // nothing (a left join null-extends it), as in SQL.
  // probe_range(begin, end, lidx, ridx, chain_follows) appends the matches
  // of probe rows [begin, end) in ascending row order, each row's build
  // matches in ascending build-row order.
  std::function<void(size_t, size_t, std::vector<uint32_t>*,
                     std::vector<uint32_t>*, size_t*)>
      probe_range;
  size_t table_bytes = 0;

  // Array path: integer keys whose box (over the build rows) holds at most
  // kBoxSlotsPerRow slots per build and probe row. A key's slot indexes an
  // array of chain heads (inner/left) or a presence array (semi/anti): no
  // hashing and no key comparison.
  morsel::KeyBox box;
  const bool dense =
      !ctx.row_mode && morsel::IntKeys(lk) &&
      morsel::FitKeyBox(rk, right.rows, /*null_slot=*/false,
                        morsel::kBoxSlotsPerRow * (left.rows + right.rows),
                        &box);
  std::vector<uint32_t> rslots, lslots, heads, next;
  std::vector<uint8_t> present;
  std::vector<uint64_t> rhash, lhash;
  std::vector<hash::JoinHashTable> parts;
  if (dense) {
    table_bytes = filter_only
                      ? box.size
                      : (box.size + right.rows) * sizeof(uint32_t);
    ChargeTracked(ctx, table_bytes);
    rslots = morsel::BoxSlots(box, rk, right.rows, ctx);
    if (filter_only) {
      present.assign(box.size, 0);
      for (uint32_t s : rslots) {
        if (s != morsel::kNoSlot) present[s] = 1;
      }
    } else {
      // Linking rows in descending order leaves every chain ascending, the
      // hash path's chain order.
      heads.assign(box.size, hash::kInvalidIndex);
      next.assign(right.rows, hash::kInvalidIndex);
      for (size_t r = right.rows; r-- > 0;) {
        const uint32_t s = rslots[r];
        if (s == morsel::kNoSlot) continue;
        next[r] = heads[s];
        heads[s] = static_cast<uint32_t>(r);
      }
    }
    lslots = morsel::BoxSlots(box, lk, left.rows, ctx);
    probe_range = [&](size_t begin, size_t end, std::vector<uint32_t>* lidx,
                      std::vector<uint32_t>* ridx, size_t* chain_follows) {
      for (size_t l = begin; l < end; ++l) {
        const uint32_t s = lslots[l];
        if (filter_only) {
          const bool matched = s != morsel::kNoSlot && present[s] != 0;
          *chain_follows += matched ? 1 : 0;
          if (matched == is_semi) lidx->push_back(static_cast<uint32_t>(l));
          continue;
        }
        uint32_t r = s == morsel::kNoSlot ? hash::kInvalidIndex : heads[s];
        if (r == hash::kInvalidIndex && is_left) {
          lidx->push_back(static_cast<uint32_t>(l));
          ridx->push_back(UINT32_MAX);
        }
        for (; r != hash::kInvalidIndex; r = next[r]) {
          ++*chain_follows;
          lidx->push_back(static_cast<uint32_t>(l));
          ridx->push_back(r);
        }
      }
    };
  } else {
    // Hash both key sides column-at-a-time (type dispatched once per column
    // per morsel, not once per cell); row-mode profiles keep per-tuple Value
    // hashing inside HashKeys.
    rhash = morsel::HashKeys(rk, right.rows, ctx);

    // Build into a bucket-chained flat table: duplicate rows per key hash
    // are linked through one next[] array, so the build is two flat arrays
    // and zero per-key allocations. Large build sides are hash-partitioned
    // and built by per-thread partitions in parallel: partition p owns every
    // hash with h % P == p, and each builder scans its rows in ascending
    // order, so row chains are identical to the single-table serial build
    // (probe match order — and thus output order — is bit-identical for any
    // P).
    const size_t P =
        ctx.CanParallel(right.rows) ? static_cast<size_t>(ctx.threads) : 1;
    // The build's directory + chain arrays are a tracked allocation, charged
    // with the canonical (partition-independent) footprint before building.
    table_bytes = CanonicalHashBytes(right.rows, right.rows);
    ChargeTracked(ctx, table_bytes);
    parts.resize(P);
    if (P == 1) {
      parts[0].Build(rhash.data(), right.rows);
    } else {
      std::vector<std::vector<uint32_t>> prows =
          morsel::PartitionRowsByHash(ctx, rhash, P);
      // Partitions own disjoint row sets, so they can chain through one
      // shared next[] array with disjoint writes.
      next.resize(right.rows);
      ctx.pool->ParallelFor(P, [&](size_t p) {
        parts[p].BuildPartition(rhash.data(), prows[p].data(),
                                prows[p].size(), next.data());
      });
    }
    lhash = morsel::HashKeys(lk, left.rows, ctx);
    probe_range = [&, P](size_t begin, size_t end, std::vector<uint32_t>* lidx,
                         std::vector<uint32_t>* ridx, size_t* chain_follows) {
      for (size_t l = begin; l < end; ++l) {
        bool matched = false;
        if (!AnyNullKey(lk, l)) {
          const uint64_t h = lhash[l];
          const hash::JoinHashTable& table = parts[P == 1 ? 0 : h % P];
          for (uint32_t r = table.Probe(h); r != hash::kInvalidIndex;
               r = table.Next(r)) {
            ++*chain_follows;
            if (RowsEqual(lk, l, rk, r)) {
              matched = true;
              if (filter_only) break;
              lidx->push_back(static_cast<uint32_t>(l));
              ridx->push_back(r);
            }
          }
        }
        if ((is_semi && matched) || (is_anti && !matched)) {
          lidx->push_back(static_cast<uint32_t>(l));
        } else if (is_left && !matched) {
          lidx->push_back(static_cast<uint32_t>(l));
          ridx->push_back(UINT32_MAX);
        }
      }
    };
  }

  // Morsel-driven probe: per-morsel match lists concatenate in morsel-index
  // order, which is ascending probe-row order — exactly the serial output.
  std::vector<uint32_t> lidx, ridx;
  size_t chain_follows = 0;
  size_t n_morsels = morsel::NumMorsels(ctx, left.rows);
  if (n_morsels > 1) {
    std::vector<std::vector<uint32_t>> lparts(n_morsels), rparts(n_morsels);
    std::vector<size_t> chains(n_morsels, 0);
    morsel::ForEachMorsel(ctx, left.rows,
                          [&](size_t m, size_t begin, size_t end) {
                            probe_range(begin, end, &lparts[m], &rparts[m],
                                        &chains[m]);
                          });
    size_t total = 0;
    for (const auto& p : lparts) total += p.size();
    for (size_t c : chains) chain_follows += c;
    lidx.reserve(total);
    ridx.reserve(total);
    for (size_t m = 0; m < n_morsels; ++m) {
      lidx.insert(lidx.end(), lparts[m].begin(), lparts[m].end());
      ridx.insert(ridx.end(), rparts[m].begin(), rparts[m].end());
    }
  } else {
    probe_range(0, left.rows, &lidx, &ridx, &chain_follows);
  }
  if (ctx.stats != nullptr) {
    // Probes = one lookup per build row + one per probe row. Chain follows
    // count build rows visited while probing (on the array path: matched
    // build rows, one per matched probe row of a semi/anti join); a key's
    // chain is identical for any partition count, so the counter is
    // deterministic across thread counts. Bytes are the array's, or the
    // hash table's canonical single-table footprint.
    ctx.stats->hash_probes += right.rows + left.rows;
    ctx.stats->hash_chain_follows += chain_follows;
    ctx.stats->hash_bytes += table_bytes;
  }

  if (filter_only) {
    ExecTable filtered = morsel::ParallelGatherRows(left, lidx, ctx);
    GuardSeal(ctx);
    return filtered;
  }

  ExecTable out;
  out.rows = lidx.size();
  out.cols.reserve(left.cols.size() + right.cols.size());
  for (const auto& c : left.cols) {
    out.cols.push_back(
        {c.qualifier, c.name, morsel::ParallelGather(c.data, lidx, ctx)});
  }
  for (const auto& c : right.cols) {
    out.cols.push_back({c.qualifier, c.name,
                        morsel::ParallelGatherWithNulls(c.data, ridx, ctx)});
  }
  GuardSeal(ctx);
  return out;
}

namespace {

/// Array-path grouping: group ids in first-occurrence order through an
/// array indexed by each row's slot in the key box (NULL has a slot of its
/// own, so it is one group). False, with `res` untouched, when the keys are
/// not integers, their box holds more than kBoxSlotsPerRow slots per row, or
/// the profile hashes tuple at a time.
bool GroupByBox(const std::vector<const VectorData*>& keys, size_t rows,
                const OpContext& ctx, GroupResult* res) {
  morsel::KeyBox box;
  if (ctx.row_mode ||
      !morsel::FitKeyBox(keys, rows, /*null_slot=*/true,
                         morsel::kBoxSlotsPerRow * rows, &box)) {
    return false;
  }
  const size_t bytes = box.size * sizeof(uint32_t);
  ChargeTracked(ctx, bytes);
  std::vector<uint32_t> slots = morsel::BoxSlots(box, keys, rows, ctx);
  std::vector<uint32_t> gid_of(box.size, hash::kInvalidIndex);
  res->group_ids.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint32_t& g = gid_of[slots[r]];
    if (g == hash::kInvalidIndex) {
      g = static_cast<uint32_t>(res->representatives.size());
      res->representatives.push_back(static_cast<uint32_t>(r));
    }
    res->group_ids[r] = g;
  }
  res->num_groups = res->representatives.size();
  if (ctx.stats != nullptr) {
    // One lookup per row; a "chain follow" per row that finds its group
    // already there, as a hash probe walks one link to it.
    ctx.stats->hash_probes += rows;
    ctx.stats->hash_chain_follows += rows - res->num_groups;
    ctx.stats->hash_bytes += bytes;
  }
  return true;
}

/// Hash-path grouping, serial: find-or-add per row with RowsEqual against
/// each candidate group's representative.
GroupResult GroupHashed(const std::vector<const VectorData*>& keys,
                        size_t rows, const OpContext& ctx) {
  GroupResult res;
  res.group_ids.resize(rows);
  std::vector<uint64_t> hashes = morsel::HashKeys(keys, rows, ctx);
  hash::GroupHashTable table(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint32_t gid = table.FindOrAdd(hashes[r], [&](uint32_t g) {
      return RowsEqual(keys, r, keys, res.representatives[g]);
    });
    if (gid == res.representatives.size()) {
      res.representatives.push_back(static_cast<uint32_t>(r));
    }
    res.group_ids[r] = gid;
  }
  res.num_groups = res.representatives.size();
  ChargeTracked(ctx, CanonicalHashBytes(res.num_groups, res.num_groups));
  if (ctx.stats != nullptr) {
    ctx.stats->hash_probes += rows;
    ctx.stats->hash_chain_follows += table.chain_follows();
    // Group tables are sized by groups, not rows (the directory grows as
    // groups appear), so the canonical footprint uses the group count.
    ctx.stats->hash_bytes +=
        CanonicalHashBytes(res.num_groups, res.num_groups);
  }
  return res;
}

}  // namespace

GroupResult GroupRows(const ExecTable& input, const std::vector<int>& key_cols,
                      const OpContext& ctx) {
  std::vector<const VectorData*> keys;
  for (int k : key_cols) {
    keys.push_back(&input.cols[static_cast<size_t>(k)].data);
  }
  GroupResult res;
  if (GroupByBox(keys, input.rows, ctx, &res)) return res;
  return GroupHashed(keys, input.rows, ctx);
}

namespace {

/// How one aggregate accumulates, picked once per aggregate (not per row).
enum class AccumKind {
  kCountRows,  ///< COUNT(*)
  kCount,      ///< COUNT(x): non-NULL values
  kIntSum,     ///< SUM over an int argument
  kFloatSum,   ///< SUM over a float argument; AVG over any argument
  kIntMinMax,  ///< MIN / MAX over an int argument
  kMinMax,     ///< MIN / MAX over a float argument
};

AccumKind KindOf(const AggSpec& spec, const VectorData& arg) {
  const std::string& f = spec.func;
  if (f == "COUNT") {
    return spec.arg == nullptr ? AccumKind::kCountRows : AccumKind::kCount;
  }
  JB_CHECK_MSG(spec.arg != nullptr, f << "(*) is not supported");
  if (f == "SUM") {
    return arg.type == TypeId::kFloat64 ? AccumKind::kFloatSum
                                        : AccumKind::kIntSum;
  }
  if (f == "AVG") return AccumKind::kFloatSum;
  if (f == "MIN" || f == "MAX") {
    return arg.type == TypeId::kFloat64 ? AccumKind::kMinMax
                                        : AccumKind::kIntMinMax;
  }
  JB_THROW("unknown aggregate " << f);
}

struct AggAccum {
  AccumKind kind = AccumKind::kCountRows;
  std::vector<int64_t> count;  ///< rows (kCountRows) or non-NULL values
  std::vector<int64_t> isum;   ///< kIntSum
  std::vector<double> dsum;    ///< kFloatSum
  std::vector<int64_t> imin;   ///< kIntMinMax
  std::vector<int64_t> imax;   ///< kIntMinMax
  std::vector<double> dmin;    ///< kMinMax
  std::vector<double> dmax;    ///< kMinMax
};

/// Size `acc`'s per-group vectors for `kind` (only those it uses) and zero
/// them.
void InitAccum(AccumKind kind, size_t num_groups, AggAccum* acc) {
  acc->kind = kind;
  acc->count.assign(num_groups, 0);
  if (kind == AccumKind::kIntSum) acc->isum.assign(num_groups, 0);
  if (kind == AccumKind::kFloatSum) acc->dsum.assign(num_groups, 0.0);
  if (kind == AccumKind::kIntMinMax) {
    acc->imin.assign(num_groups, std::numeric_limits<int64_t>::max());
    acc->imax.assign(num_groups, std::numeric_limits<int64_t>::min());
  }
  if (kind == AccumKind::kMinMax) {
    acc->dmin.assign(num_groups, std::numeric_limits<double>::infinity());
    acc->dmax.assign(num_groups, -std::numeric_limits<double>::infinity());
  }
}

/// fn(i, x) for every non-NULL argument value x at rows[i], as a double,
/// with the argument's type dispatched once.
template <class Fn>
void ForEachValue(const VectorData& v, const std::vector<uint32_t>& rows,
                  const Fn& fn) {
  if (v.type == TypeId::kFloat64) {
    const double* x = v.dbls->data();
    for (size_t i = 0; i < rows.size(); ++i) {
      const double d = x[rows[i]];
      if (!IsNullFloat64(d)) fn(i, d);
    }
  } else {
    const int64_t* x = v.ints->data();
    for (size_t i = 0; i < rows.size(); ++i) {
      const int64_t y = x[rows[i]];
      if (y != kNullInt64) fn(i, static_cast<double>(y));
    }
  }
}

/// Aggregate one partition of rows into per-group accumulators. `gid_at[i]`
/// is the group of `rows[i]` (position-aligned, so partitions don't need
/// full-width group-id vectors). Rows are processed in the order given —
/// ascending row id everywhere in this file — which pins the floating-point
/// accumulation order per group regardless of partition count.
void Accumulate(const std::vector<AggSpec>& aggs,
                const std::vector<VectorData>& arg_vals,
                const std::vector<uint32_t>& gid_at,
                const std::vector<uint32_t>& rows, size_t num_groups,
                std::vector<AggAccum>* accums) {
  accums->resize(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    AggAccum& acc = (*accums)[a];
    const VectorData& v = arg_vals[a];
    InitAccum(KindOf(aggs[a], v), num_groups, &acc);
    int64_t* count = acc.count.data();
    switch (acc.kind) {
      case AccumKind::kCountRows:
        for (size_t i = 0; i < rows.size(); ++i) ++count[gid_at[i]];
        break;
      case AccumKind::kCount:
        ForEachValue(v, rows, [&](size_t i, double) { ++count[gid_at[i]]; });
        break;
      case AccumKind::kIntSum: {
        const int64_t* x = v.ints->data();
        int64_t* sum = acc.isum.data();
        for (size_t i = 0; i < rows.size(); ++i) {
          const int64_t y = x[rows[i]];
          if (y == kNullInt64) continue;
          const uint32_t g = gid_at[i];
          ++count[g];
          if (__builtin_add_overflow(sum[g], y, &sum[g])) {
            JB_THROW("SUM(" << sql::ToSql(*aggs[a].arg)
                            << ") overflows int64");
          }
        }
        break;
      }
      case AccumKind::kFloatSum: {
        double* sum = acc.dsum.data();
        ForEachValue(v, rows, [&](size_t i, double x) {
          const uint32_t g = gid_at[i];
          ++count[g];
          sum[g] += x;
        });
        break;
      }
      case AccumKind::kIntMinMax: {
        const int64_t* x = v.ints->data();
        int64_t* lo = acc.imin.data();
        int64_t* hi = acc.imax.data();
        for (size_t i = 0; i < rows.size(); ++i) {
          const int64_t y = x[rows[i]];
          if (y == kNullInt64) continue;
          const uint32_t g = gid_at[i];
          ++count[g];
          lo[g] = std::min(lo[g], y);
          hi[g] = std::max(hi[g], y);
        }
        break;
      }
      case AccumKind::kMinMax: {
        double* lo = acc.dmin.data();
        double* hi = acc.dmax.data();
        ForEachValue(v, rows, [&](size_t i, double x) {
          const uint32_t g = gid_at[i];
          ++count[g];
          lo[g] = std::min(lo[g], x);
          hi[g] = std::max(hi[g], x);
        });
        break;
      }
    }
  }
}

VectorData FinishAgg(const AggSpec& spec, const AggAccum& acc,
                     size_t num_groups) {
  const std::string& f = spec.func;
  switch (acc.kind) {
    case AccumKind::kCountRows:
    case AccumKind::kCount:
      return VectorData::FromInts(acc.count);
    case AccumKind::kIntSum: {
      std::vector<int64_t> out(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        out[g] = acc.count[g] == 0 ? kNullInt64 : acc.isum[g];
      }
      return VectorData::FromInts(std::move(out));
    }
    case AccumKind::kFloatSum: {
      const bool avg = f == "AVG";
      std::vector<double> out(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        out[g] = acc.count[g] == 0
                     ? NullFloat64()
                     : (avg ? acc.dsum[g] / static_cast<double>(acc.count[g])
                            : acc.dsum[g]);
      }
      return VectorData::FromDoubles(std::move(out));
    }
    case AccumKind::kIntMinMax: {
      const auto& src = f == "MIN" ? acc.imin : acc.imax;
      std::vector<int64_t> out(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        out[g] = acc.count[g] == 0 ? kNullInt64 : src[g];
      }
      return VectorData::FromInts(std::move(out));
    }
    case AccumKind::kMinMax: {
      const auto& src = f == "MIN" ? acc.dmin : acc.dmax;
      std::vector<double> out(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        out[g] = acc.count[g] == 0 ? NullFloat64() : src[g];
      }
      return VectorData::FromDoubles(std::move(out));
    }
  }
  JB_THROW("unknown aggregate " << f);
}

/// Grouping + accumulation outcome over pre-evaluated key/argument vectors.
/// `representatives` is empty for the keyless (global) group.
struct GroupedAggs {
  std::vector<uint32_t> representatives;
  size_t num_groups = 0;
  std::vector<AggAccum> accums;
};

/// Group `rows` input rows by the pre-evaluated `key_vals` and accumulate
/// every AggSpec — the core of HashAggExec, shared with MultiAggExec so each
/// grouping set aggregates exactly as a standalone GROUP BY would. Integer
/// keys with a small box take the array path; the parallel hash path
/// partitions by key hash. Both are bit-identical to the serial hash path
/// for any thread count (see the comments inline).
GroupedAggs GroupAndAccumulate(const std::vector<VectorData>& key_vals,
                               const std::vector<AggSpec>& aggs,
                               const std::vector<VectorData>& arg_vals,
                               size_t rows, const OpContext& ctx) {
  GroupedAggs out;
  std::vector<uint32_t> all_rows(rows);
  for (size_t i = 0; i < rows; ++i) all_rows[i] = static_cast<uint32_t>(i);

  if (key_vals.empty()) {
    // Global aggregation: one group (even over an empty input).
    out.num_groups = 1;
    std::vector<uint32_t> gids(rows, 0);
    Accumulate(aggs, arg_vals, gids, all_rows, 1, &out.accums);
    return out;
  }

  std::vector<const VectorData*> keys;
  for (const auto& kv : key_vals) keys.push_back(&kv);
  GroupResult groups;
  const bool boxed = GroupByBox(keys, rows, ctx, &groups);
  if (boxed || !ctx.CanParallel(rows)) {
    // Array path, or the serial hash path: group ids for every row, then
    // one accumulation pass in ascending row order.
    if (!boxed) groups = GroupHashed(keys, rows, ctx);
    out.num_groups = groups.num_groups;
    out.representatives = std::move(groups.representatives);
    Accumulate(aggs, arg_vals, groups.group_ids, all_rows, out.num_groups,
               &out.accums);
    return out;
  }

  // Hash-partition by key, then group + aggregate each partition with a
  // thread-local hash table (intra-query parallelism, §5.5.3). Every group
  // lives entirely in one partition and each partition scans its rows in
  // ascending order, so per-group float accumulation order matches the
  // serial path exactly. The merge step re-sorts groups by representative
  // (= first-occurrence) row, which is precisely the serial GroupRows
  // output order: results are bit-identical to one thread for any
  // partition count.
  size_t P = static_cast<size_t>(ctx.threads);
  std::vector<uint64_t> hashes = morsel::HashKeys(keys, rows, ctx);
  std::vector<std::vector<uint32_t>> prows =
      morsel::PartitionRowsByHash(ctx, hashes, P);
  struct PartResult {
    std::vector<uint32_t> reps;
    std::vector<AggAccum> accums;
    size_t chain_follows = 0;
  };
  std::vector<PartResult> results(P);
  ctx.pool->ParallelFor(P, [&](size_t p) {
    // Partition p owns hashes with h % P == p, rows in ascending order.
    const std::vector<uint32_t>& part_rows = prows[p];
    hash::GroupHashTable table(part_rows.size());
    std::vector<uint32_t> reps;
    std::vector<uint32_t> gids(part_rows.size());
    for (size_t i = 0; i < part_rows.size(); ++i) {
      uint32_t r = part_rows[i];
      uint32_t gid = table.FindOrAdd(hashes[r], [&](uint32_t g) {
        return RowsEqual(keys, r, keys, reps[g]);
      });
      if (gid == reps.size()) reps.push_back(r);
      gids[i] = gid;
    }
    Accumulate(aggs, arg_vals, gids, part_rows, reps.size(),
               &results[p].accums);
    results[p].chain_follows = table.chain_follows();
    results[p].reps = std::move(reps);
  });
  // Merge: order groups by representative row id (== first occurrence, the
  // serial group order), then copy partition-local accumulator slots — a
  // pure relabeling, no arithmetic.
  struct GroupRef {
    uint32_t rep;
    uint32_t part;
    uint32_t local;
  };
  std::vector<GroupRef> order;
  for (uint32_t p = 0; p < P; ++p) {
    for (uint32_t g = 0; g < results[p].reps.size(); ++g) {
      order.push_back({results[p].reps[g], p, g});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const GroupRef& a, const GroupRef& b) { return a.rep < b.rep; });
  const size_t num_groups = order.size();
  out.num_groups = num_groups;
  out.accums.resize(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    AggAccum& dst = out.accums[a];
    InitAccum(KindOf(aggs[a], arg_vals[a]), num_groups, &dst);
    for (size_t g = 0; g < num_groups; ++g) {
      const AggAccum& src = results[order[g].part].accums[a];
      uint32_t lg = order[g].local;
      dst.count[g] = src.count[lg];
      if (!src.dsum.empty()) dst.dsum[g] = src.dsum[lg];
      if (!src.isum.empty()) dst.isum[g] = src.isum[lg];
      if (!src.imin.empty()) dst.imin[g] = src.imin[lg];
      if (!src.imax.empty()) dst.imax[g] = src.imax[lg];
      if (!src.dmin.empty()) dst.dmin[g] = src.dmin[lg];
      if (!src.dmax.empty()) dst.dmax[g] = src.dmax[lg];
    }
  }
  out.representatives.reserve(num_groups);
  for (const GroupRef& gr : order) out.representatives.push_back(gr.rep);
  ChargeTracked(ctx, CanonicalHashBytes(num_groups, num_groups));
  if (ctx.stats != nullptr) {
    // Mirror the serial GroupHashed accounting exactly: one probe per input
    // row, chain follows summed over partitions (a hash's groups all live
    // in one partition, in serial discovery order, so the sum equals the
    // serial count), canonical single-table bytes.
    ctx.stats->hash_probes += rows;
    for (const PartResult& pr : results) {
      ctx.stats->hash_chain_follows += pr.chain_follows;
    }
    ctx.stats->hash_bytes += CanonicalHashBytes(num_groups, num_groups);
  }
  return out;
}

}  // namespace

ExecTable HashAggExec(const ExecTable& input,
                      const std::vector<sql::ExprPtr>& group_by,
                      const std::vector<AggSpec>& aggs, EvalContext& ectx,
                      const OpContext& ctx,
                      std::vector<VectorData>* agg_outputs) {
  // 1. Evaluate key expressions and aggregate arguments (morsel-parallel;
  // falls back to serial for small inputs or override-bearing contexts).
  std::vector<VectorData> key_vals;
  key_vals.reserve(group_by.size());
  for (const auto& g : group_by) {
    key_vals.push_back(morsel::ParallelEvalExpr(*g, input, ectx, ctx));
  }
  std::vector<VectorData> arg_vals(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].arg != nullptr) {
      arg_vals[a] = morsel::ParallelEvalExpr(*aggs[a].arg, input, ectx, ctx);
    }
  }

  // 2. Group + accumulate (shared with MultiAggExec).
  GroupedAggs grouped =
      GroupAndAccumulate(key_vals, aggs, arg_vals, input.rows, ctx);
  const size_t num_groups = grouped.num_groups;

  // 3. Build output: key columns (representative rows) + aggregate columns.
  ExecTable out;
  out.rows = num_groups;
  for (size_t i = 0; i < key_vals.size(); ++i) {
    const sql::Expr& g = *group_by[i];
    std::string qual = g.kind == sql::ExprKind::kColumnRef ? g.table : "";
    std::string name = g.kind == sql::ExprKind::kColumnRef
                           ? g.column
                           : ("__group" + std::to_string(i));
    out.cols.push_back(
        {std::move(qual), std::move(name),
         morsel::ParallelGather(key_vals[i], grouped.representatives, ctx)});
  }
  agg_outputs->clear();
  for (size_t a = 0; a < aggs.size(); ++a) {
    VectorData v = FinishAgg(aggs[a], grouped.accums[a], num_groups);
    agg_outputs->push_back(v);
    out.cols.push_back({"", "__agg" + std::to_string(a), std::move(v)});
  }
  GuardSeal(ctx);
  return out;
}

MultiAggResult MultiAggExec(const ExecTable& input,
                            const std::vector<std::vector<sql::ExprPtr>>& sets,
                            const std::vector<AggSpec>& aggs,
                            EvalContext& ectx, const OpContext& ctx) {
  MultiAggResult res;

  // 1. Union of key expressions across sets (first-appearance order), matched
  // by printed SQL text so `x0` in set 2 reuses set 0's evaluated vector.
  std::vector<const sql::Expr*> union_keys;
  std::vector<std::vector<size_t>> set_keys(sets.size());  // union indices
  for (size_t s = 0; s < sets.size(); ++s) {
    for (const auto& g : sets[s]) {
      std::string printed = sql::ToSql(*g);
      size_t u = 0;
      for (; u < res.union_key_sql.size(); ++u) {
        if (res.union_key_sql[u] == printed) break;
      }
      if (u == res.union_key_sql.size()) {
        res.union_key_sql.push_back(std::move(printed));
        union_keys.push_back(g.get());
      }
      set_keys[s].push_back(u);
    }
  }

  // 2. Evaluate every union key and aggregate argument exactly once over the
  // shared input — this is where the batched path saves O(#sets) re-scans.
  std::vector<VectorData> union_vals;
  union_vals.reserve(union_keys.size());
  for (const auto* g : union_keys) {
    union_vals.push_back(morsel::ParallelEvalExpr(*g, input, ectx, ctx));
  }
  std::vector<VectorData> arg_vals(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].arg != nullptr) {
      arg_vals[a] = morsel::ParallelEvalExpr(*aggs[a].arg, input, ectx, ctx);
    }
  }

  // 3. Group + accumulate per set, reusing the exact HashAggExec machinery:
  // each set's groups, order and float sums are bit-identical to running its
  // plain GROUP BY (serial or morsel-parallel).
  std::vector<GroupedAggs> grouped(sets.size());
  std::vector<std::vector<VectorData>> set_aggs(sets.size());
  size_t total_rows = 0;
  for (size_t s = 0; s < sets.size(); ++s) {
    std::vector<VectorData> key_vals;
    key_vals.reserve(set_keys[s].size());
    for (size_t u : set_keys[s]) key_vals.push_back(union_vals[u]);
    grouped[s] = GroupAndAccumulate(key_vals, aggs, arg_vals, input.rows, ctx);
    set_aggs[s].reserve(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      set_aggs[s].push_back(
          FinishAgg(aggs[a], grouped[s].accums[a], grouped[s].num_groups));
    }
    total_rows += grouped[s].num_groups;
  }
  if (ctx.stats != nullptr) {
    ++ctx.stats->multi_aggs;
    ctx.stats->grouping_sets += sets.size();
  }

  // 4. Stitch the combined output: sets concatenate in declaration order;
  // union keys absent from a row's set are NULL (standard GROUPING SETS
  // semantics), and grouping_id records the set index per row.
  res.table.rows = total_rows;
  for (size_t u = 0; u < union_vals.size(); ++u) {
    const VectorData& src = union_vals[u];
    const sql::Expr& g = *union_keys[u];
    VectorData col;
    col.type = src.type;
    col.dict = src.dict;
    if (src.type == TypeId::kFloat64) {
      std::vector<double> vals;
      vals.reserve(total_rows);
      for (size_t s = 0; s < sets.size(); ++s) {
        bool present = std::find(set_keys[s].begin(), set_keys[s].end(), u) !=
                       set_keys[s].end();
        if (present) {
          for (uint32_t r : grouped[s].representatives) {
            vals.push_back((*src.dbls)[r]);
          }
        } else {
          vals.insert(vals.end(), grouped[s].num_groups, NullFloat64());
        }
      }
      col.dbls = std::make_shared<const std::vector<double>>(std::move(vals));
    } else {
      std::vector<int64_t> vals;
      vals.reserve(total_rows);
      for (size_t s = 0; s < sets.size(); ++s) {
        bool present = std::find(set_keys[s].begin(), set_keys[s].end(), u) !=
                       set_keys[s].end();
        if (present) {
          for (uint32_t r : grouped[s].representatives) {
            vals.push_back((*src.ints)[r]);
          }
        } else {
          vals.insert(vals.end(), grouped[s].num_groups, kNullInt64);
        }
      }
      col.ints = std::make_shared<const std::vector<int64_t>>(std::move(vals));
    }
    std::string qual = g.kind == sql::ExprKind::kColumnRef ? g.table : "";
    std::string name = g.kind == sql::ExprKind::kColumnRef
                           ? g.column
                           : ("__group" + std::to_string(u));
    res.table.cols.push_back({std::move(qual), std::move(name), std::move(col)});
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const TypeId agg_type = set_aggs.empty() ? TypeId::kInt64
                                             : set_aggs[0][a].type;
    VectorData col;
    col.type = agg_type;
    if (agg_type == TypeId::kFloat64) {
      std::vector<double> vals;
      vals.reserve(total_rows);
      for (size_t s = 0; s < sets.size(); ++s) {
        const VectorData& v = set_aggs[s][a];
        vals.insert(vals.end(), v.Dbls().begin(), v.Dbls().end());
      }
      col.dbls = std::make_shared<const std::vector<double>>(std::move(vals));
    } else {
      std::vector<int64_t> vals;
      vals.reserve(total_rows);
      for (size_t s = 0; s < sets.size(); ++s) {
        const VectorData& v = set_aggs[s][a];
        vals.insert(vals.end(), v.Ints().begin(), v.Ints().end());
      }
      col.ints = std::make_shared<const std::vector<int64_t>>(std::move(vals));
    }
    res.agg_outputs.push_back(col);
    res.table.cols.push_back({"", "__agg" + std::to_string(a), std::move(col)});
  }
  {
    std::vector<int64_t> gid;
    gid.reserve(total_rows);
    for (size_t s = 0; s < sets.size(); ++s) {
      gid.insert(gid.end(), grouped[s].num_groups, static_cast<int64_t>(s));
    }
    res.grouping_id = VectorData::FromInts(std::move(gid));
  }
  GuardSeal(ctx);
  return res;
}

ExecTable SortExec(const ExecTable& input,
                   const std::vector<sql::OrderItem>& order, EvalContext& ectx,
                   const OpContext& ctx) {
  std::vector<VectorData> keys;
  keys.reserve(order.size());
  for (const auto& o : order) {
    keys.push_back(morsel::ParallelEvalExpr(*o.expr, input, ectx, ctx));
  }
  std::vector<uint32_t> idx(input.rows);
  for (size_t i = 0; i < input.rows; ++i) idx[i] = static_cast<uint32_t>(i);
  std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const VectorData& v = keys[k];
      int cmp = 0;
      if (v.type == TypeId::kString && v.dict) {
        int64_t ca = (*v.ints)[a];
        int64_t cb = (*v.ints)[b];
        if (ca == kNullInt64 || cb == kNullInt64) {
          cmp = (ca == cb) ? 0 : (ca == kNullInt64 ? 1 : -1);  // nulls last
        } else {
          cmp = v.dict->At(ca).compare(v.dict->At(cb));
          cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
        }
      } else {
        double x = v.type == TypeId::kFloat64
                       ? (*v.dbls)[a]
                       : static_cast<double>((*v.ints)[a]);
        double y = v.type == TypeId::kFloat64
                       ? (*v.dbls)[b]
                       : static_cast<double>((*v.ints)[b]);
        bool nx = v.IsNull(a), ny = v.IsNull(b);
        if (nx || ny) {
          cmp = (nx == ny) ? 0 : (nx ? 1 : -1);
        } else {
          cmp = x < y ? -1 : (x > y ? 1 : 0);
        }
      }
      if (cmp != 0) return order[k].desc ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  ExecTable out = morsel::ParallelGatherRows(input, idx, ctx);
  GuardSeal(ctx);
  return out;
}

ExecTable LimitExec(const ExecTable& input, int64_t limit) {
  if (limit < 0 || static_cast<size_t>(limit) >= input.rows) return input;
  std::vector<uint32_t> idx(static_cast<size_t>(limit));
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<uint32_t>(i);
  return input.GatherRows(idx);
}

VectorData WindowExec(const ExecTable& input, const sql::Expr& win,
                      EvalContext& ectx) {
  JB_CHECK_MSG(win.op == "SUM" || win.op == "COUNT" || win.op == "AVG",
               "window function " << win.op << " not supported");
  // Partition.
  std::vector<uint32_t> part_ids(input.rows, 0);
  size_t num_parts = 1;
  if (!win.partition_by.empty()) {
    ExecTable pt;
    pt.rows = input.rows;
    std::vector<int> cols;
    for (size_t i = 0; i < win.partition_by.size(); ++i) {
      pt.cols.push_back(
          {"", "p" + std::to_string(i), EvalExpr(*win.partition_by[i], input, ectx)});
      cols.push_back(static_cast<int>(i));
    }
    OpContext octx;
    GroupResult gr = GroupRows(pt, cols, octx);
    part_ids = std::move(gr.group_ids);
    num_parts = gr.num_groups;
  }
  // Order.
  std::vector<VectorData> order_keys;
  for (const auto& o : win.order_by) {
    order_keys.push_back(EvalExpr(*o, input, ectx));
  }
  std::vector<uint32_t> idx(input.rows);
  for (size_t i = 0; i < input.rows; ++i) idx[i] = static_cast<uint32_t>(i);
  // With neither PARTITION BY nor ORDER BY every row compares equal, so the
  // stable order is the row order (`COUNT(*) OVER ()` numbers the rows).
  if (!win.partition_by.empty() || !win.order_by.empty()) {
    std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
      if (part_ids[a] != part_ids[b]) return part_ids[a] < part_ids[b];
      for (const auto& v : order_keys) {
        double x = v.type == TypeId::kFloat64
                       ? (*v.dbls)[a]
                       : static_cast<double>((*v.ints)[a]);
        double y = v.type == TypeId::kFloat64
                       ? (*v.dbls)[b]
                       : static_cast<double>((*v.ints)[b]);
        if (x < y) return true;
        if (x > y) return false;
      }
      return false;
    });
  }
  // Argument values.
  VectorData arg;
  bool count_star = win.op == "COUNT" &&
                    (win.args.empty() || win.args[0]->kind == sql::ExprKind::kStar);
  if (!count_star) arg = EvalExpr(*win.args[0], input, ectx);
  // Cumulative aggregate in sorted order within partitions.
  std::vector<double> out(input.rows, 0.0);
  (void)num_parts;
  double run = 0.0;
  int64_t cnt = 0;
  for (size_t i = 0; i < idx.size(); ++i) {
    uint32_t r = idx[i];
    if (i == 0 || part_ids[r] != part_ids[idx[i - 1]]) {
      run = 0.0;
      cnt = 0;
    }
    if (count_star) {
      ++cnt;
      out[r] = static_cast<double>(cnt);
    } else {
      if (!arg.IsNull(r)) {
        run += arg.type == TypeId::kFloat64
                   ? (*arg.dbls)[r]
                   : static_cast<double>((*arg.ints)[r]);
        ++cnt;
      }
      out[r] = win.op == "AVG" && cnt > 0 ? run / static_cast<double>(cnt) : run;
    }
  }
  return VectorData::FromDoubles(std::move(out));
}

}  // namespace exec
}  // namespace joinboost
