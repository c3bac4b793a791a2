#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace joinboost {
namespace exec {
namespace hash {

/// Cache-friendly hash infrastructure shared by every hash consumer in the
/// engine: joins, GROUP BY / GROUPING SETS aggregation, DISTINCT and the
/// IN-predicate membership sets. The design replaces the former
/// `std::unordered_map<uint64_t, std::vector<uint32_t>>` (a node-based map
/// plus one heap allocation per key) with flat arrays:
///
///   * `FlatHashTable` — open-addressing slot directory. Power-of-two
///     capacity, linear probing, and an 8-bit tag (fingerprint) array probed
///     before the 8-byte hash array, so a miss usually costs one byte-wide
///     cache line touch. Slots are keyed by the full 64-bit key hash;
///     distinct keys that collide on all 64 bits share a slot and are
///     disambiguated by the consumer (exactly like the old map's buckets).
///
///   * `JoinHashTable` — bucket-chained row storage on top of the slot
///     directory: duplicate rows per key hash are linked through a single
///     `next[row]` index array instead of per-bucket vectors, so a build is
///     two flat arrays and zero per-key allocations. Chains are in ascending
///     row order (= insertion order), which is what makes probe output —
///     and therefore every downstream result — bit-identical to the previous
///     implementation for any partition count.
///
///   * `GroupHashTable` — find-or-add of group ids for aggregation; chains
///     of same-hash groups are linked through a per-group array. Group ids
///     are assigned in first-occurrence order of their key.
///
///   * `ValueSet` — flat membership set of 64-bit values for IN (...) list
///     predicates. IN (subquery) probes a `JoinHashTable` like a semi-join.

/// Sentinel for "no row / no group".
constexpr uint32_t kInvalidIndex = UINT32_MAX;

/// Slot count used for an expected number of distinct hashes: the next power
/// of two >= 2x the expectation (load factor <= 0.5 when every key is
/// distinct), floored at 16. Exposed so PlanStats can report a canonical
/// table footprint independent of the runtime partition count.
inline size_t SlotCountFor(size_t expected) {
  size_t want = expected < 8 ? 16 : expected * 2;
  size_t cap = 16;
  while (cap < want) cap <<= 1;
  return cap;
}

/// Bytes per slot: 1 tag + 8 hash + 4 head + 4 tail.
constexpr size_t kSlotBytes = 17;

/// Open-addressing slot directory keyed by 64-bit hashes. Each occupied slot
/// carries two uint32 payload fields (`head`/`tail`), which consumers use as
/// chain anchors. Grows by doubling when the load factor passes 7/8 — chains
/// live outside the table, so a rehash only re-places the occupied slots.
class FlatHashTable {
 public:
  static constexpr size_t kNoSlot = SIZE_MAX;

  FlatHashTable() { Init(0); }

  /// Size the directory for ~`expected` distinct hashes and clear it.
  void Init(size_t expected);

  /// Slot holding `h`, or kNoSlot.
  size_t Find(uint64_t h) const {
    size_t i = Index(h);
    const uint8_t tag = Tag(h);
    while (true) {
      uint8_t t = tags_[i];
      if (t == kEmptyTag) return kNoSlot;
      if (t == tag && hashes_[i] == h) return i;
      i = (i + 1) & mask_;
    }
  }

  /// Slot holding `h`, inserting an empty one (head = tail = kInvalidIndex)
  /// when absent; `*inserted` reports which. May grow (slot indices from
  /// earlier calls are invalidated by growth; consumers only hold indices
  /// across calls inside a single Insert/FindOrAdd step).
  size_t FindOrInsert(uint64_t h, bool* inserted) {
    if ((used_ + 1) * 8 > capacity_ * 7) Grow();
    size_t i = Index(h);
    const uint8_t tag = Tag(h);
    while (true) {
      uint8_t t = tags_[i];
      if (t == kEmptyTag) {
        tags_[i] = tag;
        hashes_[i] = h;
        heads_[i] = kInvalidIndex;
        tails_[i] = kInvalidIndex;
        ++used_;
        *inserted = true;
        return i;
      }
      if (t == tag && hashes_[i] == h) {
        *inserted = false;
        return i;
      }
      i = (i + 1) & mask_;
    }
  }

  uint32_t head(size_t slot) const { return heads_[slot]; }
  uint32_t tail(size_t slot) const { return tails_[slot]; }
  void set_head(size_t slot, uint32_t v) { heads_[slot] = v; }
  void set_tail(size_t slot, uint32_t v) { tails_[slot] = v; }

  size_t size() const { return used_; }
  size_t capacity() const { return capacity_; }
  size_t ByteSize() const { return capacity_ * kSlotBytes; }

 private:
  static constexpr uint8_t kEmptyTag = 0;

  /// 8-bit fingerprint from the high hash bits (the low bits pick the slot
  /// index, so high bits decorrelate the tag from the probe position).
  /// Never kEmptyTag.
  static uint8_t Tag(uint64_t h) {
    uint8_t t = static_cast<uint8_t>(h >> 56);
    return t == kEmptyTag ? 1 : t;
  }

  size_t Index(uint64_t h) const { return static_cast<size_t>(h) & mask_; }

  void Grow();

  std::vector<uint8_t> tags_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> tails_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  size_t used_ = 0;
};

/// Bucket-chained join build table: maps a key hash to the chain of build
/// rows carrying that hash. `Build` owns its chain array; `BuildPartition`
/// links through a caller-provided array shared by all partitions of one
/// build (partitions own disjoint row sets, so the writes are disjoint).
/// Chains are in ascending row order in both modes: `Build` and
/// `BuildPartition` append rows in the order given, and every caller feeds
/// rows ascending — the engine's probe-order determinism contract.
class JoinHashTable {
 public:
  JoinHashTable() = default;
  // `next_` aliases `own_next_`'s heap buffer after Build; a copy would
  // leave it dangling into the source. Moves transfer the buffer, so the
  // alias stays valid.
  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;
  JoinHashTable(JoinHashTable&&) = default;
  JoinHashTable& operator=(JoinHashTable&&) = default;

  /// Build over rows [0, n) with per-row hashes.
  void Build(const uint64_t* hashes, size_t n) {
    own_next_.assign(n, kInvalidIndex);
    next_ = own_next_.data();
    slots_.Init(n);
    for (size_t r = 0; r < n; ++r) {
      InsertRow(hashes[r], static_cast<uint32_t>(r), own_next_.data());
    }
  }

  /// Build over the `m` rows listed in `rows` (ascending global row ids),
  /// chaining through `shared_next` (size = the global row-id space).
  void BuildPartition(const uint64_t* hashes, const uint32_t* rows, size_t m,
                      uint32_t* shared_next) {
    next_ = shared_next;
    slots_.Init(m);
    for (size_t i = 0; i < m; ++i) {
      uint32_t r = rows[i];
      shared_next[r] = kInvalidIndex;
      InsertRow(hashes[r], r, shared_next);
    }
  }

  /// First build row whose key hash is `h`, or kInvalidIndex. Iterate the
  /// duplicates with Next().
  uint32_t Probe(uint64_t h) const {
    size_t slot = slots_.Find(h);
    return slot == FlatHashTable::kNoSlot ? kInvalidIndex : slots_.head(slot);
  }

  uint32_t Next(uint32_t row) const { return next_[row]; }

  size_t num_keys() const { return slots_.size(); }
  size_t ByteSize() const {
    return slots_.ByteSize() + own_next_.size() * sizeof(uint32_t);
  }

 private:
  void InsertRow(uint64_t h, uint32_t r, uint32_t* next) {
    bool inserted = false;
    size_t slot = slots_.FindOrInsert(h, &inserted);
    if (inserted) {
      slots_.set_head(slot, r);
    } else {
      next[slots_.tail(slot)] = r;
    }
    slots_.set_tail(slot, r);
  }

  FlatHashTable slots_;
  std::vector<uint32_t> own_next_;
  const uint32_t* next_ = nullptr;
};

/// Find-or-add table for grouping: each slot anchors a chain of group ids
/// whose keys share one 64-bit hash; the caller resolves true key equality
/// against the group's representative row. Group ids are dense and assigned
/// in first-occurrence order. Chain order is newest-first (it only affects
/// lookup cost, never results — groups are emitted by id, not chain walk).
class GroupHashTable {
 public:
  explicit GroupHashTable(size_t expected_rows = 0) {
    // Group count is unknown up front (bounded by rows but usually far
    // smaller), so start small and let the directory double as groups
    // appear — sizing by rows would zero-fill O(rows) slots for a
    // low-cardinality GROUP BY.
    slots_.Init(std::min<size_t>(expected_rows, kInitialGroups));
    group_next_.reserve(std::min<size_t>(expected_rows, kInitialGroups));
  }

  /// Group id for the key hashed to `h`, creating a new group when no
  /// chained group satisfies `eq(gid)`. A result == the pre-call
  /// num_groups() means a group was created.
  template <class EqFn>
  uint32_t FindOrAdd(uint64_t h, const EqFn& eq) {
    bool inserted = false;
    size_t slot = slots_.FindOrInsert(h, &inserted);
    if (!inserted) {
      for (uint32_t g = slots_.head(slot); g != kInvalidIndex;
           g = group_next_[g]) {
        ++chain_follows_;
        if (eq(g)) return g;
      }
    }
    uint32_t gid = static_cast<uint32_t>(group_next_.size());
    group_next_.push_back(slots_.head(slot));
    slots_.set_head(slot, gid);
    return gid;
  }

  size_t num_groups() const { return group_next_.size(); }
  /// Chain links walked across all FindOrAdd calls. Partition-count
  /// independent: a hash's groups always land in one partition, in the same
  /// discovery order as a serial build.
  size_t chain_follows() const { return chain_follows_; }
  size_t ByteSize() const {
    return slots_.ByteSize() + group_next_.size() * sizeof(uint32_t);
  }

 private:
  static constexpr size_t kInitialGroups = 1024;

  FlatHashTable slots_;
  std::vector<uint32_t> group_next_;  ///< per group: next group, same hash
  size_t chain_follows_ = 0;
};

/// Flat membership set of 64-bit values (int64 values or float64 bit
/// patterns). Replaces the per-evaluation `std::unordered_set<int64_t>` of
/// IN-list predicates. A thin wrapper over the slot directory: SplitMix64 is a
/// bijection, so storing the mixed value as the slot hash loses nothing —
/// hash equality is value equality and no second probe/grow implementation
/// is needed.
class ValueSet {
 public:
  explicit ValueSet(size_t expected = 0) { slots_.Init(expected); }

  void Insert(uint64_t v) {
    bool inserted = false;
    slots_.FindOrInsert(SplitMix64(v), &inserted);
  }

  bool Contains(uint64_t v) const {
    return slots_.Find(SplitMix64(v)) != FlatHashTable::kNoSlot;
  }

  size_t size() const { return slots_.size(); }

 private:
  FlatHashTable slots_;
};

}  // namespace hash
}  // namespace exec
}  // namespace joinboost
