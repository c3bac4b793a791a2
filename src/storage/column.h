#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/compression.h"
#include "storage/types.h"

namespace joinboost {

/// Append-only shared string dictionary. Codes are dense int64 starting at 0.
class Dictionary {
 public:
  int64_t GetOrAdd(const std::string& s) {
    // Single hash lookup: try_emplace inserts the next dense code or lands
    // on the existing entry.
    auto [it, inserted] =
        index_.try_emplace(s, static_cast<int64_t>(strings_.size()));
    if (inserted) strings_.push_back(s);
    return it->second;
  }

  /// Returns the code or kNullInt64 when absent.
  int64_t Find(const std::string& s) const {
    auto it = index_.find(s);
    return it == index_.end() ? kNullInt64 : it->second;
  }

  const std::string& At(int64_t code) const { return strings_.at(code); }
  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, int64_t> index_;
};

using DictionaryPtr = std::shared_ptr<Dictionary>;

class ColumnData;
using ColumnPtr = std::shared_ptr<ColumnData>;

/// One immutable horizontal segment of a column. A segment holds either a
/// plain payload or a compressed one (never both) and is never mutated after
/// it is sealed: appends add new segments behind the existing ones and
/// rewrites build replacement segments aside, so concurrent readers keep
/// whatever segment list they captured.
struct ColumnChunk {
  size_t rows = 0;
  bool encoded = false;
  std::shared_ptr<const std::vector<int64_t>> ints;
  std::shared_ptr<const std::vector<double>> dbls;
  std::shared_ptr<const compression::EncodedInts> enc_ints;
  std::shared_ptr<const compression::EncodedDoubles> enc_dbls;
};
using ChunkPtr = std::shared_ptr<const ColumnChunk>;

/// Chunk-aware zero-copy view over a fully encoded int/string column: one
/// slice per chunk, ordered by row_begin. Consumers that operate directly on
/// packed words (hashing) iterate slices so chunk boundaries never change
/// the per-row values they produce.
struct EncodedView {
  struct Slice {
    size_t row_begin = 0;
    std::shared_ptr<const compression::EncodedInts> enc;
  };
  std::vector<Slice> slices;
  size_t rows = 0;
};

/// One column of a table: an ordered list of immutable horizontal chunks
/// (Hyrise-style segments). Each chunk independently holds a plain vector or
/// a compressed payload with its own zone maps, so appends seal new chunks in
/// O(new rows) and never rewrite existing segments. A freshly built column
/// has a single chunk — the monolithic layout — unless a chunk size was
/// requested; all read paths are layout-oblivious and return bit-identical
/// results for any chunking. Plain payloads stay behind shared_ptr so scans
/// can be zero-copy and the engine's *column swap* (paper §5.4, D-Swap) is a
/// pointer exchange of the whole segment list.
class ColumnData {
 public:
  /// The one construction entry point: adopt a sealed chunk list. Chunks must
  /// match `type` (int payloads for kInt64/kString, double payloads for
  /// kFloat64); kString requires a dictionary. An empty list builds a valid
  /// zero-row column. Use ColumnBuilder to produce chunk lists from values.
  static ColumnPtr FromChunks(TypeId type, std::vector<ChunkPtr> chunks,
                              DictionaryPtr dict = nullptr);

  TypeId type() const { return type_; }
  size_t size() const { return length_; }
  /// True when any chunk is compressed (reading it costs a decode).
  bool encoded() const;
  const DictionaryPtr& dict() const { return dict_; }

  /// Chunk layout. `chunk_offsets()` has num_chunks()+1 entries; chunk i
  /// covers rows [offsets[i], offsets[i+1]). There is always at least one
  /// chunk (a zero-row column has one empty chunk).
  size_t num_chunks() const { return chunks_.size(); }
  const ChunkPtr& chunk(size_t i) const { return chunks_[i]; }
  const std::vector<ChunkPtr>& chunks() const { return chunks_; }
  const std::vector<size_t>& chunk_offsets() const { return offsets_; }

  /// Monotonic payload version: bumped by every value-changing mutation
  /// (ReplaceInts/ReplaceDoubles/SwapPayload). Encode/Decode/Rechunk keep the
  /// version — they change representation, not values.
  uint64_t version() const { return version_; }

  /// Compress every plain chunk (real CPU cost). No-op when already encoded.
  void Encode();

  /// Decompress every chunk back to plain storage. No-op when plain.
  void Decode();

  /// Re-slice into uniform chunks of `rows_per_chunk` rows (0 = one chunk).
  /// Values, version, and encoded state are preserved. Used at load time to
  /// apply EngineProfile::chunk_rows.
  void Rechunk(size_t rows_per_chunk);

  /// Plain int64 payload; requires a single-chunk plain int/string column.
  /// Multi-chunk consumers use MaterializeInts/ScanInts instead.
  const std::shared_ptr<const std::vector<int64_t>>& PlainInts() const;
  /// Plain float64 payload; requires a single-chunk plain float column.
  const std::shared_ptr<const std::vector<double>>& PlainDoubles() const;

  /// Decoded copies (decompressing if needed) — used by scans of compressed
  /// tables, which pay the decompression each query like a real engine.
  std::vector<int64_t> DecodeInts() const;
  std::vector<double> DecodeDoubles() const;

  /// Per-column scan entry points: zero-copy share of the plain payload when
  /// the column is a single plain chunk, or a freshly stitched/decompressed
  /// copy otherwise (the per-query decode cost a real columnar engine pays).
  /// These are what the planner's projection pruning avoids calling for
  /// unreferenced columns.
  std::shared_ptr<const std::vector<int64_t>> ScanInts() const;
  std::shared_ptr<const std::vector<double>> ScanDoubles() const;

  /// Decode rows [begin, end) into `out` (which holds end-begin slots),
  /// handling chunk straddling and non-block-aligned edges. This is the
  /// chunk-aligned morsel decode primitive: any partition of [0, size())
  /// produces the same bytes.
  void MaterializeInts(size_t begin, size_t end, int64_t* out) const;
  void MaterializeDoubles(size_t begin, size_t end, double* out) const;

  /// Zero-copy chunked view of the compressed payload for hashing directly
  /// on packed words. Null unless every chunk is encoded and the column is
  /// int/string typed.
  std::shared_ptr<const EncodedView> EncodedIntsView() const;

  /// Replace the payload wholesale (CREATE-style rewrite; single plain chunk).
  void ReplaceInts(std::vector<int64_t> values);
  void ReplaceDoubles(std::vector<double> values);

  /// In-memory footprint in bytes (plain or compressed, summed over chunks).
  size_t ByteSize() const;

  /// Pointer-swap segment lists with another column of the same type.
  /// This is the <100-LOC engine patch the paper adds to DuckDB.
  void SwapPayload(ColumnData& other);

  Value GetValue(size_t row) const;

 private:
  size_t ChunkIndexOf(size_t row) const;

  TypeId type_ = TypeId::kInt64;
  size_t length_ = 0;
  uint64_t version_ = 0;
  std::vector<ChunkPtr> chunks_;
  std::vector<size_t> offsets_;  // size num_chunks()+1, offsets_[0] == 0
  DictionaryPtr dict_;
};

/// Builds chunked columns from values. The single construction path for
/// tables, query-result materialization, and appends:
///
///   ColumnPtr c = ColumnBuilder(TypeId::kInt64)
///                     .ChunkRows(1024)
///                     .AppendInts(std::move(values))
///                     .Build();
///
/// ChunkRows(0) (the default) seals everything into one chunk — the
/// monolithic layout. ChunkOffsets() instead reproduces an explicit layout
/// (used by UPDATE rewrites to preserve a column's existing boundaries).
/// Adopt* is the zero-copy path: with the default single-chunk layout the
/// shared payload becomes the chunk without copying.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(TypeId type, DictionaryPtr dict = nullptr);

  /// Seal a chunk every `rows` rows (0 = single chunk). The last chunk may be
  /// ragged.
  ColumnBuilder& ChunkRows(size_t rows);
  /// Reproduce an explicit layout: boundaries[i]..boundaries[i+1] per chunk.
  /// Overrides ChunkRows. Must start at 0 and end at the total row count.
  ColumnBuilder& ChunkOffsets(std::vector<size_t> offsets);

  ColumnBuilder& AppendInts(std::vector<int64_t> values);
  ColumnBuilder& AppendDoubles(std::vector<double> values);
  /// Dictionary-encodes in row order (code assignment is append-order
  /// deterministic, independent of chunking).
  ColumnBuilder& AppendStrings(const std::vector<std::string>& values);
  /// Pre-coded string values sharing the builder's dictionary.
  ColumnBuilder& AppendCodes(std::vector<int64_t> codes);

  /// Zero-copy adoption of a shared payload (query-result materialization).
  /// With the default single-chunk layout and nothing appended yet, the
  /// payload is adopted without copying; otherwise values are copied through
  /// the chunking path.
  ColumnBuilder& AdoptInts(std::shared_ptr<const std::vector<int64_t>> v);
  ColumnBuilder& AdoptDoubles(std::shared_ptr<const std::vector<double>> v);

  /// Returns the finished column and resets the builder.
  ColumnPtr Build();

  const DictionaryPtr& dict() const { return dict_; }

 private:
  bool CanAdoptWhole() const;
  void Spill();

  TypeId type_;
  DictionaryPtr dict_;
  size_t chunk_rows_ = 0;
  std::vector<size_t> explicit_offsets_;
  ChunkPtr adopted_;  // whole-payload zero-copy fast path
  std::vector<int64_t> pend_ints_;
  std::vector<double> pend_dbls_;
};

}  // namespace joinboost
