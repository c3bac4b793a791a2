#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace joinboost {

/// Block-based lightweight compression, mirroring what columnar engines do and
/// what the paper identifies as a residual-update cost (§5.3.2 "Compression").
/// This is a real codec: encoding and decoding costs are genuine CPU work,
/// not simulated sleeps.
///
/// Int64 and dictionary-coded string columns use per-block
/// frame-of-reference + bit-packing. Float64 columns have no codec and stay
/// plain at 8 bytes per value: like DuckDB, which leaves a segment
/// uncompressed when no codec shrinks it, because the residuals, targets
/// and features the generators produce do not compress (measured sizes in
/// docs/ARCHITECTURE.md, "Doubles stay plain").
namespace compression {

constexpr size_t kBlockSize = 4096;  ///< values per compressed block

/// Compressed int64 column payload.
struct EncodedInts {
  struct Block {
    int64_t reference = 0;     ///< frame-of-reference minimum
    int64_t max = 0;           ///< block maximum (for zone-map skipping)
    uint8_t bit_width = 0;     ///< bits per packed delta; 0 = constant block
    uint32_t count = 0;        ///< number of values
    std::vector<uint64_t> words;  ///< bit-packed deltas (empty when width 0)
  };
  std::vector<Block> blocks;
  size_t size = 0;

  /// Compressed payload size in bytes (for memory accounting).
  size_t ByteSize() const;
};

EncodedInts EncodeInts(const std::vector<int64_t>& values);
std::vector<int64_t> DecodeInts(const EncodedInts& enc);

/// Block-at-a-time unpack kernel: writes `block.count` values to `out`.
/// Written so the hot per-word loop auto-vectorizes when the bit width
/// divides 64 (the common case for small-range data); constant blocks
/// (bit_width 0) are a fill. This is the late-materialization primitive —
/// compressed execution decodes only the blocks a query actually touches.
void UnpackBlock(const EncodedInts::Block& block, int64_t* out);

/// Unpack a single value at `index` within a block without materializing the
/// rest (used for point lookups on encoded columns).
int64_t UnpackOne(const EncodedInts::Block& block, size_t index);

}  // namespace compression
}  // namespace joinboost
