#include "storage/compression.h"

#include <algorithm>

namespace joinboost {
namespace compression {

namespace {

uint8_t BitsNeeded(uint64_t v) {
  uint8_t bits = 0;
  while (v) {
    ++bits;
    v >>= 1;
  }
  return bits;  // 0 for a zero range: constant blocks carry no packed words
}

}  // namespace

size_t EncodedInts::ByteSize() const {
  size_t total = 0;
  for (const auto& b : blocks) total += b.words.size() * 8 + 16;
  return total;
}

EncodedInts EncodeInts(const std::vector<int64_t>& values) {
  EncodedInts out;
  out.size = values.size();
  for (size_t start = 0; start < values.size(); start += kBlockSize) {
    size_t end = std::min(values.size(), start + kBlockSize);
    EncodedInts::Block block;
    block.count = static_cast<uint32_t>(end - start);
    int64_t mn = values[start];
    int64_t mx = values[start];
    for (size_t i = start; i < end; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    block.reference = mn;
    block.max = mx;
    uint64_t range = static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
    block.bit_width = BitsNeeded(range);
    size_t total_bits = static_cast<size_t>(block.bit_width) * block.count;
    block.words.assign((total_bits + 63) / 64, 0);
    size_t bit_pos = 0;
    for (size_t i = start; block.bit_width > 0 && i < end; ++i) {
      uint64_t delta =
          static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(mn);
      size_t word = bit_pos >> 6;
      size_t offset = bit_pos & 63;
      block.words[word] |= delta << offset;
      if (offset + block.bit_width > 64) {
        block.words[word + 1] |= delta >> (64 - offset);
      }
      bit_pos += block.bit_width;
    }
    out.blocks.push_back(std::move(block));
  }
  return out;
}

void UnpackBlock(const EncodedInts::Block& block, int64_t* out) {
  const uint8_t bw = block.bit_width;
  if (bw == 0) {
    // Constant block: every value equals the reference, no packed words.
    for (uint32_t i = 0; i < block.count; ++i) out[i] = block.reference;
    return;
  }
  const uint64_t mask = bw == 64 ? ~0ULL : ((1ULL << bw) - 1);
  const uint64_t uref = static_cast<uint64_t>(block.reference);
  const uint64_t* words = block.words.data();
  if (64 % bw == 0) {
    // Aligned widths (1,2,4,8,16,32,64): deltas never straddle a word, so
    // each packed word yields a fixed number of outputs — a branch-free
    // inner loop the compiler can vectorize.
    const uint32_t per_word = 64 / bw;
    uint32_t i = 0;
    for (size_t w = 0; i + per_word <= block.count; ++w) {
      uint64_t bits = words[w];
      for (uint32_t k = 0; k < per_word; ++k) {
        out[i + k] = static_cast<int64_t>(uref + ((bits >> (k * bw)) & mask));
      }
      i += per_word;
    }
    if (i < block.count) {
      uint64_t bits = words[i / per_word];
      for (uint32_t k = 0; i < block.count; ++k, ++i) {
        out[i] = static_cast<int64_t>(uref + ((bits >> (k * bw)) & mask));
      }
    }
    return;
  }
  size_t bit_pos = 0;
  for (uint32_t i = 0; i < block.count; ++i) {
    size_t word = bit_pos >> 6;
    size_t offset = bit_pos & 63;
    uint64_t v = words[word] >> offset;
    if (offset + bw > 64) v |= words[word + 1] << (64 - offset);
    out[i] = static_cast<int64_t>(uref + (v & mask));
    bit_pos += bw;
  }
}

int64_t UnpackOne(const EncodedInts::Block& block, size_t index) {
  const uint8_t bw = block.bit_width;
  if (bw == 0) return block.reference;
  const uint64_t mask = bw == 64 ? ~0ULL : ((1ULL << bw) - 1);
  size_t bit_pos = index * bw;
  size_t word = bit_pos >> 6;
  size_t offset = bit_pos & 63;
  uint64_t v = block.words[word] >> offset;
  if (offset + bw > 64) v |= block.words[word + 1] << (64 - offset);
  return static_cast<int64_t>(static_cast<uint64_t>(block.reference) +
                              (v & mask));
}

std::vector<int64_t> DecodeInts(const EncodedInts& enc) {
  std::vector<int64_t> out(enc.size);
  size_t pos = 0;
  for (const auto& block : enc.blocks) {
    UnpackBlock(block, out.data() + pos);
    pos += block.count;
  }
  return out;
}

}  // namespace compression
}  // namespace joinboost
