#include "storage/column.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace joinboost {

namespace {

ChunkPtr SealIntsChunk(std::shared_ptr<const std::vector<int64_t>> v) {
  auto ch = std::make_shared<ColumnChunk>();
  ch->rows = v->size();
  ch->ints = std::move(v);
  return ch;
}

ChunkPtr SealDoublesChunk(std::shared_ptr<const std::vector<double>> v) {
  auto ch = std::make_shared<ColumnChunk>();
  ch->rows = v->size();
  ch->dbls = std::move(v);
  return ch;
}

}  // namespace

ColumnPtr ColumnData::FromChunks(TypeId type, std::vector<ChunkPtr> chunks,
                                 DictionaryPtr dict) {
  auto col = std::make_shared<ColumnData>();
  col->type_ = type;
  col->dict_ = std::move(dict);
  if (type == TypeId::kString) {
    JB_CHECK_MSG(col->dict_ != nullptr, "string column requires a dictionary");
  }
  if (chunks.empty()) {
    // A valid zero-row column still has one (empty) chunk so the chunk
    // accessors never face an empty list.
    if (type == TypeId::kFloat64) {
      chunks.push_back(
          SealDoublesChunk(std::make_shared<const std::vector<double>>()));
    } else {
      chunks.push_back(
          SealIntsChunk(std::make_shared<const std::vector<int64_t>>()));
    }
  }
  col->offsets_.reserve(chunks.size() + 1);
  col->offsets_.push_back(0);
  for (const auto& ch : chunks) {
    JB_CHECK_MSG(ch != nullptr, "null column chunk");
    if (type == TypeId::kFloat64) {
      JB_CHECK_MSG(ch->encoded ? ch->enc_dbls != nullptr : ch->dbls != nullptr,
                   "chunk payload does not match float column type");
    } else {
      JB_CHECK_MSG(ch->encoded ? ch->enc_ints != nullptr : ch->ints != nullptr,
                   "chunk payload does not match int column type");
    }
    col->offsets_.push_back(col->offsets_.back() + ch->rows);
  }
  col->length_ = col->offsets_.back();
  col->chunks_ = std::move(chunks);
  return col;
}

bool ColumnData::encoded() const {
  for (const auto& ch : chunks_) {
    if (ch->encoded) return true;
  }
  return false;
}

void ColumnData::Encode() {
  for (auto& ch : chunks_) {
    if (ch->encoded) continue;
    auto enc = std::make_shared<ColumnChunk>();
    enc->rows = ch->rows;
    enc->encoded = true;
    if (type_ == TypeId::kFloat64) {
      enc->enc_dbls = std::make_shared<const compression::EncodedDoubles>(
          compression::EncodeDoubles(*ch->dbls));
    } else {
      enc->enc_ints = std::make_shared<const compression::EncodedInts>(
          compression::EncodeInts(*ch->ints));
    }
    ch = std::move(enc);
  }
}

void ColumnData::Decode() {
  for (auto& ch : chunks_) {
    if (!ch->encoded) continue;
    auto plain = std::make_shared<ColumnChunk>();
    plain->rows = ch->rows;
    if (type_ == TypeId::kFloat64) {
      plain->dbls = std::make_shared<const std::vector<double>>(
          compression::DecodeDoubles(*ch->enc_dbls));
    } else {
      plain->ints = std::make_shared<const std::vector<int64_t>>(
          compression::DecodeInts(*ch->enc_ints));
    }
    ch = std::move(plain);
  }
}

void ColumnData::Rechunk(size_t rows_per_chunk) {
  const bool was_encoded = encoded();
  ColumnBuilder builder(type_, dict_);
  builder.ChunkRows(rows_per_chunk);
  if (type_ == TypeId::kFloat64) {
    builder.AppendDoubles(DecodeDoubles());
  } else if (type_ == TypeId::kString) {
    builder.AppendCodes(DecodeInts());
  } else {
    builder.AppendInts(DecodeInts());
  }
  ColumnPtr fresh = builder.Build();
  if (was_encoded) fresh->Encode();
  chunks_ = std::move(fresh->chunks_);
  offsets_ = std::move(fresh->offsets_);
  // length_, version_, dict_ unchanged: same values, new layout.
}

const std::shared_ptr<const std::vector<int64_t>>& ColumnData::PlainInts()
    const {
  JB_CHECK_MSG(chunks_.size() == 1, "PlainInts on a multi-chunk column");
  JB_CHECK_MSG(!chunks_[0]->encoded, "column is compressed");
  JB_CHECK(type_ != TypeId::kFloat64);
  return chunks_[0]->ints;
}

const std::shared_ptr<const std::vector<double>>& ColumnData::PlainDoubles()
    const {
  JB_CHECK_MSG(chunks_.size() == 1, "PlainDoubles on a multi-chunk column");
  JB_CHECK_MSG(!chunks_[0]->encoded, "column is compressed");
  JB_CHECK(type_ == TypeId::kFloat64);
  return chunks_[0]->dbls;
}

std::vector<int64_t> ColumnData::DecodeInts() const {
  JB_CHECK(type_ != TypeId::kFloat64);
  std::vector<int64_t> out(length_);
  MaterializeInts(0, length_, out.data());
  return out;
}

std::vector<double> ColumnData::DecodeDoubles() const {
  JB_CHECK(type_ == TypeId::kFloat64);
  std::vector<double> out(length_);
  MaterializeDoubles(0, length_, out.data());
  return out;
}

std::shared_ptr<const std::vector<int64_t>> ColumnData::ScanInts() const {
  JB_CHECK(type_ != TypeId::kFloat64);
  if (chunks_.size() == 1 && !chunks_[0]->encoded) return chunks_[0]->ints;
  return std::make_shared<const std::vector<int64_t>>(DecodeInts());
}

std::shared_ptr<const std::vector<double>> ColumnData::ScanDoubles() const {
  JB_CHECK(type_ == TypeId::kFloat64);
  if (chunks_.size() == 1 && !chunks_[0]->encoded) return chunks_[0]->dbls;
  return std::make_shared<const std::vector<double>>(DecodeDoubles());
}

size_t ColumnData::ChunkIndexOf(size_t row) const {
  // offsets_ is strictly increasing except for empty chunks; upper_bound
  // lands on the first offset past `row`, whose predecessor is the chunk.
  auto it = std::upper_bound(offsets_.begin(), offsets_.end(), row);
  return static_cast<size_t>(it - offsets_.begin()) - 1;
}

void ColumnData::MaterializeInts(size_t begin, size_t end, int64_t* out) const {
  JB_CHECK(type_ != TypeId::kFloat64);
  JB_CHECK(begin <= end && end <= length_);
  if (begin == end) return;
  size_t ci = ChunkIndexOf(begin);
  for (size_t r = begin; r < end;) {
    while (r >= offsets_[ci + 1]) ++ci;
    const ColumnChunk& ch = *chunks_[ci];
    const size_t cbegin = offsets_[ci];
    const size_t take_end = std::min(end, offsets_[ci + 1]);
    if (!ch.encoded) {
      const int64_t* src = ch.ints->data();
      std::copy(src + (r - cbegin), src + (take_end - cbegin),
                out + (r - begin));
    } else {
      size_t local = r - cbegin;
      const size_t local_end = take_end - cbegin;
      while (local < local_end) {
        const size_t b = local / compression::kBlockSize;
        const auto& block = ch.enc_ints->blocks[b];
        const size_t bbegin = b * compression::kBlockSize;
        const size_t bend = bbegin + block.count;
        const size_t hi = std::min(local_end, bend);
        if (local == bbegin && hi == bend) {
          compression::UnpackBlock(block, out + (cbegin + local - begin));
        } else {
          int64_t buf[compression::kBlockSize];
          compression::UnpackBlock(block, buf);
          std::copy(buf + (local - bbegin), buf + (hi - bbegin),
                    out + (cbegin + local - begin));
        }
        local = hi;
      }
    }
    r = take_end;
  }
}

void ColumnData::MaterializeDoubles(size_t begin, size_t end,
                                    double* out) const {
  JB_CHECK(type_ == TypeId::kFloat64);
  JB_CHECK(begin <= end && end <= length_);
  if (begin == end) return;
  size_t ci = ChunkIndexOf(begin);
  for (size_t r = begin; r < end;) {
    while (r >= offsets_[ci + 1]) ++ci;
    const ColumnChunk& ch = *chunks_[ci];
    const size_t cbegin = offsets_[ci];
    const size_t take_end = std::min(end, offsets_[ci + 1]);
    if (!ch.encoded) {
      const double* src = ch.dbls->data();
      std::copy(src + (r - cbegin), src + (take_end - cbegin),
                out + (r - begin));
    } else {
      size_t local = r - cbegin;
      const size_t local_end = take_end - cbegin;
      while (local < local_end) {
        const size_t b = local / compression::kBlockSize;
        const auto& block = ch.enc_dbls->blocks[b];
        const size_t bbegin = b * compression::kBlockSize;
        const size_t bend = bbegin + block.count;
        const size_t hi = std::min(local_end, bend);
        if (local == bbegin && hi == bend) {
          compression::DecodeDoublesBlock(block,
                                          out + (cbegin + local - begin));
        } else {
          double buf[compression::kBlockSize];
          compression::DecodeDoublesBlock(block, buf);
          std::copy(buf + (local - bbegin), buf + (hi - bbegin),
                    out + (cbegin + local - begin));
        }
        local = hi;
      }
    }
    r = take_end;
  }
}

std::shared_ptr<const EncodedView> ColumnData::EncodedIntsView() const {
  if (type_ == TypeId::kFloat64) return nullptr;
  auto view = std::make_shared<EncodedView>();
  view->rows = length_;
  view->slices.reserve(chunks_.size());
  for (size_t i = 0; i < chunks_.size(); ++i) {
    if (!chunks_[i]->encoded) return nullptr;
    view->slices.push_back({offsets_[i], chunks_[i]->enc_ints});
  }
  return view;
}

void ColumnData::ReplaceInts(std::vector<int64_t> values) {
  JB_CHECK(type_ != TypeId::kFloat64);
  length_ = values.size();
  chunks_.clear();
  chunks_.push_back(SealIntsChunk(
      std::make_shared<const std::vector<int64_t>>(std::move(values))));
  offsets_ = {0, length_};
  ++version_;
}

void ColumnData::ReplaceDoubles(std::vector<double> values) {
  JB_CHECK(type_ == TypeId::kFloat64);
  length_ = values.size();
  chunks_.clear();
  chunks_.push_back(SealDoublesChunk(
      std::make_shared<const std::vector<double>>(std::move(values))));
  offsets_ = {0, length_};
  ++version_;
}

size_t ColumnData::ByteSize() const {
  size_t bytes = 0;
  for (const auto& ch : chunks_) {
    if (ch->encoded) {
      bytes += type_ == TypeId::kFloat64 ? ch->enc_dbls->ByteSize()
                                         : ch->enc_ints->ByteSize();
    } else {
      bytes += ch->rows * 8;
    }
  }
  return bytes;
}

void ColumnData::SwapPayload(ColumnData& other) {
  JB_CHECK_MSG(type_ == other.type_, "column swap requires matching types");
  std::swap(length_, other.length_);
  std::swap(chunks_, other.chunks_);
  std::swap(offsets_, other.offsets_);
  std::swap(dict_, other.dict_);
  ++version_;
  ++other.version_;
}

Value ColumnData::GetValue(size_t row) const {
  JB_CHECK(row < length_);
  const size_t ci = ChunkIndexOf(row);
  const ColumnChunk& ch = *chunks_[ci];
  const size_t local = row - offsets_[ci];
  if (ch.encoded) {
    if (type_ == TypeId::kFloat64) {
      // Row access on compressed doubles decodes only the enclosing block.
      const auto& block = ch.enc_dbls->blocks[local / compression::kBlockSize];
      std::vector<double> tmp(block.count);
      compression::DecodeDoublesBlock(block, tmp.data());
      return Value::Double(tmp[local % compression::kBlockSize]);
    }
    int64_t code = compression::UnpackOne(
        ch.enc_ints->blocks[local / compression::kBlockSize],
        local % compression::kBlockSize);
    if (type_ == TypeId::kString) {
      if (code == kNullInt64) return Value::Null(TypeId::kString);
      Value v = Value::Str(dict_->At(code));
      v.i = code;
      return v;
    }
    return Value::Int(code);
  }
  switch (type_) {
    case TypeId::kInt64:
      return Value::Int((*ch.ints)[local]);
    case TypeId::kFloat64:
      return Value::Double((*ch.dbls)[local]);
    case TypeId::kString: {
      int64_t code = (*ch.ints)[local];
      if (code == kNullInt64) return Value::Null(TypeId::kString);
      Value v = Value::Str(dict_->At(code));
      v.i = code;
      return v;
    }
  }
  return Value::Null(type_);
}

ColumnBuilder::ColumnBuilder(TypeId type, DictionaryPtr dict)
    : type_(type), dict_(std::move(dict)) {
  if (type_ == TypeId::kString && !dict_) {
    dict_ = std::make_shared<Dictionary>();
  }
  JB_CHECK_MSG(type_ == TypeId::kString || !dict_,
               "dictionary on a non-string column");
}

ColumnBuilder& ColumnBuilder::ChunkRows(size_t rows) {
  chunk_rows_ = rows;
  return *this;
}

ColumnBuilder& ColumnBuilder::ChunkOffsets(std::vector<size_t> offsets) {
  explicit_offsets_ = std::move(offsets);
  return *this;
}

bool ColumnBuilder::CanAdoptWhole() const {
  return chunk_rows_ == 0 && explicit_offsets_.empty() && !adopted_ &&
         pend_ints_.empty() && pend_dbls_.empty();
}

void ColumnBuilder::Spill() {
  // A previously adopted payload loses the zero-copy fast path as soon as
  // more data arrives: fold it into the pending values.
  if (!adopted_) return;
  if (type_ == TypeId::kFloat64) {
    pend_dbls_.assign(adopted_->dbls->begin(), adopted_->dbls->end());
  } else {
    pend_ints_.assign(adopted_->ints->begin(), adopted_->ints->end());
  }
  adopted_.reset();
}

ColumnBuilder& ColumnBuilder::AppendInts(std::vector<int64_t> values) {
  JB_CHECK(type_ == TypeId::kInt64);
  Spill();
  if (pend_ints_.empty()) {
    pend_ints_ = std::move(values);
  } else {
    pend_ints_.insert(pend_ints_.end(), values.begin(), values.end());
  }
  return *this;
}

ColumnBuilder& ColumnBuilder::AppendDoubles(std::vector<double> values) {
  JB_CHECK(type_ == TypeId::kFloat64);
  Spill();
  if (pend_dbls_.empty()) {
    pend_dbls_ = std::move(values);
  } else {
    pend_dbls_.insert(pend_dbls_.end(), values.begin(), values.end());
  }
  return *this;
}

ColumnBuilder& ColumnBuilder::AppendStrings(
    const std::vector<std::string>& values) {
  JB_CHECK(type_ == TypeId::kString);
  Spill();
  pend_ints_.reserve(pend_ints_.size() + values.size());
  for (const auto& s : values) pend_ints_.push_back(dict_->GetOrAdd(s));
  return *this;
}

ColumnBuilder& ColumnBuilder::AppendCodes(std::vector<int64_t> codes) {
  JB_CHECK(type_ == TypeId::kString);
  Spill();
  if (pend_ints_.empty()) {
    pend_ints_ = std::move(codes);
  } else {
    pend_ints_.insert(pend_ints_.end(), codes.begin(), codes.end());
  }
  return *this;
}

ColumnBuilder& ColumnBuilder::AdoptInts(
    std::shared_ptr<const std::vector<int64_t>> v) {
  JB_CHECK(type_ != TypeId::kFloat64);
  if (CanAdoptWhole()) {
    adopted_ = SealIntsChunk(std::move(v));
  } else {
    Spill();
    pend_ints_.insert(pend_ints_.end(), v->begin(), v->end());
  }
  return *this;
}

ColumnBuilder& ColumnBuilder::AdoptDoubles(
    std::shared_ptr<const std::vector<double>> v) {
  JB_CHECK(type_ == TypeId::kFloat64);
  if (CanAdoptWhole()) {
    adopted_ = SealDoublesChunk(std::move(v));
  } else {
    Spill();
    pend_dbls_.insert(pend_dbls_.end(), v->begin(), v->end());
  }
  return *this;
}

ColumnPtr ColumnBuilder::Build() {
  if (adopted_) {
    std::vector<ChunkPtr> chunks{std::move(adopted_)};
    return ColumnData::FromChunks(type_, std::move(chunks), std::move(dict_));
  }
  const size_t total =
      type_ == TypeId::kFloat64 ? pend_dbls_.size() : pend_ints_.size();
  std::vector<size_t> offsets;
  if (!explicit_offsets_.empty()) {
    offsets = std::move(explicit_offsets_);
    JB_CHECK_MSG(offsets.front() == 0 && offsets.back() == total,
                 "explicit chunk offsets do not cover the appended rows");
  } else {
    offsets.push_back(0);
    const size_t step = chunk_rows_ == 0 ? total : chunk_rows_;
    while (offsets.back() < total) {
      offsets.push_back(std::min(total, offsets.back() + step));
    }
    if (offsets.size() == 1) offsets.push_back(0);  // zero-row column
  }
  std::vector<ChunkPtr> chunks;
  chunks.reserve(offsets.size() - 1);
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    const size_t lo = offsets[i];
    const size_t hi = offsets[i + 1];
    JB_CHECK_MSG(lo <= hi && hi <= total, "invalid chunk offsets");
    if (type_ == TypeId::kFloat64) {
      chunks.push_back(
          SealDoublesChunk(std::make_shared<const std::vector<double>>(
              pend_dbls_.begin() + lo, pend_dbls_.begin() + hi)));
    } else {
      chunks.push_back(
          SealIntsChunk(std::make_shared<const std::vector<int64_t>>(
              pend_ints_.begin() + lo, pend_ints_.begin() + hi)));
    }
  }
  pend_ints_.clear();
  pend_dbls_.clear();
  return ColumnData::FromChunks(type_, std::move(chunks), std::move(dict_));
}

}  // namespace joinboost
