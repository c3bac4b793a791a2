#include "storage/table.h"

#include <sstream>

#include "util/check.h"

namespace joinboost {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  for (size_t i = 0; i < fields_.size(); ++i) {
    JB_CHECK_MSG(index_.emplace(fields_[i].name, static_cast<int>(i)).second,
                 "duplicate field name: " << fields_[i].name);
  }
}

int Schema::FieldIndex(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

void Schema::AddField(Field f) {
  JB_CHECK_MSG(!HasField(f.name), "duplicate field name: " << f.name);
  index_.emplace(f.name, static_cast<int>(fields_.size()));
  fields_.push_back(std::move(f));
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) os << ", ";
    os << fields_[i].name << " " << TypeName(fields_[i].type);
  }
  os << ")";
  return os.str();
}

Table::Table(std::string name, Schema schema, std::vector<ColumnPtr> columns)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(std::move(columns)) {
  JB_CHECK_MSG(schema_.num_fields() == columns_.size(),
               "schema/column count mismatch in table " << name_);
  num_rows_ = columns_.empty() ? 0 : columns_[0]->size();
  for (size_t i = 0; i < columns_.size(); ++i) {
    JB_CHECK_MSG(columns_[i]->size() == num_rows_,
                 "ragged columns in table " << name_);
    JB_CHECK_MSG(columns_[i]->type() == schema_.field(i).type,
                 "column type mismatch for " << schema_.field(i).name);
  }
}

const ColumnPtr& Table::column(const std::string& name) const {
  int idx = schema_.FieldIndex(name);
  JB_CHECK_MSG(idx >= 0, "no column '" << name << "' in table " << name_
                                       << " " << schema_.ToString());
  return columns_[static_cast<size_t>(idx)];
}

void Table::SetColumn(size_t i, ColumnPtr col) {
  JB_CHECK(i < columns_.size());
  JB_CHECK_MSG(col != nullptr, "SetColumn with null column");
  JB_CHECK_MSG(col->size() == num_rows_,
               "SetColumn length mismatch in table "
                   << name_ << ": column has " << col->size()
                   << " rows, table has " << num_rows_);
  JB_CHECK_MSG(col->type() == schema_.field(i).type,
               "SetColumn type mismatch for " << schema_.field(i).name);
  columns_[i] = std::move(col);
}

void Table::AddColumn(Field field, ColumnPtr col) {
  JB_CHECK_MSG(col != nullptr, "AddColumn with null column");
  JB_CHECK_MSG(col->size() == num_rows_ || columns_.empty(),
               "AddColumn length mismatch in table "
                   << name_ << ": column '" << field.name << "' has "
                   << col->size() << " rows, table has " << num_rows_);
  if (columns_.empty()) num_rows_ = col->size();
  JB_CHECK_MSG(col->type() == field.type,
               "AddColumn type mismatch for " << field.name);
  schema_.AddField(std::move(field));
  columns_.push_back(std::move(col));
}

size_t Table::num_chunks() const {
  return columns_.empty() ? 1 : columns_[0]->num_chunks();
}

std::vector<size_t> Table::chunk_offsets() const {
  if (columns_.empty()) return {0, num_rows_};
  return columns_[0]->chunk_offsets();
}

void Table::Rechunk(size_t rows_per_chunk) {
  for (auto& c : columns_) c->Rechunk(rows_per_chunk);
}

void Table::EncodeAll() {
  for (auto& c : columns_) c->Encode();
}

void Table::DecodeAll() {
  for (auto& c : columns_) c->Decode();
}

size_t Table::ByteSize() const {
  size_t total = 0;
  for (const auto& c : columns_) total += c->ByteSize();
  return total;
}

TableBuilder& TableBuilder::ChunkRows(size_t rows) {
  chunk_rows_ = rows;
  return *this;
}

TableBuilder& TableBuilder::AddInts(const std::string& col,
                                    std::vector<int64_t> values) {
  schema_.AddField({col, TypeId::kInt64});
  columns_.push_back(ColumnBuilder(TypeId::kInt64)
                         .ChunkRows(chunk_rows_)
                         .AppendInts(std::move(values))
                         .Build());
  return *this;
}

TableBuilder& TableBuilder::AddDoubles(const std::string& col,
                                       std::vector<double> values) {
  schema_.AddField({col, TypeId::kFloat64});
  columns_.push_back(ColumnBuilder(TypeId::kFloat64)
                         .ChunkRows(chunk_rows_)
                         .AppendDoubles(std::move(values))
                         .Build());
  return *this;
}

TableBuilder& TableBuilder::AddStrings(const std::string& col,
                                       const std::vector<std::string>& values,
                                       DictionaryPtr dict) {
  schema_.AddField({col, TypeId::kString});
  columns_.push_back(ColumnBuilder(TypeId::kString, std::move(dict))
                         .ChunkRows(chunk_rows_)
                         .AppendStrings(values)
                         .Build());
  return *this;
}

TablePtr TableBuilder::Build() {
  return std::make_shared<Table>(name_, std::move(schema_),
                                 std::move(columns_));
}

}  // namespace joinboost
