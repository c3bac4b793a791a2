#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/column.h"
#include "storage/types.h"

namespace joinboost {

/// A named, typed column slot.
struct Field {
  std::string name;
  TypeId type = TypeId::kInt64;
};

/// Ordered list of fields with O(1) name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  int FieldIndex(const std::string& name) const;  ///< -1 when absent
  const Field& field(size_t i) const { return fields_.at(i); }
  const std::vector<Field>& fields() const { return fields_; }
  size_t num_fields() const { return fields_.size(); }
  bool HasField(const std::string& name) const { return FieldIndex(name) >= 0; }
  void AddField(Field f);
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, int> index_;
};

class Table;
using TablePtr = std::shared_ptr<Table>;

/// A base table: schema + columns. Tables are shared by pointer through the
/// catalog; readers take a snapshot of column pointers, so column swap and
/// payload replacement are safe against concurrent reads of prior snapshots.
class Table {
 public:
  Table(std::string name, Schema schema, std::vector<ColumnPtr> columns);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const ColumnPtr& column(size_t i) const { return columns_.at(i); }
  const ColumnPtr& column(const std::string& name) const;
  const std::vector<ColumnPtr>& columns() const { return columns_; }

  /// Both validate the replacement/new column: a length that disagrees with
  /// num_rows() (or a mismatched type) throws rather than corrupting the
  /// table invariant that every column has the same row count.
  void SetColumn(size_t i, ColumnPtr col);
  void AddColumn(Field field, ColumnPtr col);

  /// Chunk layout of the table, taken from its first column ({0, num_rows}
  /// for a column-less table). Per-column layouts can diverge after a column
  /// swap — consumers that require a shared layout (compressed scans) verify
  /// per column and fall back; everything else is layout-oblivious.
  size_t num_chunks() const;
  std::vector<size_t> chunk_offsets() const;

  /// Re-slice every column into uniform chunks of `rows_per_chunk` rows
  /// (0 = one chunk per column). Applied at load time by
  /// EngineProfile::chunk_rows; values and versions are unchanged.
  void Rechunk(size_t rows_per_chunk);

  /// True when this table lives outside the DBMS proper (the paper's DP mode:
  /// fact table held as a Pandas dataframe, scanned via an interop layer).
  bool dataframe() const { return dataframe_; }
  void set_dataframe(bool v) { dataframe_ = v; }

  /// Compress all int/string columns (and doubles) — CREATE-time cost on
  /// compressed profiles.
  void EncodeAll();
  void DecodeAll();

  size_t ByteSize() const;

  Value GetValue(size_t row, size_t col) const {
    return columns_.at(col)->GetValue(row);
  }

 private:
  std::string name_;
  Schema schema_;
  std::vector<ColumnPtr> columns_;
  size_t num_rows_ = 0;
  bool dataframe_ = false;
};

/// Convenience builder used by generators and tests.
class TableBuilder {
 public:
  explicit TableBuilder(std::string name) : name_(std::move(name)) {}

  /// Seal column chunks every `rows` rows (0 = monolithic single chunk).
  TableBuilder& ChunkRows(size_t rows);

  TableBuilder& AddInts(const std::string& col, std::vector<int64_t> values);
  TableBuilder& AddDoubles(const std::string& col, std::vector<double> values);
  TableBuilder& AddStrings(const std::string& col,
                           const std::vector<std::string>& values,
                           DictionaryPtr dict = nullptr);
  TablePtr Build();

 private:
  std::string name_;
  Schema schema_;
  std::vector<ColumnPtr> columns_;
  size_t chunk_rows_ = 0;
};

}  // namespace joinboost
