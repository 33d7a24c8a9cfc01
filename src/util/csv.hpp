// Minimal CSV writer used by examples and benches to export series that
// correspond to the paper's figures.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace wsnex::util {

/// Streams rows to a CSV file; fields are quoted only when necessary.
/// Rows are buffered, so a write can fail (a full disk, say) long after
/// write_row() returned: a caller that must know the file is whole calls
/// close(). The destructor closes an unclosed writer but never throws.
class CsvWriter {
 public:
  /// Opens `path` for writing; throws FileError (a std::runtime_error) on
  /// failure.
  explicit CsvWriter(const std::string& path);

  /// Flushes and closes the file. Throws FileError naming the path if any
  /// write, the flush or the close failed. Call at most once, after the
  /// last row.
  void close();

  /// Writes a header or data row of string fields.
  void write_row(const std::vector<std::string>& fields);
  void write_row(std::initializer_list<std::string> fields);

  /// Writes a row of numeric fields with full double precision.
  void write_numeric_row(const std::vector<double>& fields);

  /// Number of rows written so far (including headers).
  std::size_t rows_written() const { return rows_; }

 private:
  static std::string escape(const std::string& field);

  std::string path_;
  std::ofstream out_;
  std::size_t rows_ = 0;
};

}  // namespace wsnex::util
