// Minimal CSV writer: the campaign archives, validation reports and the
// examples' figure series all go through it.
#pragma once

#include <cstddef>
#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
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

  /// Writes a header or data row. The fields are only read during the
  /// call, so they may be views into one buffer the caller reuses for
  /// every row; a field holding ',', '"' or '\n' is quoted, with its
  /// quotes doubled.
  void write_row(std::span<const std::string_view> fields);
  void write_row(std::initializer_list<std::string_view> fields) {
    write_row(std::span<const std::string_view>(fields.begin(), fields.size()));
  }

  /// Writes a row of numeric fields with full double precision (%.17g).
  void write_numeric_row(const std::vector<double>& fields);

  /// Number of rows written so far (including headers).
  std::size_t rows_written() const { return rows_; }

 private:
  /// Ends `line_` and writes it.
  void write_line();

  std::string path_;
  std::ofstream out_;
  std::string line_;  ///< the row being assembled, reused across rows
  std::size_t rows_ = 0;
};

}  // namespace wsnex::util
