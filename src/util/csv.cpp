#include "util/csv.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>

#include "util/fsio.hpp"

namespace wsnex::util {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw FileError("CsvWriter: cannot open " + path);
}

void CsvWriter::close() {
  // The stream keeps its failbit from the first failed write, so one check
  // after the final flush and close covers every row.
  errno = 0;
  out_.close();
  if (out_.fail()) {
    const int err = errno;
    throw FileError("CsvWriter: cannot write " + path_ +
                    (err != 0 ? std::string(": ") + std::strerror(err) : ""));
  }
}

void CsvWriter::write_row(std::span<const std::string_view> fields) {
  line_.clear();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line_ += ',';
    const std::string_view field = fields[i];
    if (field.find_first_of(",\"\n") == std::string_view::npos) {
      line_ += field;
      continue;
    }
    line_ += '"';
    for (const char c : field) {
      if (c == '"') line_ += '"';
      line_ += c;
    }
    line_ += '"';
  }
  write_line();
}

void CsvWriter::write_numeric_row(const std::vector<double>& fields) {
  line_.clear();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line_ += ',';
    // A number never needs quoting.
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof(buf), fields[i],
                                      std::chars_format::general, 17);
    line_.append(buf, result.ptr);
  }
  write_line();
}

void CsvWriter::write_line() {
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++rows_;
}

}  // namespace wsnex::util
