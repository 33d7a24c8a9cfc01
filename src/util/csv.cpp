#include "util/csv.hpp"

#include <cerrno>
#include <cstring>
#include <sstream>

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

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::write_row(std::initializer_list<std::string> fields) {
  write_row(std::vector<std::string>(fields));
}

void CsvWriter::write_numeric_row(const std::vector<double>& fields) {
  std::vector<std::string> text;
  text.reserve(fields.size());
  for (double f : fields) {
    std::ostringstream os;
    os.precision(17);
    os << f;
    text.push_back(os.str());
  }
  write_row(text);
}

std::string CsvWriter::escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace wsnex::util
