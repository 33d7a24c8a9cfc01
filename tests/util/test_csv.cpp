// Direct CsvWriter coverage: quoting/escaping edge cases, full-precision
// numeric round-trips (the campaign result store depends on both — archive
// CSVs must reload to bit-identical doubles) and close()'s write check.
#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/fsio.hpp"

namespace wsnex::util {
namespace {

class CsvWriterTest : public ::testing::Test {
 protected:
  // Unique per test case: ctest runs the cases as concurrent processes.
  std::string path_ =
      ::testing::TempDir() + "/wsnex_csv_writer_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";

  std::string read_back() const {
    std::ifstream in(path_, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// Minimal RFC 4180 row splitter for round-trip checks (handles quoted
  /// fields, embedded separators/newlines and doubled quotes).
  static std::vector<std::string> parse_row(const std::string& line,
                                            std::size_t& pos) {
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (;; ++pos) {
      if (pos >= line.size()) break;
      const char c = line[pos];
      if (quoted) {
        if (c == '"') {
          if (pos + 1 < line.size() && line[pos + 1] == '"') {
            field += '"';
            ++pos;
          } else {
            quoted = false;
          }
        } else {
          field += c;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        fields.push_back(std::move(field));
        field.clear();
      } else if (c == '\n') {
        ++pos;
        break;
      } else {
        field += c;
      }
    }
    fields.push_back(std::move(field));
    return fields;
  }

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, QuotesOnlyWhenNecessary) {
  {
    CsvWriter csv(path_);
    csv.write_row({"plain", "with space", "semi;colon"});
  }
  // None of these need quoting per RFC 4180.
  EXPECT_EQ(read_back(), "plain,with space,semi;colon\n");
}

TEST_F(CsvWriterTest, EscapesCommaQuoteAndNewline) {
  {
    CsvWriter csv(path_);
    csv.write_row({"a,b", "say \"hi\"", "line1\nline2", "", "\"", ","});
  }
  EXPECT_EQ(read_back(),
            "\"a,b\",\"say \"\"hi\"\"\",\"line1\nline2\",,\"\"\"\",\",\"\n");
}

TEST_F(CsvWriterTest, EscapedFieldsParseBackExactly) {
  const std::vector<std::string> original = {
      "a,b", "say \"hi\"", "line1\nline2", "", "\"\"", "trailing,", "\n",
      "mix,\"of\nall\""};
  {
    CsvWriter csv(path_);
    csv.write_row(std::vector<std::string_view>(original.begin(),
                                                original.end()));
  }
  const std::string contents = read_back();
  std::size_t pos = 0;
  const std::vector<std::string> parsed = parse_row(contents, pos);
  EXPECT_EQ(parsed, original);
  EXPECT_EQ(pos, contents.size());
}

TEST_F(CsvWriterTest, NumericRowRoundTripsFullPrecision) {
  const std::vector<double> values = {
      1.0 / 3.0,
      3.141592653589793,
      -2.2250738585072014e-308,  // smallest normal
      5e-324,                    // smallest subnormal
      1.7976931348623157e308,    // largest finite
      0.1,
      -0.0,
      123456789.123456789,
  };
  {
    CsvWriter csv(path_);
    csv.write_numeric_row(values);
  }
  const std::string contents = read_back();
  std::size_t pos = 0;
  const std::vector<std::string> fields = parse_row(contents, pos);
  ASSERT_EQ(fields.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double parsed = std::strtod(fields[i].c_str(), nullptr);
    EXPECT_EQ(parsed, values[i]) << "field " << i << " = " << fields[i];
  }
}

TEST_F(CsvWriterTest, CountsHeaderAndDataRows) {
  {
    CsvWriter csv(path_);
    csv.write_row({"h1", "h2"});
    csv.write_numeric_row({1.0, 2.0});
    csv.write_row({"x", "y"});
    EXPECT_EQ(csv.rows_written(), 3u);
  }
  const std::string contents = read_back();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(contents.begin(), contents.end(), '\n')),
            3u);
}

TEST_F(CsvWriterTest, EmptyRowWritesBlankLine) {
  {
    CsvWriter csv(path_);
    csv.write_row(std::vector<std::string_view>{});
    csv.write_row({""});
  }
  EXPECT_EQ(read_back(), "\n\n");
}

TEST_F(CsvWriterTest, CloseFlushesEveryRow) {
  CsvWriter csv(path_);
  csv.write_row({"a", "b"});
  csv.close();
  EXPECT_EQ(read_back(), "a,b\n");
}

/// The row writer CsvWriter had before it took string views: one
/// std::string per escaped field, streamed field by field.
std::string reference_row(const std::vector<std::string>& fields) {
  const auto escape = [](const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string quoted = "\"";
    for (char c : field) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::ostringstream out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    out << escape(fields[i]);
  }
  out << '\n';
  return out.str();
}

TEST_F(CsvWriterTest, ViewRowsMatchTheStringRowReference) {
  const std::vector<std::vector<std::string>> rows = {
      {"E_net_mJ_per_s", "genome", "config"},
      {"0.5", "1 2 3", "L=32 BCO=4 SFO=4 | DWT(CR=0.17,f=8MHz)"},
      {"a,b", "say \"hi\"", "line1\nline2", "", "\"", ","},
      {"\"\"", "trailing,", "\n", "mix,\"of\nall\"", "plain"},
      {},
      {""},
  };
  std::string expected;
  {
    CsvWriter csv(path_);
    // All fields of a row live in one reused buffer, as the archive
    // writer lays them out.
    std::string buffer;
    for (const auto& row : rows) {
      buffer.clear();
      std::vector<std::size_t> ends;
      for (const std::string& field : row) {
        buffer += field;
        ends.push_back(buffer.size());
      }
      std::vector<std::string_view> views;
      std::size_t begin = 0;
      for (const std::size_t end : ends) {
        views.push_back(std::string_view(buffer).substr(begin, end - begin));
        begin = end;
      }
      csv.write_row(views);
      expected += reference_row(row);
    }
    csv.close();
  }
  EXPECT_EQ(read_back(), expected);
}

TEST_F(CsvWriterTest, NumericRowMatchesStreamPrecision17) {
  const std::vector<double> values = {1.0 / 3.0, -0.0, 5e-324, 1e21, 0.1,
                                      123456789.123456789, -2.5e-8};
  {
    CsvWriter csv(path_);
    csv.write_numeric_row(values);
  }
  std::vector<std::string> text;
  for (const double v : values) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    text.push_back(os.str());
  }
  EXPECT_EQ(read_back(), reference_row(text));
}

TEST_F(CsvWriterTest, CloseReportsALostWriteNamingThePath) {
  // /dev/full accepts the open and fails every write with ENOSPC; the rows
  // sit in the stream's buffer, so only close() can tell.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  CsvWriter csv("/dev/full");
  csv.write_row({"lost", "row"});
  try {
    csv.close();
    FAIL() << "close() did not report the failed write";
  } catch (const FileError& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wsnex::util
