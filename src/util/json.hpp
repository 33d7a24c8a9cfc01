// Minimal, self-contained JSON reader/writer (RFC 8259 subset, no external
// dependencies) used by the scenario layer for declarative deployment specs
// and by the campaign result store for manifests.
//
// Scope: strict JSON — no comments, no trailing commas, no NaN/Infinity.
// Numbers that look like integers (no '.', 'e') and fit std::int64_t keep
// exact integer identity through a parse/dump round trip; everything else
// is carried as double and printed with the shortest representation that
// round-trips.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace wsnex::util {

/// Shortest decimal form of a finite double that parses back (strtod) to
/// exactly the same value — tries 15, 16, then 17 significant digits (17
/// always round-trips for IEEE 754 doubles), each printed exactly as
/// printf's "%.*g" would. Shared by the JSON writer and the campaign CSV
/// export so both emit identical, lossless numbers.
std::string format_double_shortest(double value);

/// Appends format_double_shortest(value) to `out` without a temporary
/// string (the same implementation; the archive rows and event records
/// format straight into their reused buffers).
void append_double_shortest(std::string& out, double value);

/// Appends `text` as a JSON string literal: quoted, with '"', '\\' and
/// control bytes escaped exactly as Json::dump writes them.
void append_json_string(std::string& out, std::string_view text);

/// Parse failure with the 1-based line/column of the offending input.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t line,
                 std::size_t column);

  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// Type-mismatch / missing-key access failure.
class JsonTypeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One JSON value. Objects preserve member insertion order (so dumped
/// specs stay in a human-friendly field order) and are small enough that
/// key lookup is a linear scan.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(Number{false, 0, d}) {}
  Json(int i) : value_(Number{true, i, static_cast<double>(i)}) {}
  Json(std::int64_t i) : value_(Number{true, i, static_cast<double>(i)}) {}
  Json(std::size_t u);
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  /// Empty containers (distinct from null, unlike the default constructor).
  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  Type type() const;
  /// Human-readable type name ("object", "number", ...) for error messages.
  static const char* type_name(Type t);

  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Accessors throw JsonTypeError (naming the actual type) on mismatch.
  bool as_bool() const;
  double as_double() const;
  /// Exact integer value; throws when the number was not parsed/built as
  /// an integer (e.g. has a fractional part or exceeded std::int64_t).
  std::int64_t as_int64() const;
  /// True iff the number carries exact integer identity.
  bool is_integer() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object lookup: nullptr when the key is absent (or *this not an object
  /// — find is used for optional fields, so it never throws).
  const Json* find(std::string_view key) const;
  /// Object lookup; throws JsonTypeError when absent.
  const Json& at(std::string_view key) const;
  /// Appends (or replaces) an object member, preserving insertion order.
  void set(std::string key, Json value);
  /// Appends an array element.
  void push_back(Json value);

  /// Strict parse of a complete JSON document; rejects trailing content
  /// and nesting deeper than 128 levels. Throws JsonParseError.
  static Json parse(std::string_view text);

  /// Serializes the value. indent < 0 is compact; indent >= 0 pretty-prints
  /// with that many spaces per level. Throws std::invalid_argument for
  /// non-finite numbers (JSON cannot represent them).
  std::string dump(int indent = -1) const;

  friend bool operator==(const Json& a, const Json& b);

 private:
  struct Number {
    bool is_integer;
    std::int64_t int_value;  ///< valid when is_integer
    double dbl_value;        ///< always valid

    friend bool operator==(const Number& a, const Number& b) {
      return a.dbl_value == b.dbl_value && a.is_integer == b.is_integer &&
             (!a.is_integer || a.int_value == b.int_value);
    }
  };

  using Value =
      std::variant<std::nullptr_t, bool, Number, std::string, Array, Object>;

  void dump_to(std::string& out, int indent, int depth) const;

  Value value_;
};

}  // namespace wsnex::util
