#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <system_error>

namespace wsnex::util {

namespace {

constexpr int kMaxDepth = 128;

void append_utf8(std::string& out, std::uint32_t code_point) {
  if (code_point < 0x80) {
    out += static_cast<char>(code_point);
  } else if (code_point < 0x800) {
    out += static_cast<char>(0xC0 | (code_point >> 6));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else if (code_point < 0x10000) {
    out += static_cast<char>(0xE0 | (code_point >> 12));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code_point >> 18));
    out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonParseError(message, line, column);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        return;
      }
    }
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid token (expected '" + std::string(literal) + "')");
    }
    pos_ += literal.size();
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 128 levels");
    skip_whitespace();
    if (at_end()) fail("unexpected end of input");
    switch (peek()) {
      case 'n': expect_literal("null"); return Json(nullptr);
      case 't': expect_literal("true"); return Json(true);
      case 'f': expect_literal("false"); return Json(false);
      case '"': return Json(parse_string());
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (next() != '\\' || next() != 'u') {
              fail("high surrogate not followed by \\u escape");
            }
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate in \\u escape pair");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default:
          --pos_;
          fail(std::string("invalid escape character '\\") + esc + "'");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        --pos_;
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      fail("invalid token");
    }
    if (peek() == '0') {
      ++pos_;  // JSON forbids leading zeros: 0 must stand alone.
      if (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("leading zero in number");
      }
    } else {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    bool integral = true;
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required after decimal point");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required in exponent");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    const std::string literal(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(literal.c_str(), &end, 10);
      if (errno != ERANGE && end == literal.c_str() + literal.size()) {
        return Json(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to double (loses integer identity).
    }
    const double d = std::strtod(literal.c_str(), nullptr);
    if (!std::isfinite(d)) fail("number out of double range");
    return Json(d);
  }

  Json parse_array(int depth) {
    ++pos_;  // '['
    Json::Array out;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      out.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = next();
      if (c == ']') return Json(std::move(out));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  Json parse_object(int depth) {
    ++pos_;  // '{'
    Json::Object out;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected string object key");
      std::string key = parse_string();
      skip_whitespace();
      if (next() != ':') {
        --pos_;
        fail("expected ':' after object key");
      }
      out.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = next();
      if (c == '}') return Json(std::move(out));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void append_double_shortest(std::string& out, double value) {
  // to_chars(general, precision) is specified as printf's "%.*g" in the C
  // locale and from_chars as strtod's pattern, so this is the snprintf /
  // strtod loop byte for byte, without the format parsing and locale work.
  //
  // The loop starts at the first precision that can round-trip: the
  // shortest round-trip form (to_chars without a precision) has the
  // fewest significant digits any round-tripping decimal has, so every
  // precision below that count fails, and skipping those attempts does
  // not change which one succeeds. Precision 17 always round-trips.
  char buf[32];
  int first = 15;
  if (std::isfinite(value) && value != 0.0) {
    const char* shortest_end =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::scientific)
            .ptr;
    // d[.ddd]e±XX, after an optional sign: count the mantissa digits.
    int digits = 0;
    for (const char* c = buf; c != shortest_end && *c != 'e'; ++c) {
      digits += *c >= '0' && *c <= '9';
    }
    first = std::max(first, digits);
  }
  char* end = buf;
  for (int precision = first; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, precision)
              .ptr;
    if (precision == 17) break;
    double back = 0.0;
    const std::from_chars_result parsed = std::from_chars(buf, end, back);
    if (parsed.ec == std::errc() && back == value) break;
  }
  out.append(buf, end);
}

std::string format_double_shortest(double value) {
  std::string out;
  append_double_shortest(out, value);
  return out;
}

JsonParseError::JsonParseError(const std::string& message, std::size_t line,
                               std::size_t column)
    : std::runtime_error("JSON parse error at line " + std::to_string(line) +
                         ", column " + std::to_string(column) + ": " +
                         message),
      line_(line),
      column_(column) {}

Json::Json(std::size_t u) {
  if (u <= static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max())) {
    value_ = Number{true, static_cast<std::int64_t>(u), static_cast<double>(u)};
  } else {
    value_ = Number{false, 0, static_cast<double>(u)};
  }
}

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kNumber;
    case 3: return Type::kString;
    case 4: return Type::kArray;
    default: return Type::kObject;
  }
}

const char* Json::type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    default: return "object";
  }
}

namespace {
[[noreturn]] void type_fail(const char* wanted, Json::Type got) {
  throw JsonTypeError(std::string("expected ") + wanted + ", got " +
                      Json::type_name(got));
}
}  // namespace

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  type_fail("bool", type());
}

double Json::as_double() const {
  if (const Number* n = std::get_if<Number>(&value_)) return n->dbl_value;
  type_fail("number", type());
}

std::int64_t Json::as_int64() const {
  if (const Number* n = std::get_if<Number>(&value_)) {
    if (!n->is_integer) {
      throw JsonTypeError("expected integer, got non-integral number");
    }
    return n->int_value;
  }
  type_fail("integer", type());
}

bool Json::is_integer() const {
  const Number* n = std::get_if<Number>(&value_);
  return n != nullptr && n->is_integer;
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  type_fail("string", type());
}

const Json::Array& Json::as_array() const {
  if (const Array* a = std::get_if<Array>(&value_)) return *a;
  type_fail("array", type());
}

const Json::Object& Json::as_object() const {
  if (const Object* o = std::get_if<Object>(&value_)) return *o;
  type_fail("object", type());
}

const Json* Json::find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) return nullptr;
  for (const Member& m : *o) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  if (!is_object()) type_fail("object", type());
  if (const Json* found = find(key)) return *found;
  throw JsonTypeError("missing key \"" + std::string(key) + "\"");
}

void Json::set(std::string key, Json value) {
  if (!is_object()) {
    if (is_null()) value_ = Object{};
    else type_fail("object", type());
  }
  Object& o = std::get<Object>(value_);
  for (Member& m : o) {
    if (m.first == key) {
      m.second = std::move(value);
      return;
    }
  }
  o.emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) {
  if (!is_array()) {
    if (is_null()) value_ = Array{};
    else type_fail("array", type());
  }
  std::get<Array>(value_).push_back(std::move(value));
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent >= 0) out += '\n';
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&](int level) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (value_.index()) {
    case 0: out += "null"; return;
    case 1: out += std::get<bool>(value_) ? "true" : "false"; return;
    case 2: {
      const Number& n = std::get<Number>(value_);
      if (n.is_integer) {
        out += std::to_string(n.int_value);
      } else {
        if (!std::isfinite(n.dbl_value)) {
          throw std::invalid_argument("Json::dump: non-finite number");
        }
        append_double_shortest(out, n.dbl_value);
      }
      return;
    }
    case 3: append_json_string(out, std::get<std::string>(value_)); return;
    case 4: {
      const Array& a = std::get<Array>(value_);
      if (a.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        a[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      return;
    }
    default: {
      const Object& o = std::get<Object>(value_);
      if (o.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        append_json_string(out, o[i].first);
        out += indent >= 0 ? ": " : ":";
        o[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      return;
    }
  }
}

bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

}  // namespace wsnex::util
