// JSON emitter and parser shared by every report serializer and by the
// sweep-service request protocol / cache files.
//
// The writer emits keys in insertion order -- there is no map in between --
// so a report serialized twice, or serialized from a reordered computation,
// produces byte-identical documents; the sweep determinism tests rely on
// this. Doubles are printed with std::to_chars (shortest representation
// that parses back to the same bits), so the reports round-trip exactly
// through strtod.
//
// json_reader owns the one JSON grammar in nwdec: a pull reader that walks
// a document in place (strings come back as views into the text unless
// they carry escapes) and throws json_parse_error with the byte offset of
// the first defect. json_parse is a thin tree builder on top of it; the
// result store decodes its snapshot and log records straight from the
// reader into typed structs without building a tree.
//
// The parser is the writer's inverse: numbers come back with the exact
// double bits the writer printed, and object members keep the document's
// key order (json_value stores them in a vector, not a map), so
// write(parse(write(x))) == write(x) byte for byte -- the property the
// result-store persistence and the daemon's warm/cold response identity
// are built on.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.h"

namespace nwdec {

/// Escapes one JSON string body (quotes, backslashes, control characters);
/// the surrounding quotes are not included.
std::string json_escape(std::string_view text);

/// A malformed JSON document; what() names the byte offset of the defect.
class json_parse_error : public error {
 public:
  explicit json_parse_error(const std::string& what) : error(what) {}
};

/// One parsed JSON document node. Object members are kept in document
/// order; numbers are stored as the exact double the text parses to.
class json_value {
 public:
  enum class kind { null, boolean, number, string, array, object };
  using member = std::pair<std::string, json_value>;

  json_value() = default;  ///< null
  json_value(bool flag) : kind_(kind::boolean), bool_(flag) {}
  json_value(double number) : kind_(kind::number), number_(number) {}
  json_value(std::string text)
      : kind_(kind::string), string_(std::move(text)) {}
  json_value(const char* text) : json_value(std::string(text)) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  json_value(T number)
      : kind_(kind::number), number_(static_cast<double>(number)) {}

  static json_value array() { return json_value(kind::array); }
  static json_value object() { return json_value(kind::object); }
  /// Builds an object from prepared members in one move -- O(n) where
  /// repeated set() calls are O(n^2); the parser's path for large objects.
  /// Keys are taken as-is (set() is the deduplicating mutation API).
  static json_value object(std::vector<member> members);

  kind type() const { return kind_; }
  bool is_null() const { return kind_ == kind::null; }
  bool is_bool() const { return kind_ == kind::boolean; }
  bool is_number() const { return kind_ == kind::number; }
  bool is_string() const { return kind_ == kind::string; }
  bool is_array() const { return kind_ == kind::array; }
  bool is_object() const { return kind_ == kind::object; }

  /// Typed accessors; throw invalid_argument_error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  /// The elements of an array.
  const std::vector<json_value>& items() const;
  /// The members of an object, in document/insertion order.
  const std::vector<member>& members() const;

  /// Appends an array element.
  void push_back(json_value element);
  /// Appends an object member (replaces the value if the key exists).
  void set(const std::string& name, json_value value);
  /// The member named `name`, or nullptr when absent / not an object.
  const json_value* find(std::string_view name) const;
  /// The member named `name`; throws not_found_error when absent.
  const json_value& at(std::string_view name) const;

  /// Deep structural equality. Numbers compare by value; object members
  /// compare element-wise in order (both the writer and the parser preserve
  /// member order, so round-tripped documents compare equal).
  friend bool operator==(const json_value& a, const json_value& b);
  friend bool operator!=(const json_value& a, const json_value& b) {
    return !(a == b);
  }

 private:
  explicit json_value(kind k) : kind_(k) {}

  kind kind_ = kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<json_value> items_;
  std::vector<member> members_;
};

/// Pull reader over one JSON document held in memory (the text must
/// outlive the reader). Accepts strict JSON only: no comments, no trailing
/// commas, no inf/nan literals, numbers in the JSON grammar parsed through
/// std::from_chars, \uXXXX escapes (including surrogate pairs) decoded to
/// UTF-8, nesting bounded at 128 levels. Every defect throws
/// json_parse_error naming its byte offset.
///
/// Usage: peek() names the next value's kind without consuming it; the
/// read_* calls consume one scalar; containers are walked with
/// begin_object() + next_member() / begin_array() + next_element(), which
/// return false once they have consumed the closing bracket. A value the
/// caller does not want goes through skip_value(), which still checks its
/// grammar. finish() requires the rest of the text to be whitespace.
class json_reader {
 public:
  explicit json_reader(std::string_view text)
      : begin_(text.data()),
        at_(text.data()),
        end_(text.data() + text.size()) {}

  /// The kind of the next value (whitespace skipped, nothing consumed).
  json_value::kind peek();

  void begin_object();
  /// Consumes the separator and key of the next member and returns true,
  /// or consumes the closing '}' and returns false. The key view is valid
  /// until the next read; the member's value must be read or skipped next.
  bool next_member(std::string_view& key);
  void begin_array();
  /// True when another element follows (its value must be read or skipped
  /// next); false once the closing ']' is consumed.
  bool next_element();

  /// A string value: a view into the text, or into the reader's scratch
  /// buffer when the string carries escapes; valid until the next read.
  std::string_view read_string();
  double read_number();
  bool read_bool();
  void read_null();
  /// Consumes the next value of any kind, nested containers included.
  void skip_value();

  /// Requires that only whitespace remains after the document.
  void finish();

  /// The byte offset of the read position.
  std::size_t offset() const { return static_cast<std::size_t>(at_ - begin_); }

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void skip_whitespace();
  /// Skips whitespace, enforces the depth bound, and returns the first
  /// character of the next value.
  char start_value();
  void expect_literal(std::string_view literal);
  std::string_view scan_string();
  std::string_view scan_escaped_string(const char* begin);
  void append_unicode_escape();
  unsigned parse_hex4();

  const char* begin_;
  const char* at_;
  const char* end_;
  std::size_t depth_ = 0;      ///< containers currently open
  bool after_value_ = false;   ///< a complete value precedes the cursor
  std::string scratch_;        ///< decoded strings that carry escapes
};

/// Parses one complete JSON document into a tree through json_reader
/// (trailing whitespace allowed, trailing content is an error). Duplicate
/// object keys keep the last value at the first key's position.
json_value json_parse(std::string_view text);

/// Streaming writer with automatic comma placement. The default `pretty`
/// style two-space indents (the report files); `compact` emits a single
/// line with no whitespace (the daemon's newline-delimited responses).
/// Usage: begin_object()/key()/value() pairs, nested arrays via
/// begin_array(); str() renders the document and requires every scope to be
/// closed.
class json_writer {
 public:
  enum class style { pretty, compact };

  explicit json_writer(style output_style = style::pretty)
      : style_(output_style) {}

  json_writer& begin_object();
  json_writer& end_object();
  json_writer& begin_array();
  json_writer& end_array();

  /// Emits the key of the next value; only valid directly inside an object.
  json_writer& key(std::string_view name);

  json_writer& value(std::string_view text);
  // These two keep a std::string off value(const json_value&) and a
  // literal off value(bool), which would otherwise compete or win.
  json_writer& value(const std::string& text) {
    return value(std::string_view(text));
  }
  json_writer& value(const char* text) {
    return value(std::string_view(text));
  }
  json_writer& value(double number);
  json_writer& value(bool flag);
  /// Emits a parsed tree (arrays/objects recurse; numbers re-print through
  /// the exact shortest-double path).
  json_writer& value(const json_value& node);
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  json_writer& value(T number) {
    char buffer[24];
    const std::to_chars_result result =
        std::to_chars(buffer, buffer + sizeof(buffer), number);
    return raw(std::string_view(buffer, static_cast<std::size_t>(
                                            result.ptr - buffer)));
  }

  /// key() + value() in one call, for flat objects.
  template <typename T>
  json_writer& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// The rendered document plus a trailing newline; every begin_* must have
  /// been closed.
  std::string str() const;

 private:
  enum class scope { object, array };
  struct level {
    scope inside;
    bool first = true;
  };

  json_writer& raw(std::string_view text);
  void before_value();
  void indent();

  style style_ = style::pretty;
  std::string out_;
  std::vector<level> stack_;
  bool pending_key_ = false;
};

/// Renders one json_value as a standalone document (no trailing newline
/// trimming: same contract as json_writer::str()).
std::string json_render(const json_value& node,
                        json_writer::style output_style = json_writer::style::pretty);

}  // namespace nwdec
