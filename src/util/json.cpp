#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "util/error.h"

namespace nwdec {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

// ------------------------------------------------------------- json_value

bool json_value::as_bool() const {
  NWDEC_EXPECTS(kind_ == kind::boolean, "json_value is not a boolean");
  return bool_;
}

double json_value::as_number() const {
  NWDEC_EXPECTS(kind_ == kind::number, "json_value is not a number");
  return number_;
}

const std::string& json_value::as_string() const {
  NWDEC_EXPECTS(kind_ == kind::string, "json_value is not a string");
  return string_;
}

const std::vector<json_value>& json_value::items() const {
  NWDEC_EXPECTS(kind_ == kind::array, "json_value is not an array");
  return items_;
}

const std::vector<json_value::member>& json_value::members() const {
  NWDEC_EXPECTS(kind_ == kind::object, "json_value is not an object");
  return members_;
}

void json_value::push_back(json_value element) {
  NWDEC_EXPECTS(kind_ == kind::array, "push_back on a non-array json_value");
  items_.push_back(std::move(element));
}

void json_value::set(const std::string& name, json_value value) {
  NWDEC_EXPECTS(kind_ == kind::object, "set on a non-object json_value");
  for (member& entry : members_) {
    if (entry.first == name) {
      entry.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(name, std::move(value));
}

const json_value* json_value::find(std::string_view name) const {
  if (kind_ != kind::object) return nullptr;
  for (const member& entry : members_) {
    if (entry.first == name) return &entry.second;
  }
  return nullptr;
}

json_value json_value::object(std::vector<member> members) {
  json_value out(kind::object);
  out.members_ = std::move(members);
  return out;
}

const json_value& json_value::at(std::string_view name) const {
  NWDEC_EXPECTS(kind_ == kind::object, "at() on a non-object json_value");
  const json_value* found = find(name);
  if (found == nullptr) {
    throw not_found_error("json object has no member '" + std::string(name) +
                          "'");
  }
  return *found;
}

bool operator==(const json_value& a, const json_value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case json_value::kind::null: return true;
    case json_value::kind::boolean: return a.bool_ == b.bool_;
    case json_value::kind::number: return a.number_ == b.number_;
    case json_value::kind::string: return a.string_ == b.string_;
    case json_value::kind::array: return a.items_ == b.items_;
    case json_value::kind::object: return a.members_ == b.members_;
  }
  return false;
}

// ----------------------------------------------------------- json_reader

namespace {

// Deep enough for any nwdec document; bounds the recursion of the tree
// builder and skip_value() so a hostile request cannot overflow the stack.
constexpr std::size_t max_depth = 128;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void json_reader::fail(const std::string& what) const {
  throw json_parse_error("JSON parse error at offset " +
                         std::to_string(offset()) + ": " + what);
}

void json_reader::skip_whitespace() {
  while (at_ != end_ &&
         (*at_ == ' ' || *at_ == '\n' || *at_ == '\t' || *at_ == '\r')) {
    ++at_;
  }
}

char json_reader::start_value() {
  skip_whitespace();
  if (depth_ > max_depth) fail("document nests deeper than 128 levels");
  if (at_ == end_) fail("unexpected end of input");
  return *at_;
}

json_value::kind json_reader::peek() {
  const char c = start_value();
  switch (c) {
    case '{': return json_value::kind::object;
    case '[': return json_value::kind::array;
    case '"': return json_value::kind::string;
    case 't':
    case 'f': return json_value::kind::boolean;
    case 'n': return json_value::kind::null;
    default:
      if (c == '-' || is_digit(c)) return json_value::kind::number;
      fail(std::string("unexpected character '") + c + "'");
  }
}

void json_reader::begin_object() {
  if (start_value() != '{') fail("expected '{'");
  ++at_;
  ++depth_;
  after_value_ = false;
}

bool json_reader::next_member(std::string_view& key) {
  skip_whitespace();
  if (at_ != end_ && *at_ == '}') {
    ++at_;
    --depth_;
    after_value_ = true;
    return false;
  }
  if (after_value_) {
    if (at_ == end_ || *at_ != ',') fail("expected ',' or '}' in object");
    ++at_;
    skip_whitespace();
  }
  if (at_ == end_ || *at_ != '"') fail("expected an object key string");
  key = scan_string();
  skip_whitespace();
  if (at_ == end_ || *at_ != ':') fail("expected ':'");
  ++at_;
  after_value_ = false;
  return true;
}

void json_reader::begin_array() {
  if (start_value() != '[') fail("expected '['");
  ++at_;
  ++depth_;
  after_value_ = false;
}

bool json_reader::next_element() {
  skip_whitespace();
  if (at_ != end_ && *at_ == ']') {
    ++at_;
    --depth_;
    after_value_ = true;
    return false;
  }
  if (after_value_) {
    if (at_ == end_ || *at_ != ',') fail("expected ',' or ']' in array");
    ++at_;
    after_value_ = false;
  }
  return true;
}

std::string_view json_reader::read_string() {
  if (start_value() != '"') fail("expected a string");
  const std::string_view text = scan_string();
  after_value_ = true;
  return text;
}

std::string_view json_reader::scan_string() {
  const char* begin = ++at_;  // past the opening quote
  // Fast path: a string without escapes is a view into the text.
  for (; at_ != end_; ++at_) {
    const char c = *at_;
    if (c == '"') {
      const std::string_view text(begin, static_cast<std::size_t>(at_ - begin));
      ++at_;
      return text;
    }
    if (c == '\\') return scan_escaped_string(begin);
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("raw control character in string (use \\u escapes)");
    }
  }
  fail("unterminated string");
}

std::string_view json_reader::scan_escaped_string(const char* begin) {
  scratch_.assign(begin, static_cast<std::size_t>(at_ - begin));
  while (true) {
    if (at_ == end_) fail("unterminated string");
    const char c = *at_++;
    if (c == '"') return scratch_;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("raw control character in string (use \\u escapes)");
    }
    if (c != '\\') {
      scratch_ += c;
      continue;
    }
    if (at_ == end_) fail("unterminated string");
    switch (*at_++) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': append_unicode_escape(); break;
      default: fail("unknown escape sequence");
    }
  }
}

unsigned json_reader::parse_hex4() {
  unsigned value = 0;
  for (int k = 0; k < 4; ++k) {
    if (at_ == end_) fail("unexpected end of input");
    const char c = *at_++;
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
    else fail("expected four hex digits after \\u");
  }
  return value;
}

void json_reader::append_unicode_escape() {
  unsigned code = parse_hex4();
  if (code >= 0xd800 && code <= 0xdbff) {
    // High surrogate: a low surrogate escape must follow.
    if (end_ - at_ < 2 || at_[0] != '\\' || at_[1] != 'u') {
      fail("high surrogate without a following \\u low surrogate");
    }
    at_ += 2;
    const unsigned low = parse_hex4();
    if (low < 0xdc00 || low > 0xdfff) fail("invalid low surrogate in \\u pair");
    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
  } else if (code >= 0xdc00 && code <= 0xdfff) {
    fail("unpaired low surrogate");
  }
  // Encode the code point as UTF-8.
  std::string& out = scratch_;
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xc0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xe0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  }
}

double json_reader::read_number() {
  const char c = start_value();
  if (c != '-' && !is_digit(c)) fail("expected a number");
  // Validate the strict JSON grammar first (from_chars is laxer: it
  // accepts inf/nan and bare leading dots).
  const char* first = at_;
  const auto digits = [this] {
    const char* run = at_;
    while (at_ != end_ && is_digit(*at_)) ++at_;
    return at_ - run;
  };
  if (*at_ == '-') ++at_;
  if (at_ == end_ || !is_digit(*at_)) fail("malformed number");
  if (*at_ == '0') {
    ++at_;
  } else {
    digits();
  }
  if (at_ != end_ && *at_ == '.') {
    ++at_;
    if (digits() == 0) fail("expected digits after the decimal point");
  }
  if (at_ != end_ && (*at_ == 'e' || *at_ == 'E')) {
    ++at_;
    if (at_ != end_ && (*at_ == '+' || *at_ == '-')) ++at_;
    if (digits() == 0) fail("expected digits in the exponent");
  }
  double value = 0.0;
  const std::from_chars_result result = std::from_chars(first, at_, value);
  if (result.ec != std::errc{} || result.ptr != at_) fail("malformed number");
  after_value_ = true;
  return value;
}

void json_reader::expect_literal(std::string_view literal) {
  if (static_cast<std::size_t>(end_ - at_) < literal.size() ||
      std::string_view(at_, literal.size()) != literal) {
    fail("expected '" + std::string(literal) + "'");
  }
  at_ += literal.size();
  after_value_ = true;
}

bool json_reader::read_bool() {
  const char c = start_value();
  if (c == 't') {
    expect_literal("true");
    return true;
  }
  if (c != 'f') fail("expected true or false");
  expect_literal("false");
  return false;
}

void json_reader::read_null() {
  start_value();
  expect_literal("null");
}

void json_reader::skip_value() {
  std::string_view key;
  switch (peek()) {
    case json_value::kind::object:
      begin_object();
      while (next_member(key)) skip_value();
      return;
    case json_value::kind::array:
      begin_array();
      while (next_element()) skip_value();
      return;
    case json_value::kind::string: read_string(); return;
    case json_value::kind::number: read_number(); return;
    case json_value::kind::boolean: read_bool(); return;
    case json_value::kind::null: read_null(); return;
  }
}

void json_reader::finish() {
  skip_whitespace();
  if (at_ != end_) fail("trailing content after the JSON document");
}

// ------------------------------------------------------------ json_parse

namespace {

json_value build_value(json_reader& reader) {
  switch (reader.peek()) {
    case json_value::kind::object: {
      // Duplicate keys keep last-wins semantics at the first key's
      // position. Small objects find duplicates by a linear scan; past
      // that a key index keeps a wide (possibly hostile) object O(n)
      // instead of O(n^2). Room for eight members up front skips the
      // first regrowths of a typical request object.
      constexpr std::size_t scan_limit = 16;
      std::vector<json_value::member> members;
      members.reserve(8);
      std::unordered_map<std::string, std::size_t> index;
      std::string_view key;
      reader.begin_object();
      while (reader.next_member(key)) {
        std::string name(key);
        json_value value = build_value(reader);
        std::size_t slot = members.size();
        if (members.size() < scan_limit) {
          for (std::size_t k = 0; k < members.size(); ++k) {
            if (members[k].first == name) {
              slot = k;
              break;
            }
          }
        } else {
          if (index.empty()) {
            for (std::size_t k = 0; k < members.size(); ++k) {
              index.emplace(members[k].first, k);
            }
          }
          slot = index.emplace(name, members.size()).first->second;
        }
        if (slot < members.size()) {
          members[slot].second = std::move(value);
        } else {
          members.emplace_back(std::move(name), std::move(value));
        }
      }
      return json_value::object(std::move(members));
    }
    case json_value::kind::array: {
      json_value array = json_value::array();
      reader.begin_array();
      while (reader.next_element()) array.push_back(build_value(reader));
      return array;
    }
    case json_value::kind::string:
      return json_value(std::string(reader.read_string()));
    case json_value::kind::number: return json_value(reader.read_number());
    case json_value::kind::boolean: return json_value(reader.read_bool());
    case json_value::kind::null: reader.read_null(); return json_value();
  }
  return json_value();
}

}  // namespace

json_value json_parse(std::string_view text) {
  json_reader reader(text);
  json_value document = build_value(reader);
  reader.finish();
  return document;
}

// ------------------------------------------------------------ json_writer

void json_writer::indent() { out_.append(2 * stack_.size(), ' '); }

void json_writer::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  NWDEC_EXPECTS(stack_.empty() || stack_.back().inside == scope::array,
                "a value inside an object needs a key() first");
  if (!stack_.empty()) {
    if (!stack_.back().first) out_ += ',';
    stack_.back().first = false;
    if (style_ == style::pretty) {
      out_ += '\n';
      indent();
    }
  }
}

json_writer& json_writer::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back({scope::object, true});
  return *this;
}

json_writer& json_writer::end_object() {
  NWDEC_EXPECTS(!stack_.empty() && stack_.back().inside == scope::object &&
                    !pending_key_,
                "end_object() outside an object");
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty && style_ == style::pretty) {
    out_ += '\n';
    indent();
  }
  out_ += '}';
  return *this;
}

json_writer& json_writer::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back({scope::array, true});
  return *this;
}

json_writer& json_writer::end_array() {
  NWDEC_EXPECTS(!stack_.empty() && stack_.back().inside == scope::array,
                "end_array() outside an array");
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty && style_ == style::pretty) {
    out_ += '\n';
    indent();
  }
  out_ += ']';
  return *this;
}

json_writer& json_writer::key(std::string_view name) {
  NWDEC_EXPECTS(!stack_.empty() && stack_.back().inside == scope::object &&
                    !pending_key_,
                "key() is only valid directly inside an object");
  if (!stack_.back().first) out_ += ',';
  stack_.back().first = false;
  if (style_ == style::pretty) {
    out_ += '\n';
    indent();
  }
  out_ += '"';
  append_escaped(out_, name);
  out_ += style_ == style::pretty ? "\": " : "\":";
  pending_key_ = true;
  return *this;
}

json_writer& json_writer::raw(std::string_view text) {
  before_value();
  out_ += text;
  return *this;
}

json_writer& json_writer::value(std::string_view text) {
  before_value();
  out_ += '"';
  append_escaped(out_, text);
  out_ += '"';
  return *this;
}

json_writer& json_writer::value(double number) {
  // JSON has no inf/nan; map them to null rather than emit garbage.
  if (!std::isfinite(number)) return raw("null");
  // Shortest representation that parses back to the same double, so the
  // reports round-trip exactly through strtod.
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), number);
  return raw(std::string_view(buffer, static_cast<std::size_t>(
                                          result.ptr - buffer)));
}

json_writer& json_writer::value(bool flag) {
  return raw(flag ? "true" : "false");
}

json_writer& json_writer::value(const json_value& node) {
  switch (node.type()) {
    case json_value::kind::null: return raw("null");
    case json_value::kind::boolean: return value(node.as_bool());
    case json_value::kind::number: return value(node.as_number());
    case json_value::kind::string: return value(node.as_string());
    case json_value::kind::array: {
      begin_array();
      for (const json_value& element : node.items()) value(element);
      return end_array();
    }
    case json_value::kind::object: {
      begin_object();
      for (const json_value::member& entry : node.members()) {
        key(entry.first);
        value(entry.second);
      }
      return end_object();
    }
  }
  return *this;
}

std::string json_writer::str() const {
  NWDEC_EXPECTS(stack_.empty() && !pending_key_,
                "str() called with an unclosed object/array or dangling key");
  std::string document;
  document.reserve(out_.size() + 1);
  document += out_;
  document += '\n';
  return document;
}

std::string json_render(const json_value& node,
                        json_writer::style output_style) {
  json_writer writer(output_style);
  writer.value(node);
  return writer.str();
}

}  // namespace nwdec
