// The shared JSON emitter and parser: structure, escaping, stable key
// order, numeric round-tripping through strtod, and the
// parse(write(x)) == x / write(parse(t)) == t inverses the sweep service's
// cache files and daemon responses are built on.
#include "util/json.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "util/error.h"
#include "util/rng.h"

namespace nwdec {
namespace {

TEST(JsonWriterTest, EmitsNestedDocumentWithStableLayout) {
  json_writer json;
  json.begin_object()
      .field("name", "sweep")
      .field("threads", 4)
      .field("sigma", 0.05)
      .field("quick", true)
      .key("points")
      .begin_array();
  json.begin_object().field("yield", 0.75).end_object();
  json.begin_object().field("yield", 0.5).end_object();
  json.end_array();
  json.key("empty").begin_object().end_object();
  const std::string document = json.end_object().str();

  EXPECT_EQ(document,
            "{\n"
            "  \"name\": \"sweep\",\n"
            "  \"threads\": 4,\n"
            "  \"sigma\": 0.05,\n"
            "  \"quick\": true,\n"
            "  \"points\": [\n"
            "    {\n"
            "      \"yield\": 0.75\n"
            "    },\n"
            "    {\n"
            "      \"yield\": 0.5\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(JsonWriterTest, SameInputsGiveByteIdenticalDocuments) {
  const auto render = [] {
    json_writer json;
    json.begin_object()
        .field("a", 1)
        .field("b", 0.123456789012345)
        .end_object();
    return json.str();
  };
  EXPECT_EQ(render(), render());
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, DoublesRoundTripThroughStrtod) {
  const double values[] = {0.05, 1.0 / 3.0, 123456.789012, 2.8, 0.657949806604};
  for (const double value : values) {
    json_writer json;
    const std::string document =
        json.begin_object().field("x", value).end_object().str();
    const std::size_t at = document.find(": ") + 2;
    const double parsed = std::strtod(document.c_str() + at, nullptr);
    EXPECT_EQ(parsed, value);  // to_chars guarantees exact round-trip
  }
}

TEST(JsonWriterTest, MisuseIsRejected) {
  {
    json_writer json;
    json.begin_object();
    EXPECT_THROW(json.value(1), invalid_argument_error);  // key missing
  }
  {
    json_writer json;
    json.begin_array();
    EXPECT_THROW(json.key("k"), invalid_argument_error);  // key in array
  }
  {
    json_writer json;
    json.begin_object();
    EXPECT_THROW(json.str(), invalid_argument_error);  // unclosed scope
  }
  {
    json_writer json;
    EXPECT_THROW(json.end_object(), invalid_argument_error);
  }
}

TEST(JsonWriterTest, CompactStyleEmitsOneLine) {
  json_writer json(json_writer::style::compact);
  json.begin_object()
      .field("name", "sweep")
      .field("sigma", 0.05)
      .key("points")
      .begin_array()
      .value(1)
      .value(2)
      .end_array()
      .key("empty")
      .begin_object()
      .end_object();
  EXPECT_EQ(json.end_object().str(),
            "{\"name\":\"sweep\",\"sigma\":0.05,\"points\":[1,2],"
            "\"empty\":{}}\n");
}

TEST(JsonWriterTest, IntegersPrintExactly) {
  json_writer json(json_writer::style::compact);
  const std::string key = "signed";
  json.begin_object()
      .field(std::string_view("max"),
             std::numeric_limits<std::uint64_t>::max())
      .field(key, std::numeric_limits<std::int64_t>::min())
      .field("zero", 0)
      .end_object();
  EXPECT_EQ(json.str(),
            "{\"max\":18446744073709551615,"
            "\"signed\":-9223372036854775808,\"zero\":0}\n");
}

// --------------------------------------------------------------- reader

TEST(JsonReaderTest, WalksADocumentWithoutATree) {
  const std::string text =
      R"({"name": "plain", "escaped": "a\"bé", "n": 2.5,
          "list": [1, true, null], "skip": {"deep": [{"x": "y"}]}})";
  json_reader reader(text);
  std::string_view key;
  reader.begin_object();

  ASSERT_TRUE(reader.next_member(key));
  EXPECT_EQ(key, "name");
  const std::string_view plain = reader.read_string();
  EXPECT_EQ(plain, "plain");
  // An escape-free string is a view into the document itself.
  EXPECT_GE(plain.data(), text.data());
  EXPECT_LT(plain.data(), text.data() + text.size());

  ASSERT_TRUE(reader.next_member(key));
  EXPECT_EQ(key, "escaped");
  EXPECT_EQ(reader.read_string(), "a\"b\xc3\xa9");

  ASSERT_TRUE(reader.next_member(key));
  EXPECT_EQ(reader.peek(), json_value::kind::number);
  EXPECT_EQ(reader.read_number(), 2.5);

  ASSERT_TRUE(reader.next_member(key));
  reader.begin_array();
  ASSERT_TRUE(reader.next_element());
  EXPECT_EQ(reader.read_number(), 1.0);
  ASSERT_TRUE(reader.next_element());
  EXPECT_TRUE(reader.read_bool());
  ASSERT_TRUE(reader.next_element());
  EXPECT_EQ(reader.peek(), json_value::kind::null);
  reader.read_null();
  EXPECT_FALSE(reader.next_element());

  ASSERT_TRUE(reader.next_member(key));
  EXPECT_EQ(key, "skip");
  reader.skip_value();
  EXPECT_FALSE(reader.next_member(key));
  EXPECT_NO_THROW(reader.finish());
}

TEST(JsonReaderTest, SeparatorsAreStrict) {
  const auto walk = [](const std::string& text) {
    json_reader reader(text);
    reader.skip_value();
    reader.finish();
  };
  for (const char* text :
       {"{\"a\": 1,}", "{,\"a\": 1}", "{\"a\" 1}", "{\"a\": 1 \"b\": 2}",
        "[1,]", "[,1]", "[1 2]", "[", "{\"a\": 1} x", "[] []"}) {
    EXPECT_THROW(walk(text), json_parse_error) << "input: " << text;
  }
  EXPECT_NO_THROW(walk(" { \"a\" : [ ] , \"b\" : { } } \n"));
}

TEST(JsonReaderTest, SkipValueHonorsTheDepthBound) {
  std::string deep = "{\"k\": ";
  for (int k = 0; k < 200; ++k) deep += '[';
  for (int k = 0; k < 200; ++k) deep += ']';
  deep += '}';
  json_reader reader(deep);
  std::string_view key;
  reader.begin_object();
  ASSERT_TRUE(reader.next_member(key));
  EXPECT_THROW(reader.skip_value(), json_parse_error);
}

TEST(JsonReaderTest, NumbersMatchFromChars) {
  for (const char* text :
       {"0", "-0", "7", "123456789012345", "1234567890123456",
        "9007199254740993", "18446744073709551616", "-42", "0.1", "2.5e-3",
        "1E+2", "-0.0"}) {
    json_reader reader(text);
    const double parsed = reader.read_number();
    reader.finish();
    double expected = 0.0;
    std::from_chars(text, text + std::strlen(text), expected);
    EXPECT_EQ(parsed, expected) << text;
    EXPECT_EQ(std::signbit(parsed), std::signbit(expected)) << text;
  }
  json_reader huge("1e400");
  EXPECT_THROW(huge.read_number(), json_parse_error);
}

TEST(JsonReaderTest, TypedReadsRejectOtherKinds) {
  json_reader reader(R"(["text", 1])");
  reader.begin_array();
  ASSERT_TRUE(reader.next_element());
  EXPECT_THROW(reader.read_number(), json_parse_error);
}

// --------------------------------------------------------------- parser

TEST(JsonParseTest, ParsesEveryValueKind) {
  const json_value document = json_parse(
      R"({"s": "text", "n": 1.5, "i": -3, "t": true, "f": false,
          "z": null, "a": [1, [2]], "o": {"inner": 0}})");
  EXPECT_EQ(document.at("s").as_string(), "text");
  EXPECT_EQ(document.at("n").as_number(), 1.5);
  EXPECT_EQ(document.at("i").as_number(), -3.0);
  EXPECT_TRUE(document.at("t").as_bool());
  EXPECT_FALSE(document.at("f").as_bool());
  EXPECT_TRUE(document.at("z").is_null());
  ASSERT_EQ(document.at("a").items().size(), 2u);
  EXPECT_EQ(document.at("a").items()[1].items()[0].as_number(), 2.0);
  EXPECT_EQ(document.at("o").at("inner").as_number(), 0.0);
  EXPECT_EQ(document.find("missing"), nullptr);
  EXPECT_THROW(document.at("missing"), not_found_error);
}

TEST(JsonParseTest, PreservesObjectMemberOrder) {
  const json_value document = json_parse(R"({"z": 1, "a": 2, "m": 3})");
  const std::vector<json_value::member>& members = document.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParseTest, DecodesEscapes) {
  const json_value document =
      json_parse(R"({"e": "a\"b\\c\/d\n\t\u0041\u00e9"})");
  EXPECT_EQ(document.at("e").as_string(), "a\"b\\c/d\n\tA\xc3\xa9");
  // Surrogate pair: U+1D11E (musical G clef) -> 4-byte UTF-8.
  const json_value clef = json_parse(R"(["\ud834\udd1e"])");
  EXPECT_EQ(clef.items()[0].as_string(), "\xf0\x9d\x84\x9e");
}

TEST(JsonParseTest, RoundTripsWriterOutputExactly) {
  // parse(write(x)) == x, including exact double bits -- the property the
  // result store's persistence rests on.
  json_value original = json_value::object();
  original.set("label", json_value("cliff \"test\"\n"));
  original.set("third", json_value(1.0 / 3.0));
  original.set("tiny", json_value(5e-324));  // min subnormal
  original.set("large", json_value(1.797e308));
  original.set("negzero", json_value(-0.0));
  original.set("count", json_value(150));
  original.set("flag", json_value(true));
  original.set("nothing", json_value());
  json_value nested = json_value::array();
  nested.push_back(json_value(0.8641173107133364));
  json_value inner = json_value::object();
  inner.set("yield", json_value(0.7466987266744488));
  nested.push_back(inner);
  nested.push_back(json_value::array());
  original.set("trace", nested);

  for (const json_writer::style style :
       {json_writer::style::pretty, json_writer::style::compact}) {
    const std::string text = json_render(original, style);
    const json_value reparsed = json_parse(text);
    EXPECT_TRUE(reparsed == original);
    // write(parse(text)) == text: the fixed point in the other direction.
    EXPECT_EQ(json_render(reparsed, style), text);
  }
}

TEST(JsonParseTest, RandomDoublesSurviveTheRoundTrip) {
  rng random(2026);
  for (int k = 0; k < 200; ++k) {
    const double value = random.gaussian(0.0, 1.0) *
                         std::pow(10.0, random.uniform(-12.0, 12.0));
    json_value array = json_value::array();
    array.push_back(json_value(value));
    const json_value reparsed = json_parse(json_render(array));
    EXPECT_EQ(reparsed.items()[0].as_number(), value);
  }
}

TEST(JsonParseTest, NonFiniteWritesAsNullAndStaysNull) {
  json_value array = json_value::array();
  array.push_back(json_value(std::numeric_limits<double>::infinity()));
  array.push_back(json_value(std::nan("")));
  const json_value reparsed = json_parse(json_render(array));
  EXPECT_TRUE(reparsed.items()[0].is_null());
  EXPECT_TRUE(reparsed.items()[1].is_null());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  const char* cases[] = {
      "",                      // empty input
      "{",                     // unterminated object
      "[1, 2",                 // unterminated array
      "{\"a\": }",             // missing value
      "{\"a\": 1,}",           // trailing comma
      "[1 2]",                 // missing comma
      "{'a': 1}",              // single quotes
      "{\"a\" 1}",             // missing colon
      "\"unterminated",        // unterminated string
      "[\"bad\\q\"]",          // unknown escape
      "[\"\\u12g4\"]",         // bad hex digit
      "[\"\\ud834\"]",         // unpaired high surrogate
      "[\"\\udd1e\"]",         // unpaired low surrogate
      "01",                    // leading zero
      "+1",                    // leading plus
      "1.",                    // bare decimal point
      ".5",                    // missing integer part
      "1e",                    // empty exponent
      "nan",                   // not a JSON literal
      "truth",                 // mangled literal
      "[] []",                 // trailing content
      "{\"a\": 1} x",          // trailing garbage
  };
  for (const char* text : cases) {
    EXPECT_THROW(json_parse(text), json_parse_error) << "input: " << text;
  }
  // A raw control character must be escaped.
  EXPECT_THROW(json_parse(std::string("[\"a\nb\"]")), json_parse_error);
}

TEST(JsonParseTest, ReportsTheDefectOffset) {
  try {
    json_parse("{\"a\": 1, \"b\": }");
    FAIL() << "expected json_parse_error";
  } catch (const json_parse_error& failure) {
    EXPECT_NE(std::string(failure.what()).find("offset 14"),
              std::string::npos)
        << failure.what();
  }
}

TEST(JsonParseTest, BoundsNestingDepth) {
  std::string deep;
  for (int k = 0; k < 200; ++k) deep += '[';
  for (int k = 0; k < 200; ++k) deep += ']';
  EXPECT_THROW(json_parse(deep), json_parse_error);
  // 100 levels is comfortably inside the limit.
  std::string fine;
  for (int k = 0; k < 100; ++k) fine += '[';
  for (int k = 0; k < 100; ++k) fine += ']';
  EXPECT_NO_THROW(json_parse(fine));
}

TEST(JsonValueTest, TypedAccessorsRejectMismatches) {
  const json_value number(1.0);
  EXPECT_THROW(number.as_string(), invalid_argument_error);
  EXPECT_THROW(number.as_bool(), invalid_argument_error);
  EXPECT_THROW(number.items(), invalid_argument_error);
  EXPECT_THROW(number.members(), invalid_argument_error);
  json_value array = json_value::array();
  EXPECT_THROW(array.set("k", json_value(1.0)), invalid_argument_error);
  EXPECT_EQ(array.find("k"), nullptr);  // non-object find is a miss
}

TEST(JsonValueTest, SetReplacesExistingMembers) {
  json_value object = json_value::object();
  object.set("k", json_value(1.0));
  object.set("k", json_value(2.0));
  ASSERT_EQ(object.members().size(), 1u);
  EXPECT_EQ(object.at("k").as_number(), 2.0);
}

TEST(JsonParseTest, DuplicateObjectKeysKeepTheLastValue) {
  const json_value document = json_parse(R"({"k": 1, "other": 2, "k": 3})");
  ASSERT_EQ(document.members().size(), 2u);
  EXPECT_EQ(document.at("k").as_number(), 3.0);
  EXPECT_EQ(document.members()[0].first, "k");  // original position kept
}

TEST(JsonParseTest, LargeObjectsParseInReasonableTime) {
  // The parser indexes keys while building, so a wide (possibly hostile)
  // object is O(n); this would take minutes if member insertion were
  // quadratic in string comparisons.
  std::string wide = "{";
  for (int k = 0; k < 20000; ++k) {
    if (k > 0) wide += ",";
    wide += "\"key_" + std::to_string(k) + "\": " + std::to_string(k);
  }
  wide += "}";
  const json_value document = json_parse(wide);
  EXPECT_EQ(document.members().size(), 20000u);
  EXPECT_EQ(document.at("key_19999").as_number(), 19999.0);
}

}  // namespace
}  // namespace nwdec
