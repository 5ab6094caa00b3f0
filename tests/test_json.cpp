// rpv::json: the node layout, value semantics and the canonical-bytes
// contract every stored report, manifest and events file depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "json/json.hpp"

namespace rpv::json {
namespace {

Value sample_document() {
  Value inner = Value::array();
  inner.push_back(1).push_back(2.5).push_back("three");
  Value doc = Value::object();
  doc.set("name", "run")
      .set("ok", true)
      .set("nothing", Value{})
      .set("samples", std::move(inner))
      .set("nested", Value::object().set("k", std::int64_t{-7}))
      .set("empty_array", Value::array())
      .set("empty_object", Value::object());
  return doc;
}

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(parse("null").kind(), Value::Kind::kNull);
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_EQ(parse("-42").as_i64(), -42);
  EXPECT_EQ(parse("18446744073709551615").as_u64(),
            18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(parse("0.25").as_double(), 0.25);
  EXPECT_EQ(parse("\"a\\nb\"").as_string(), "a\nb");
}

TEST(Json, DoubleDumpIsShortestRoundTrip) {
  const double x = 0.1;
  const auto v = parse(Value{x}.dump());
  EXPECT_EQ(v.as_double(), x);
  EXPECT_EQ(Value{x}.dump(), "0.1");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Value obj = Value::object();
  obj.set("zeta", 1).set("alpha", 2).set("mid", 3);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // Overwrite keeps the original slot.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj.members()[1].key, "alpha");
  EXPECT_EQ(obj.at("alpha").as_i64(), 9);
}

TEST(Json, NestedDocumentRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":[{"d":-7}]},"e":""})";
  const auto v = parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(v.at("b").at("c").items().at(0).at("d").as_i64(), -7);
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("tru"), std::runtime_error);
  EXPECT_THROW(parse("{} x"), std::runtime_error);
  EXPECT_FALSE(try_parse("nope").has_value());
  EXPECT_TRUE(try_parse("[]").has_value());
}

TEST(Json, MissingKeyNamesTheKey) {
  const auto v = parse("{\"a\":1}");
  try {
    (void)v.at("missing");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("missing"), std::string::npos);
  }
}

TEST(Json, CopyIsDeep) {
  const Value original = sample_document();
  const std::string before = original.dump();
  Value copy = original;
  copy.set("name", "changed").set("extra", 1);
  Value assigned;
  assigned = original;
  assigned.set("samples", Value{});
  EXPECT_EQ(original.dump(), before);
  EXPECT_NE(copy.dump(), before);
  EXPECT_NE(assigned.dump(), before);
}

TEST(Json, SelfAssignmentKeepsTheValue) {
  Value v = sample_document();
  const std::string before = v.dump();
  const Value& alias = v;
  v = alias;
  EXPECT_EQ(v.dump(), before);
}

TEST(Json, MovedFromValueIsNull) {
  Value a = sample_document();
  const std::string bytes = a.dump();
  Value b = std::move(a);
  EXPECT_TRUE(a.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.dump(), bytes);

  Value c = "text";
  c = std::move(b);
  EXPECT_TRUE(b.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.dump(), bytes);
}

TEST(Json, NullBecomesArrayOrObjectOnFirstInsert) {
  Value a;
  a.push_back(1);
  EXPECT_TRUE(a.is_array());
  Value o;
  o.set("k", 1);
  EXPECT_TRUE(o.is_object());
  EXPECT_THROW(a.set("k", 1), std::runtime_error);
  EXPECT_THROW(o.push_back(1), std::runtime_error);
}

TEST(Json, IntegerKindsRoundTrip) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  const std::uint64_t top = (std::uint64_t{1} << 63) + 5;
  const std::uint64_t umax = std::numeric_limits<std::uint64_t>::max();

  Value a = Value::array();
  a.push_back(lo).push_back(hi).push_back(top).push_back(umax).push_back(0);
  const std::string bytes = a.dump();
  EXPECT_EQ(bytes,
            "[-9223372036854775808,9223372036854775807,"
            "9223372036854775813,18446744073709551615,0]");

  const Value back = parse(bytes);
  const auto& items = back.items();
  ASSERT_EQ(items.size(), 5u);
  EXPECT_EQ(items[0].kind(), Value::Kind::kInt);
  EXPECT_EQ(items[0].as_i64(), lo);
  EXPECT_EQ(items[1].kind(), Value::Kind::kInt);
  EXPECT_EQ(items[1].as_i64(), hi);
  EXPECT_EQ(items[2].kind(), Value::Kind::kUint);
  EXPECT_EQ(items[2].as_u64(), top);
  EXPECT_EQ(items[3].kind(), Value::Kind::kUint);
  EXPECT_EQ(items[3].as_u64(), umax);
  EXPECT_EQ(items[4].kind(), Value::Kind::kInt);
  EXPECT_EQ(back.dump(), bytes);
}

TEST(Json, NonFiniteDoublesDumpAsNull) {
  Value a = Value::array();
  a.push_back(std::numeric_limits<double>::infinity())
      .push_back(-std::numeric_limits<double>::infinity())
      .push_back(std::numeric_limits<double>::quiet_NaN())
      .push_back(0.1);
  EXPECT_EQ(a.dump(), "[null,null,null,0.1]");
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string raw =
      std::string{"q\"b\\n\nr\rt\tb\bf\f"} + '\x01' + '\x1f' + "/ \xc3\xa9";
  const Value v{raw};
  const std::string bytes = v.dump();
  EXPECT_EQ(bytes,
            "\"q\\\"b\\\\n\\nr\\rt\\tb\\u0008f\\u000c\\u0001\\u001f/ "
            "\xc3\xa9\"");
  EXPECT_EQ(parse(bytes).as_string(), raw);
  EXPECT_EQ(parse(R"("é\/")").as_string(), "\xc3\xa9/");

  Value o = Value::object();
  o.set(raw, raw);
  EXPECT_EQ(parse(o.dump()).members()[0].key, raw);
}

TEST(Json, PrettyDumpIsAParseFixpoint) {
  const Value doc = sample_document();
  const std::string pretty = doc.dump(2);
  const Value back = parse(pretty);
  EXPECT_EQ(back.dump(2), pretty);
  EXPECT_EQ(back.dump(), doc.dump());
}

TEST(Json, DeepNestingThrowsInsteadOfCrashing) {
  const int deep = 100'000;
  EXPECT_THROW((void)parse(std::string(deep, '[')), std::runtime_error);
  EXPECT_THROW((void)parse(std::string(deep, '[') + std::string(deep, ']')),
               std::runtime_error);
  std::string objects;
  for (int i = 0; i < deep; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)parse(objects), std::runtime_error);
  EXPECT_FALSE(try_parse(objects).has_value());
}

TEST(Json, NestingUpToTheCapParses) {
  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)parse(nested(kMaxParseDepth)));
  try {
    (void)parse(nested(kMaxParseDepth + 1));
    FAIL() << "nesting past the cap must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("offset"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rpv::json
