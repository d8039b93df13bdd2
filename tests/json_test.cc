#include <gtest/gtest.h>

#include "common/json.h"
#include "service/protocol.h"

namespace qy {
namespace {

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("3.25")->AsDouble(), 3.25);
  EXPECT_EQ(ParseJson("-17")->AsInt(), -17);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, ParseNested) {
  auto doc = ParseJson(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(doc.ok());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[2].Find("b")->AsString(), "c");
  EXPECT_TRUE(doc->Find("d")->is_null());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonTest, ParseEscapes) {
  auto doc = ParseJson(R"("line\nbreak \"quoted\" A")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsString(), "line\nbreak \"quoted\" A");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());  // trailing garbage
}

TEST(JsonTest, DumpCompactAndPretty) {
  JsonValue doc{JsonValue::Object{}};
  doc.Set("n", 3);
  doc.Set("xs", JsonValue(JsonValue::Array{JsonValue(1), JsonValue(2)}));
  EXPECT_EQ(doc.Dump(), R"({"n":3,"xs":[1,2]})");
  std::string pretty = doc.Dump(2);
  EXPECT_NE(pretty.find("\n  \"n\": 3"), std::string::npos);
}

TEST(JsonTest, RoundTripPreservesStructure) {
  std::string text =
      R"({"name":"ghz","num_qubits":3,"gates":[{"gate":"h","qubits":[0]}],"f":-1.25e-3})";
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  auto again = ParseJson(doc->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(doc->Dump(), again->Dump());
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue doc{JsonValue::Object{}};
  doc.Set("z", 1);
  doc.Set("a", 2);
  EXPECT_EQ(doc.Dump(), R"({"z":1,"a":2})");
}

TEST(JsonTest, NumberFormatting) {
  EXPECT_EQ(JsonValue(int64_t{5}).Dump(), "5");
  EXPECT_EQ(JsonValue(2.5).Dump(), "2.5");
  // Round-trip of a sub-epsilon double.
  auto doc = ParseJson(JsonValue(1e-300).Dump());
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->AsDouble(), 1e-300);
}

TEST(JsonTest, DeepNestingIsAParseErrorNotACrash) {
  const std::string arrays(100000, '[');
  auto doc = ParseJson(arrays);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("offset"), std::string::npos);
  EXPECT_NE(doc.status().message().find("nesting"), std::string::npos);

  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  auto obj = ParseJson(objects);
  ASSERT_FALSE(obj.ok());
  EXPECT_EQ(obj.status().code(), StatusCode::kParseError);

  // A hostile service frame fails in the request decoder, typed.
  auto request = service::DecodeRequest(arrays);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kParseError);
  auto field = service::DecodeRequest(
      R"({"op":"query","sql":"SELECT 1","extra":)" + arrays + "1");
  ASSERT_FALSE(field.ok());
  EXPECT_EQ(field.status().code(), StatusCode::kParseError);
}

TEST(JsonTest, NestingUpToTheLimitParses) {
  std::string at_limit = std::string(kMaxJsonDepth, '[') + "1" +
                         std::string(kMaxJsonDepth, ']');
  auto doc = ParseJson(at_limit);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Dump(), at_limit);
  std::string past = "[" + at_limit + "]";
  EXPECT_EQ(ParseJson(past).status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace qy
