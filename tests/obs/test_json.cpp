#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace {

std::string scalar(double v) {
    obs::Json j;
    j.value(v);
    return j.str();
}

TEST(Json, EscapesQuotesBackslashesAndControlBytes) {
    obs::Json j;
    j.value(std::string("a\"b\\c\nd\te\x01" "f"));
    EXPECT_EQ(j.str(), R"("a\"b\\c\nd\te\u0001f")");
}

TEST(Json, PassesUtf8Through) {
    obs::Json j;
    j.value("K40c \xC2\xB5s \xE2\x86\x92 \xF0\x9F\x93\x88");
    EXPECT_EQ(j.str(), "\"K40c \xC2\xB5s \xE2\x86\x92 \xF0\x9F\x93\x88\"");
}

TEST(Json, EmptyContainersStayOnOneLine) {
    obs::Json j;
    j.begin_object().object("o").end_object().array("a").end_array().end_object();
    EXPECT_EQ(j.str(), "{\n  \"o\": {},\n  \"a\": []\n}");
}

TEST(Json, PlacesCommasInNestedContainers) {
    obs::Json j;
    j.begin_object().field("n", 1);
    j.array("rows");
    for (int i = 0; i < 2; ++i) j.begin_object().field("i", i).field("ok", i == 0).end_object();
    j.end_array();
    j.array("xs").value(1).begin_array().end_array().value("s").end_array();
    j.end_object();
    EXPECT_EQ(j.str(),
              "{\n"
              "  \"n\": 1,\n"
              "  \"rows\": [\n"
              "    {\n"
              "      \"i\": 0,\n"
              "      \"ok\": true\n"
              "    },\n"
              "    {\n"
              "      \"i\": 1,\n"
              "      \"ok\": false\n"
              "    }\n"
              "  ],\n"
              "  \"xs\": [\n"
              "    1,\n"
              "    [],\n"
              "    \"s\"\n"
              "  ]\n"
              "}");
}

TEST(Json, WritesIntegerExtremesExactly) {
    obs::Json j;
    j.begin_array()
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::numeric_limits<std::int64_t>::min())
        .end_array();
    EXPECT_EQ(j.str(), "[\n  18446744073709551615,\n  -9223372036854775808\n]");
}

TEST(Json, DoublesRoundTripAndStayReal) {
    for (const double v : {0.1, 1e-300, 123456.789, -2.5, 3.0, 0.0}) {
        const std::string text = scalar(v);
        double back = 0.0;
        const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), back);
        EXPECT_EQ(ec, std::errc{}) << text;
        EXPECT_EQ(end, text.data() + text.size()) << text;
        EXPECT_EQ(back, v) << text;
        EXPECT_NE(text.find_first_of(".e"), std::string::npos) << text;
    }
    EXPECT_EQ(scalar(0.1), "0.1");
    EXPECT_EQ(scalar(3.0), "3.0");
}

TEST(Json, NonFiniteDoublesThrow) {
    EXPECT_THROW(scalar(std::nan("")), std::invalid_argument);
    EXPECT_THROW(scalar(std::numeric_limits<double>::infinity()), std::invalid_argument);
    EXPECT_THROW(scalar(-std::numeric_limits<double>::infinity()), std::invalid_argument);
}

TEST(Json, ReadsTopLevelNumbersInEitherLayout) {
    // The hand-written fprintf layout the committed baselines still carry.
    const std::string old_layout =
        "{\"bench\":\"x\",\"quick\":{\"advantage\": 9.5},"
        "\"quick_rate\":565460.3,\"pass\":true}";
    EXPECT_EQ(obs::read_number(old_layout, "quick_rate"), 565460.3);

    obs::Json j;
    j.begin_object()
        .field("bench", "quick_rate")
        .object("quick")
        .field("advantage", 9.5)
        .end_object()
        .field("advantage", 1.2127)
        .field("quick_rate", 565460.3)
        .end_object();
    EXPECT_EQ(obs::read_number(j.str(), "quick_rate"), 565460.3);
    // The top-level key wins over the nested one before it.
    EXPECT_EQ(obs::read_number(j.str(), "advantage"), 1.2127);
}

TEST(Json, ReadReportsMissingKeys) {
    const std::string doc = "{\n  \"bench\": \"quick_rate\",\n  \"nested\": {\"missing\": 1}\n}";
    EXPECT_FALSE(obs::read_number(doc, "missing").has_value());
    EXPECT_FALSE(obs::read_number(doc, "quick_rate").has_value());
    EXPECT_FALSE(obs::read_number(doc, "bench").has_value());
    EXPECT_FALSE(obs::read_number("", "bench").has_value());
}

}  // namespace
