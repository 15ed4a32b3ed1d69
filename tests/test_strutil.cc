/**
 * @file
 * Unit tests for common/strutil.
 */

#include <gtest/gtest.h>

#include <cctype>

#include "common/strutil.hh"
#include "common/types.hh"

namespace dlw
{
namespace
{

TEST(Split, BasicFields)
{
    auto f = split("a,b,c", ',');
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], "a");
    EXPECT_EQ(f[1], "b");
    EXPECT_EQ(f[2], "c");
}

TEST(Split, KeepsEmptyFields)
{
    auto f = split("a,,c,", ',');
    ASSERT_EQ(f.size(), 4u);
    EXPECT_EQ(f[1], "");
    EXPECT_EQ(f[3], "");
}

TEST(Split, SingleField)
{
    auto f = split("lonely", ',');
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], "lonely");
}

TEST(Split, EmptyString)
{
    auto f = split("", ',');
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], "");
}

TEST(Trim, StripsBothEnds)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(TrimView, ViewsIntoTheSource)
{
    const std::string s = "  hello \t\n";
    const std::string_view v = trimView(s);
    EXPECT_EQ(v, "hello");
    EXPECT_EQ(v.data(), s.data() + 2);
    EXPECT_EQ(trimView("x"), "x");
    EXPECT_TRUE(trimView("   ").empty());
    EXPECT_TRUE(trimView("").empty());
    EXPECT_EQ(trimView("\ta b\r"), "a b");
}

TEST(IsSpace, IsTheCLocaleIsspaceOnEveryByte)
{
    for (int c = 0; c < 256; ++c) {
        const char ch = static_cast<char>(c);
        EXPECT_EQ(isSpace(ch), std::isspace(c) != 0) << "byte " << c;
    }
}

TEST(TryParse, TrimsAndLeavesOutputUntouchedOnFailure)
{
    std::int64_t i = 7;
    EXPECT_TRUE(tryParseInt(" -12 ", i));
    EXPECT_EQ(i, -12);
    EXPECT_FALSE(tryParseInt("+5", i));
    EXPECT_FALSE(tryParseInt("", i));
    EXPECT_FALSE(tryParseInt("1 2", i));
    EXPECT_EQ(i, -12); // untouched on failure
    std::uint64_t u = 3;
    EXPECT_TRUE(tryParseUint("\t18446744073709551615 ", u));
    EXPECT_EQ(u, 18446744073709551615ull);
    EXPECT_FALSE(tryParseUint("18446744073709551616", u));
    EXPECT_FALSE(tryParseUint("-1", u));
    EXPECT_EQ(u, 18446744073709551615ull);
}

TEST(StartsWith, Matches)
{
    EXPECT_TRUE(startsWith("# dlw-ms-v1", "# dlw"));
    EXPECT_FALSE(startsWith("dlw", "dlww"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(EndsWith, Matches)
{
    EXPECT_TRUE(endsWith("trace.csv", ".csv"));
    EXPECT_TRUE(endsWith("trace.bin", ".bin"));
    EXPECT_FALSE(endsWith("trace.csv", ".bin"));
    EXPECT_FALSE(endsWith("csv", ".csv"));
    EXPECT_TRUE(endsWith("abc", ""));
    EXPECT_TRUE(endsWith(".csv", ".csv"));
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(FormatBytes, PicksUnit)
{
    EXPECT_EQ(formatBytes(512), "512.00 B");
    EXPECT_EQ(formatBytes(1536.0), "1.50 KiB");
    EXPECT_EQ(formatBytes(1.5 * 1024 * 1024 * 1024), "1.50 GiB");
}

TEST(FormatDuration, PicksUnit)
{
    EXPECT_EQ(formatDuration(500), "500 ns");
    EXPECT_EQ(formatDuration(1500), "1.50 us");
    EXPECT_EQ(formatDuration(2 * kMsec), "2.00 ms");
    EXPECT_EQ(formatDuration(90 * kSec), "90.00 s");
    EXPECT_EQ(formatDuration(3 * kHour), "3.00 h");
    EXPECT_EQ(formatDuration(2 * kDay), "2.00 d");
}

TEST(Pad, Right)
{
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padRight("abcd", 2), "abcd");
}

TEST(ParseDouble, ValidValues)
{
    EXPECT_DOUBLE_EQ(parseDouble("3.5", "t"), 3.5);
    EXPECT_DOUBLE_EQ(parseDouble(" -1e3 ", "t"), -1000.0);
}

TEST(ParseDoubleDeathTest, RejectsGarbage)
{
    EXPECT_EXIT(parseDouble("abc", "field"),
                ::testing::ExitedWithCode(1), "malformed number");
    EXPECT_EXIT(parseDouble("", "field"),
                ::testing::ExitedWithCode(1), "empty field");
    EXPECT_EXIT(parseDouble("1.5x", "field"),
                ::testing::ExitedWithCode(1), "malformed number");
}

TEST(ParseInt, ValidValues)
{
    EXPECT_EQ(parseInt("42", "t"), 42);
    EXPECT_EQ(parseInt("-7", "t"), -7);
    EXPECT_EQ(parseInt(" 1000000000000 ", "t"), 1000000000000LL);
}

TEST(ParseIntDeathTest, RejectsGarbage)
{
    EXPECT_EXIT(parseInt("4.5", "field"),
                ::testing::ExitedWithCode(1), "malformed integer");
}

TEST(Ticks, SecondsRoundTrip)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSec), 1.0);
    EXPECT_EQ(secondsToTicks(1.0), kSec);
    EXPECT_EQ(secondsToTicks(0.001), kMsec);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kHour), 3600.0);
}

TEST(JsonEscape, ShortEscapesAndControlBytes)
{
    EXPECT_EQ(jsonEscape("plain-id_1.2"), "plain-id_1.2");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("\n\r\t"), "\\n\\r\\t");
    EXPECT_EQ(jsonEscape(std::string("\x01\x1f\0", 3)),
              "\\u0001\\u001f\\u0000");
    // DEL and UTF-8 bytes pass through untouched.
    EXPECT_EQ(jsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

} // anonymous namespace
} // namespace dlw
