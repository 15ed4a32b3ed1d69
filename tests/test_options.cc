/**
 * @file
 * Unit tests for the common/options CLI parser.
 */

#include <gtest/gtest.h>

#include "common/options.hh"

namespace dlw
{
namespace
{

Options
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return Options(static_cast<int>(args.size()),
                   const_cast<char *const *>(args.data()), 1);
}

TEST(Options, ParsesKeyValuePairs)
{
    Options o = parse({"--rate", "50", "--out", "x.bin"});
    EXPECT_TRUE(o.has("rate"));
    EXPECT_EQ(o.get("out", ""), "x.bin");
    EXPECT_DOUBLE_EQ(o.getDouble("rate", 0.0), 50.0);
}

TEST(Options, FallbacksApply)
{
    Options o = parse({});
    EXPECT_FALSE(o.has("missing"));
    EXPECT_EQ(o.get("missing", "dflt"), "dflt");
    EXPECT_DOUBLE_EQ(o.getDouble("missing", 2.5), 2.5);
    EXPECT_EQ(o.getInt("missing", -7), -7);
}

TEST(Options, IntAndDoubleParsing)
{
    Options o = parse({"--n", "42", "--x", "1e3"});
    EXPECT_EQ(o.getInt("n", 0), 42);
    EXPECT_DOUBLE_EQ(o.getDouble("x", 0.0), 1000.0);
}

TEST(Options, LastValueWins)
{
    Options o = parse({"--k", "a", "--k", "b"});
    EXPECT_EQ(o.get("k", ""), "b");
}

TEST(OptionsDeathTest, MalformedInput)
{
    EXPECT_EXIT(parse({"notanoption"}), ::testing::ExitedWithCode(1),
                "expected --option");
    EXPECT_EXIT(parse({"--dangling"}), ::testing::ExitedWithCode(1),
                "needs a value");
    Options o = parse({"--n", "abc"});
    EXPECT_EXIT(o.getInt("n", 0), ::testing::ExitedWithCode(1),
                "malformed integer");
}

} // anonymous namespace
} // namespace dlw
