/**
 * @file
 * Tests for core/report table rendering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/report.hh"

namespace dlw
{
namespace core
{
namespace
{

TEST(Table, RendersAlignedColumns)
{
    Table t("demo", {"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    // Each data line has the same length (alignment).
    std::istringstream is(s);
    std::string line;
    std::getline(is, line); // title
    std::getline(is, line); // header
    const std::size_t header_len = line.size();
    std::getline(is, line); // rule
    EXPECT_EQ(line.size(), header_len);
    while (std::getline(is, line))
        EXPECT_EQ(line.size(), header_len);
}

TEST(Table, RowCount)
{
    Table t("demo", {"a"});
    EXPECT_EQ(t.rows(), 0u);
    t.addRow({"x"});
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TableDeathTest, RowWidthMismatch)
{
    Table t("demo", {"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "does not match");
}

TEST(TableDeathTest, NoColumns)
{
    EXPECT_DEATH(Table("demo", {}), "at least one column");
}

TEST(Series, PrintsMarkerAndRows)
{
    std::ostringstream os;
    printSeries(os, "E4-idle", "oltp", {{1.0, 0.5}, {2.0, 0.75}});
    const std::string s = os.str();
    EXPECT_NE(s.find("## figure: E4-idle / oltp"), std::string::npos);
    EXPECT_NE(s.find("oltp,1.000000,0.500000"), std::string::npos);
    EXPECT_NE(s.find("oltp,2.000000,0.750000"), std::string::npos);
}

TEST(Cell, NumberFormats)
{
    EXPECT_EQ(cell(1.5), "1.500");
    EXPECT_EQ(cell(123.456), "123.5");
    EXPECT_EQ(cell(0.0001), "1.000e-04");
    EXPECT_EQ(cell(0.0), "0.000");
    EXPECT_EQ(cell(std::uint64_t{42}), "42");
}

} // anonymous namespace
} // namespace core
} // namespace dlw
