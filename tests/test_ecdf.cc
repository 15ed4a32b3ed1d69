/**
 * @file
 * Unit tests for stats/ecdf.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "stats/ecdf.hh"

namespace dlw
{
namespace stats
{
namespace
{

TEST(Ecdf, QuantilesOfSmallSample)
{
    Ecdf e;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        e.add(v);
    EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(e.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(e.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(e.quantile(0.25), 2.0);
    // Interpolation between order statistics.
    EXPECT_DOUBLE_EQ(e.quantile(0.125), 1.5);
}

TEST(Ecdf, SingleSample)
{
    Ecdf e;
    e.add(7.0);
    EXPECT_DOUBLE_EQ(e.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(e.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(e.quantile(1.0), 7.0);
}

TEST(Ecdf, CurveIsMonotone)
{
    Ecdf e;
    Rng rng(1);
    for (int i = 0; i < 1000; ++i)
        e.add(rng.normal(0.0, 1.0));
    auto curve = e.curve(21);
    ASSERT_EQ(curve.size(), 21u);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_LE(curve[i - 1].first, curve[i].first);
        EXPECT_LT(curve[i - 1].second, curve[i].second);
    }
    EXPECT_DOUBLE_EQ(curve.front().second, 0.0);
    EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Ecdf, InterleavedAddAndQuery)
{
    // Queries must not corrupt later inserts (lazy sort).
    Ecdf e;
    e.add(5.0);
    EXPECT_DOUBLE_EQ(e.median(), 5.0);
    e.add(1.0);
    EXPECT_DOUBLE_EQ(e.median(), 3.0);
    e.add(9.0);
    EXPECT_DOUBLE_EQ(e.median(), 5.0);
    EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
}

TEST(EcdfDeathTest, EmptyQuantile)
{
    Ecdf e;
    EXPECT_DEATH(e.quantile(0.5), "empty");
}

TEST(EcdfDeathTest, QuantileRange)
{
    Ecdf e;
    e.add(1.0);
    EXPECT_DEATH(e.quantile(1.5), "out of range");
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
