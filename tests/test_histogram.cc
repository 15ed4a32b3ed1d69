/**
 * @file
 * Unit tests for stats/histogram.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "stats/histogram.hh"

namespace dlw
{
namespace stats
{
namespace
{

TEST(LogHistogram, DecadeLayout)
{
    LogHistogram h(1.0, 1000.0, 1);
    EXPECT_EQ(h.binCount(), 3u);
    EXPECT_NEAR(h.binLower(0), 1.0, 1e-9);
    EXPECT_NEAR(h.binUpper(0), 10.0, 1e-9);
    EXPECT_NEAR(h.binLower(2), 100.0, 1e-6);
}

TEST(LogHistogram, BinsSamplesByMagnitude)
{
    LogHistogram h(1.0, 1e6, 2);
    h.add(2.0);
    h.add(3.0);
    h.add(20000.0);
    EXPECT_DOUBLE_EQ(h.total(), 3.0);
    EXPECT_DOUBLE_EQ(h.underflow(), 0.0);
    // The two small samples share a bin; the large one is far away.
    double small_bin = 0.0, big_bin = 0.0;
    for (std::size_t i = 0; i < h.binCount(); ++i) {
        if (h.binLower(i) <= 2.0 && 2.0 < h.binUpper(i))
            small_bin = h.binWeight(i);
        if (h.binLower(i) <= 20000.0 && 20000.0 < h.binUpper(i))
            big_bin = h.binWeight(i);
    }
    EXPECT_DOUBLE_EQ(small_bin, 2.0);
    EXPECT_DOUBLE_EQ(big_bin, 1.0);
}

TEST(LogHistogram, NonPositiveGoesToUnderflow)
{
    LogHistogram h(1.0, 100.0, 2);
    h.add(0.0);
    h.add(-5.0);
    h.add(0.5);
    EXPECT_DOUBLE_EQ(h.underflow(), 3.0);
}

TEST(LogHistogram, QuantileOnLognormalData)
{
    LogHistogram h(1e-3, 1e3, 16);
    Rng rng(6);
    std::vector<double> xs;
    for (int i = 0; i < 200000; ++i) {
        double v = rng.lognormal(0.0, 1.0);
        h.add(v);
        xs.push_back(v);
    }
    std::sort(xs.begin(), xs.end());
    const double exact_med = xs[xs.size() / 2];
    EXPECT_NEAR(h.quantile(0.5) / exact_med, 1.0, 0.1);
    const double exact_p99 = xs[static_cast<std::size_t>(
        0.99 * static_cast<double>(xs.size()))];
    EXPECT_NEAR(h.quantile(0.99) / exact_p99, 1.0, 0.15);
}

TEST(LogHistogram, Merge)
{
    LogHistogram a(1.0, 100.0, 2), b(1.0, 100.0, 2);
    a.add(5.0);
    b.add(50.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.total(), 2.0);
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
