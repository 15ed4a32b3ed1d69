/**
 * @file
 * Unit tests for stats/timeseries (BinnedSeries, binsCovering).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "common/rng.hh"
#include "stats/timeseries.hh"

namespace dlw
{
namespace stats
{
namespace
{

TEST(BinnedSeries, AccumulateAtGrows)
{
    BinnedSeries s(0, 10);
    s.accumulateAt(5, 1.0);
    s.accumulateAt(25, 2.0);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.at(0), 1.0);
    EXPECT_DOUBLE_EQ(s.at(1), 0.0);
    EXPECT_DOUBLE_EQ(s.at(2), 2.0);
}

TEST(BinnedSeries, NonZeroStart)
{
    BinnedSeries s(100, 10);
    s.accumulateAt(100, 1.0);
    s.accumulateAt(119, 1.0);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.at(0), 1.0);
    EXPECT_DOUBLE_EQ(s.at(1), 1.0);
    EXPECT_EQ(s.binStart(1), 110);
    EXPECT_EQ(s.binStart(s.size()), 120);
}

TEST(BinnedSeriesDeathTest, BeforeStartRejected)
{
    BinnedSeries s(100, 10);
    EXPECT_DEATH(s.accumulateAt(99, 1.0), "before series start");
}

TEST(BinnedSeries, IntervalSplitProportionally)
{
    BinnedSeries s(0, 10);
    // Interval [5, 25) = 20 ticks: 5 in bin0, 10 in bin1, 5 in bin2.
    s.accumulateInterval(5, 25, 20.0);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.at(0), 5.0);
    EXPECT_DOUBLE_EQ(s.at(1), 10.0);
    EXPECT_DOUBLE_EQ(s.at(2), 5.0);
    EXPECT_DOUBLE_EQ(s.total(), 20.0);
}

TEST(BinnedSeries, IntervalInsideOneBin)
{
    BinnedSeries s(0, 100);
    s.accumulateInterval(10, 20, 1.0);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s.at(0), 1.0);
}

TEST(BinnedSeries, EmptyIntervalIgnored)
{
    BinnedSeries s(0, 10, 1);
    s.accumulateInterval(5, 5, 3.0);
    EXPECT_DOUBLE_EQ(s.total(), 0.0);
}

TEST(BinnedSeries, AggregateSums)
{
    BinnedSeries s(0, 10, 6);
    for (std::size_t i = 0; i < 6; ++i)
        s.at(i) = static_cast<double>(i + 1);
    BinnedSeries a = s.aggregate(2);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a.binWidth(), 20);
    EXPECT_DOUBLE_EQ(a.at(0), 3.0);
    EXPECT_DOUBLE_EQ(a.at(1), 7.0);
    EXPECT_DOUBLE_EQ(a.at(2), 11.0);
    EXPECT_DOUBLE_EQ(a.total(), s.total());
}

TEST(BinnedSeries, AggregateKeepsPartialTail)
{
    BinnedSeries s(0, 10, 5);
    for (std::size_t i = 0; i < 5; ++i)
        s.at(i) = 1.0;
    BinnedSeries a = s.aggregate(2);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_DOUBLE_EQ(a.at(2), 1.0);
    EXPECT_DOUBLE_EQ(a.total(), 5.0);
}

TEST(BinnedSeries, AggregateFactorOneIsIdentity)
{
    BinnedSeries s(7, 3, 4);
    s.at(2) = 9.0;
    BinnedSeries a = s.aggregate(1);
    EXPECT_EQ(a.size(), s.size());
    EXPECT_DOUBLE_EQ(a.at(2), 9.0);
    EXPECT_EQ(a.binWidth(), s.binWidth());
}

TEST(BinnedSeries, PeakAndPeakToMean)
{
    BinnedSeries s(0, 1, 4);
    s.at(0) = 1.0;
    s.at(1) = 1.0;
    s.at(2) = 6.0;
    s.at(3) = 0.0;
    EXPECT_DOUBLE_EQ(s.peak(), 6.0);
    EXPECT_DOUBLE_EQ(s.peakToMean(), 3.0);
}

TEST(BinnedSeries, ExtendToZeroFills)
{
    BinnedSeries s(0, 10);
    s.extendTo(45);
    EXPECT_EQ(s.size(), 5u);
    EXPECT_DOUBLE_EQ(s.total(), 0.0);
}

TEST(BinnedSeriesDeathTest, BadConstruction)
{
    EXPECT_DEATH(BinnedSeries(0, 0), "positive");
}

// ---- binsCovering ----------------------------------------------

constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** One window, one bin width, and the bin count (none: refused). */
struct CoverCase
{
    const char *name;
    Tick start;
    Tick duration;
    Tick width;
    std::optional<std::size_t> bins;
};

class BinsCovering : public ::testing::TestWithParam<CoverCase>
{
};

TEST_P(BinsCovering, CountsOrRefuses)
{
    const CoverCase &c = GetParam();
    const StatusOr<std::size_t> got =
        binsCovering(c.start, c.duration, c.width);
    if (c.bins) {
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(got.value(), *c.bins);
    } else {
        ASSERT_FALSE(got.ok()) << "bins " << got.value();
        EXPECT_EQ(got.status().code(), StatusCode::kCorruptData);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, BinsCovering,
    ::testing::Values(
        CoverCase{"ExactMultiple", 0, 100, 10, 10},
        CoverCase{"PartialLastBin", 0, 101, 10, 11},
        CoverCase{"EmptyWindow", 0, 0, 10, 0},
        CoverCase{"NarrowerThanABin", 0, 3, 10, 1},
        CoverCase{"NonZeroStart", 1000, 95, 10, 10},
        CoverCase{"NegativeStart", -500, 100, 10, 10},
        CoverCase{"EndsAtLargestTick", kMaxTick - 100, 100, 10, 10},
        CoverCase{"OneTickBinsToLargestTick", 0, kMaxTick, 1,
                  static_cast<std::size_t>(kMaxTick)},
        CoverCase{"OneBinAsWideAsTheRange", 0, 1, kMaxTick, 1},
        CoverCase{"LastBinEndsPastLargestTick", kMaxTick - 95, 95, 10,
                  std::nullopt},
        CoverCase{"BinTimesCountOverflows", 0, kMaxTick, 1000000,
                  std::nullopt},
        CoverCase{"StartPlusSpanOverflows", 1, kMaxTick, 1,
                  std::nullopt},
        CoverCase{"WideBinPastLargestTick", 1, 1, kMaxTick,
                  std::nullopt},
        CoverCase{"NegativeDuration", 0, -1, 10, std::nullopt}),
    [](const ::testing::TestParamInfo<CoverCase> &p) {
        return std::string(p.param.name);
    });

TEST(BinsCoveringProperty, CeilingOfInRangeWindows)
{
    // Away from the Tick limits the count is the plain ceiling: the
    // bins reach past the window's end by less than one bin.
    Rng rng(31);
    for (int i = 0; i < 10000; ++i) {
        const Tick start = static_cast<Tick>(rng.uniform() * 1e15) -
                           static_cast<Tick>(5e14);
        const Tick duration = static_cast<Tick>(rng.uniform() * 1e15);
        const Tick width = 1 + static_cast<Tick>(rng.uniform() * 1e9);
        const StatusOr<std::size_t> got =
            binsCovering(start, duration, width);
        ASSERT_TRUE(got.ok()) << got.status().message();
        const Tick bins = static_cast<Tick>(got.value());
        EXPECT_EQ(bins, (duration + width - 1) / width);
        EXPECT_GE(bins * width, duration);
        EXPECT_LT(bins * width, duration + width);
    }
}

TEST(BinsCoveringDeathTest, RejectsNonPositiveWidth)
{
    EXPECT_DEATH(binsCovering(0, 10, 0), "positive");
    EXPECT_DEATH(binsCovering(0, 10, -1), "positive");
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
