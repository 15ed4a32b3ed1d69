/**
 * @file
 * Unit tests for stats/dispersion (index of dispersion for counts).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/types.hh"
#include "stats/dispersion.hh"

namespace dlw
{
namespace stats
{
namespace
{

TEST(Idc, PoissonCountsNearOne)
{
    Rng rng(1);
    std::vector<double> counts;
    for (int i = 0; i < 20000; ++i)
        counts.push_back(static_cast<double>(rng.poisson(5.0)));
    EXPECT_NEAR(indexOfDispersion(counts), 1.0, 0.05);
}

TEST(Idc, BatchedArrivalsOverdispersed)
{
    // Bins are either 0 or a batch of 20: heavily overdispersed.
    Rng rng(2);
    std::vector<double> counts;
    for (int i = 0; i < 20000; ++i)
        counts.push_back(rng.bernoulli(0.1) ? 20.0 : 0.0);
    EXPECT_GT(indexOfDispersion(counts), 10.0);
}

TEST(Idc, ConstantCountsAreUnderdispersed)
{
    std::vector<double> counts(1000, 7.0);
    EXPECT_DOUBLE_EQ(indexOfDispersion(counts), 0.0);
}

TEST(Idc, EmptyAndZeroMean)
{
    EXPECT_DOUBLE_EQ(indexOfDispersion({}), 0.0);
    std::vector<double> zeros(10, 0.0);
    EXPECT_DOUBLE_EQ(indexOfDispersion(zeros), 0.0);
}

TEST(IdcAcrossScales, PoissonFlat)
{
    Rng rng(3);
    BinnedSeries base(0, kMsec, 1 << 16);
    for (std::size_t i = 0; i < base.size(); ++i)
        base.at(i) = static_cast<double>(rng.poisson(2.0));

    auto curve = idcAcrossScales(base, {1, 4, 16, 64, 256});
    ASSERT_EQ(curve.size(), 5u);
    for (const IdcPoint &p : curve)
        EXPECT_NEAR(p.idc, 1.0, 0.25) << "window " << p.window;
}

TEST(IdcAcrossScales, CorrelatedTrafficGrows)
{
    // ON/OFF block structure: long runs of busy bins followed by
    // long runs of idle bins; IDC must grow with the window.
    Rng rng(4);
    BinnedSeries base(0, kMsec, 1 << 16);
    bool on = false;
    std::size_t left = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (left == 0) {
            on = !on;
            left = static_cast<std::size_t>(
                rng.uniformInt(100, 1000));
        }
        --left;
        base.at(i) = on ? static_cast<double>(rng.poisson(4.0)) : 0.0;
    }
    auto curve = idcAcrossScales(base, {1, 16, 256});
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_GT(curve[1].idc, curve[0].idc * 2.0);
    EXPECT_GT(curve[2].idc, curve[1].idc * 2.0);
}

TEST(IdcAcrossScales, SkipsTooCoarseScales)
{
    BinnedSeries base(0, kMsec, 64);
    for (std::size_t i = 0; i < 64; ++i)
        base.at(i) = 1.0;
    // Factor 32 leaves only 2 windows < min_windows=8: skipped.
    auto curve = idcAcrossScales(base, {1, 2, 32});
    ASSERT_EQ(curve.size(), 2u);
    EXPECT_EQ(curve[0].window, kMsec);
    EXPECT_EQ(curve[1].window, 2 * kMsec);
}

TEST(IdcAcrossScales, PartialTrailingWindowDropped)
{
    // 100 identical bins aggregated by 33: the 1-bin remainder would
    // fake massive dispersion if it were kept.
    BinnedSeries base(0, kMsec, 100);
    for (std::size_t i = 0; i < 100; ++i)
        base.at(i) = 5.0;
    auto curve = idcAcrossScales(base, {33}, 3);
    ASSERT_EQ(curve.size(), 1u);
    EXPECT_EQ(curve[0].windows, 3u); // 3 full windows, tail dropped
    EXPECT_DOUBLE_EQ(curve[0].idc, 0.0); // constant -> no dispersion
}

TEST(IdcAcrossScales, WindowWidthsReported)
{
    BinnedSeries base(0, 10 * kMsec, 1024);
    auto curve = idcAcrossScales(base, {1, 4});
    ASSERT_EQ(curve.size(), 2u);
    EXPECT_EQ(curve[0].window, 10 * kMsec);
    EXPECT_EQ(curve[1].window, 40 * kMsec);
    EXPECT_EQ(curve[0].windows, 1024u);
    EXPECT_EQ(curve[1].windows, 256u);
}

TEST(IdcAcrossScales, MatchesAggregateReference)
{
    // The curve reads the series in place; it must equal, bit for
    // bit, the IDC of each aggregate() with its partial tail dropped.
    Rng rng(5);
    BinnedSeries base(0, 10 * kMsec, 1000);
    for (std::size_t i = 0; i < base.size(); ++i)
        base.at(i) = static_cast<double>(rng.poisson(3.0)) * 0.1;
    // 1: in place; 7 and 333: a trailing partial window; 125 and
    // 200: whole windows only; 126 (7 windows) and 1001 (none) fall
    // under min_windows.
    const std::vector<std::size_t> factors = {1, 7, 125, 126, 200,
                                              333, 1001};
    for (std::size_t min_windows : {0, 3, 8}) {
        std::vector<IdcPoint> ref;
        for (std::size_t f : factors) {
            const BinnedSeries agg = base.aggregate(f);
            std::vector<double> v = agg.values();
            if (base.size() % f != 0 && !v.empty())
                v.pop_back();
            if (v.size() < min_windows)
                continue;
            ref.push_back({agg.binWidth(), indexOfDispersion(v),
                           v.size()});
        }
        const std::vector<IdcPoint> got =
            idcAcrossScales(base, factors, min_windows);
        ASSERT_EQ(got.size(), ref.size()) << "min_windows " << min_windows;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(got[i].window, ref[i].window);
            EXPECT_EQ(got[i].windows, ref[i].windows);
            // Bit identity, not closeness.
            EXPECT_EQ(got[i].idc, ref[i].idc)
                << "window " << ref[i].window;
        }
    }
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
