/**
 * @file
 * Tests for the b-model cascade generator.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hh"
#include "stats/dispersion.hh"
#include "synth/bmodel.hh"

namespace dlw
{
namespace synth
{
namespace
{

TEST(BModel, CountsConserveTotal)
{
    Rng rng(1);
    BModel bm(0.75, 12);
    auto counts = bm.counts(rng, 1'000'000);
    EXPECT_EQ(counts.size(), std::size_t{1} << 12);
    const std::uint64_t sum =
        std::accumulate(counts.begin(), counts.end(),
                        std::uint64_t{0});
    EXPECT_EQ(sum, 1'000'000u);
}

TEST(BModel, UnbiasedCascadeIsSmooth)
{
    Rng rng(2);
    BModel bm(0.5, 10);
    auto counts = bm.counts(rng, 1 << 20);
    // Exactly equal split at b = 0.5 (up to rounding): each bin gets
    // 1024 +- 1.
    for (std::uint64_t c : counts)
        EXPECT_NEAR(static_cast<double>(c), 1024.0, 2.0);
}

TEST(BModel, BiasIncreasesDispersion)
{
    Rng rng(3);
    auto idc_of = [&rng](double bias) {
        BModel bm(bias, 12);
        auto counts = bm.counts(rng, 1 << 22);
        std::vector<double> v(counts.begin(), counts.end());
        return stats::indexOfDispersion(v);
    };
    const double mild = idc_of(0.6);
    const double strong = idc_of(0.85);
    EXPECT_GT(strong, mild * 5.0);
}

TEST(BModel, ArrivalsSortedInsideWindow)
{
    Rng rng(4);
    BModel bm(0.8, 10);
    auto arrivals = bm.arrivals(rng, 100, kSec, 50000);
    EXPECT_EQ(arrivals.size(), 50000u);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        EXPECT_GE(arrivals[i], 100);
        EXPECT_LT(arrivals[i], 100 + kSec);
        if (i > 0) {
            EXPECT_GE(arrivals[i], arrivals[i - 1]);
        }
    }
}

TEST(BModel, ArrivalsExhibitScaleFreeBurstiness)
{
    Rng rng(5);
    BModel bm(0.85, 14);
    auto arrivals = bm.arrivals(rng, 0, 100 * kSec, 500000);

    // Count below the cascade's own bin width (~6 ms) so the IDC
    // has headroom to keep growing through it.
    stats::BinnedSeries counts(0, kMsec);
    for (Tick t : arrivals)
        counts.accumulateAt(t, 1.0);
    counts.extendTo(100 * kSec - 1);
    auto curve = stats::idcAcrossScales(counts, {1, 16, 256, 4096});
    ASSERT_EQ(curve.size(), 4u);
    // IDC must keep growing across three orders of magnitude.
    EXPECT_GT(curve[1].idc, curve[0].idc * 2.0);
    EXPECT_GT(curve[2].idc, curve[1].idc * 2.0);
    EXPECT_GT(curve[3].idc, curve[2].idc * 2.0);
}

TEST(BModel, HurstOfBiasEndpoints)
{
    // b -> 0.5+: variance exponent -> 1 (clipped).
    EXPECT_NEAR(BModel::hurstOfBias(0.5), 1.0, 1e-9);
    // Strong bias lowers the aggregated-variance H toward 0.5.
    EXPECT_GT(BModel::hurstOfBias(0.7), BModel::hurstOfBias(0.9));
    EXPECT_GE(BModel::hurstOfBias(0.99), 0.5);
    // Spot value: b = 0.8 -> (1 - log2(0.68)) / 2 ~ 0.778.
    EXPECT_NEAR(BModel::hurstOfBias(0.8), 0.778, 0.01);
}

TEST(BModel, AccessorsAndBins)
{
    BModel bm(0.7, 8);
    EXPECT_DOUBLE_EQ(bm.bias(), 0.7);
    EXPECT_EQ(bm.levels(), 8u);
    EXPECT_EQ(bm.bins(), 256u);
}

TEST(BModelDeathTest, BadParameters)
{
    EXPECT_DEATH(BModel(0.4, 8), "bias");
    EXPECT_DEATH(BModel(1.0, 8), "bias");
    EXPECT_DEATH(BModel(0.7, 0), "levels");
    BModel bm(0.7, 4);
    Rng rng(6);
    EXPECT_DEATH(bm.arrivals(rng, 0, 0, 10), "window must be positive");
}

} // anonymous namespace
} // namespace synth
} // namespace dlw
