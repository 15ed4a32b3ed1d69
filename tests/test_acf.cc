/**
 * @file
 * Unit tests for stats/acf.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hh"
#include "stats/acf.hh"
#include "stats/simd/simd.hh"
#include "synth/bmodel.hh"

namespace dlw
{
namespace stats
{
namespace
{

TEST(Acf, LagZeroIsOne)
{
    std::vector<double> xs = {1.0, 3.0, 2.0, 5.0, 4.0};
    auto acf = autocorrelation(xs, 2);
    ASSERT_EQ(acf.size(), 3u);
    EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(Acf, IidIsNearZero)
{
    Rng rng(1);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(rng.normal(0.0, 1.0));
    auto acf = autocorrelation(xs, 10);
    for (std::size_t k = 1; k <= 10; ++k)
        EXPECT_NEAR(acf[k], 0.0, 0.02) << "lag " << k;
}

TEST(Acf, Ar1HasGeometricDecay)
{
    // x_t = 0.8 x_{t-1} + e_t has acf(k) ~ 0.8^k.
    Rng rng(2);
    std::vector<double> xs;
    double x = 0.0;
    for (int i = 0; i < 100000; ++i) {
        x = 0.8 * x + rng.normal(0.0, 1.0);
        xs.push_back(x);
    }
    auto acf = autocorrelation(xs, 5);
    EXPECT_NEAR(acf[1], 0.8, 0.03);
    EXPECT_NEAR(acf[2], 0.64, 0.04);
    EXPECT_NEAR(acf[3], 0.512, 0.05);
}

TEST(Acf, AlternatingSeriesIsNegative)
{
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i)
        xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
    auto acf = autocorrelation(xs, 2);
    EXPECT_NEAR(acf[1], -1.0, 0.01);
    EXPECT_NEAR(acf[2], 1.0, 0.01);
}

TEST(Acf, ConstantSeriesIsAllZero)
{
    std::vector<double> xs(100, 5.0);
    auto acf = autocorrelation(xs, 5);
    for (double v : acf)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Acf, MaxLagClamped)
{
    std::vector<double> xs = {1.0, 2.0, 3.0};
    auto acf = autocorrelation(xs, 100);
    EXPECT_EQ(acf.size(), 3u); // lags 0..2
}

/**
 * The per-lag loop autocorrelation() ran before its lag sums moved
 * into a kernel, kept verbatim as the bit-exact oracle.
 */
std::vector<double>
perLagAutocorrelation(const std::vector<double> &xs,
                      std::size_t max_lag)
{
    max_lag = std::min(max_lag, xs.size() - 1);
    const double n = static_cast<double>(xs.size());
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= n;

    double c0 = 0.0;
    for (double x : xs)
        c0 += (x - mean) * (x - mean);
    c0 /= n;

    std::vector<double> out(max_lag + 1, 0.0);
    if (c0 == 0.0)
        return out;

    out[0] = 1.0;
    for (std::size_t k = 1; k <= max_lag; ++k) {
        double ck = 0.0;
        for (std::size_t t = 0; t + k < xs.size(); ++t)
            ck += (xs[t] - mean) * (xs[t + k] - mean);
        ck /= n;
        out[k] = ck / c0;
    }
    return out;
}

TEST(Acf, BitIdenticalToPerLagLoopOnBModelSeries)
{
    // analyze's shape: 720 000 bins of bursty counts, 200 lags.
    Rng rng(11);
    const synth::BModel bm(0.75, 20);
    const std::vector<std::uint64_t> counts = bm.counts(rng, 3'000'000);
    const std::vector<double> xs(counts.begin(),
                                 counts.begin() + 720'000);

    const std::vector<double> want = perLagAutocorrelation(xs, 200);
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
        if (!simd::supported(isa))
            continue;
        simd::force(isa);
        const std::vector<double> got = autocorrelation(xs, 200);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(double)))
            << "isa=" << simd::isaName(isa);
    }
    simd::force(simd::bestSupported());
}

/** Every table's autocorrelation() against the per-lag loop. */
void
expectAcfMatchesPerLagLoop(const std::vector<double> &xs,
                           std::size_t max_lag, const char *what)
{
    const std::vector<double> want = perLagAutocorrelation(xs, max_lag);
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
        if (!simd::supported(isa))
            continue;
        simd::force(isa);
        const std::vector<double> got = autocorrelation(xs, max_lag);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(double)))
            << what << " n=" << xs.size() << " max_lag=" << max_lag
            << " isa=" << simd::isaName(isa);
    }
    simd::force(simd::bestSupported());
}

/** Bursty counts, a constant, and non-integers with -0.0 and subnormals. */
std::vector<std::vector<double>>
chunkSeries(std::size_t n)
{
    Rng rng(n);
    std::vector<double> counts(n), mixed(n);
    for (std::size_t t = 0; t < n; ++t) {
        counts[t] = static_cast<double>(
            rng.uniformInt(0, 4) == 0 ? rng.uniformInt(0, 399)
                                      : rng.uniformInt(0, 5));
        switch (rng.uniformInt(0, 7)) {
          case 0:
            mixed[t] = -0.0;
            break;
          case 1:
            mixed[t] = std::numeric_limits<double>::denorm_min() *
                       static_cast<double>(rng.uniformInt(0, 8));
            break;
          case 2:
            mixed[t] = -std::numeric_limits<double>::min() / 3.0;
            break;
          default:
            mixed[t] = rng.uniform(-2.5, 7.0);
            break;
        }
    }
    return {counts, std::vector<double>(n, 3.0), mixed};
}

TEST(Acf, ChunkBoundariesMatchTheWholeSeriesLoop)
{
    // autocorrelation() centers kAcfChunkBins at a time plus max_lag
    // bins of overlap: lengths on every side of one chunk and of one
    // chunk plus the overlap.
    constexpr std::size_t kChunk = kAcfChunkBins;
    constexpr std::size_t kLag = 200;
    for (std::size_t n :
         {kChunk - 1, kChunk, kChunk + 1, kChunk + kLag - 1,
          kChunk + kLag, kChunk + kLag + 1}) {
        const char *what[] = {"counts", "constant", "mixed"};
        const std::vector<std::vector<double>> series = chunkSeries(n);
        for (std::size_t i = 0; i < series.size(); ++i)
            expectAcfMatchesPerLagLoop(series[i], kLag, what[i]);
    }
}

TEST(Acf, MaxLagBeyondOneChunk)
{
    // The overlap is longer than the chunk it follows.
    const std::size_t n = kAcfChunkBins + 40;
    const char *what[] = {"counts", "constant", "mixed"};
    const std::vector<std::vector<double>> series = chunkSeries(n);
    for (std::size_t i = 0; i < series.size(); ++i)
        expectAcfMatchesPerLagLoop(series[i], kAcfChunkBins + 1,
                                   what[i]);
}

TEST(DecorrelationLag, FindsFirstDrop)
{
    std::vector<double> acf = {1.0, 0.8, 0.5, 0.05, 0.2};
    EXPECT_EQ(decorrelationLag(acf, 0.1), 3u);
}

TEST(DecorrelationLag, NeverDropsReturnsSize)
{
    std::vector<double> acf = {1.0, 0.9, 0.8};
    EXPECT_EQ(decorrelationLag(acf, 0.1), 3u);
}

TEST(AcfDeathTest, TooFewSamples)
{
    std::vector<double> xs = {1.0};
    EXPECT_DEATH(autocorrelation(xs, 1), ">= 2");
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
