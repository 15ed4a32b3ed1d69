/**
 * @file
 * Property tests for LogHistogram::quantile(), the estimator behind
 * the registry's p50/p95/p99 and the fleet's response and idle
 * percentiles: a sweep of quantiles x distributions against the exact
 * order statistic, plus its edge cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "stats/ecdf.hh"
#include "stats/histogram.hh"

namespace dlw
{
namespace stats
{
namespace
{

enum class Dist
{
    Uniform,
    Exponential,
    Lognormal,
    Pareto,
};

double
draw(Dist d, Rng &rng)
{
    switch (d) {
      case Dist::Uniform:
        return rng.uniform();
      case Dist::Exponential:
        return rng.exponential(1.0);
      case Dist::Lognormal:
        return rng.lognormal(0.0, 1.0);
      case Dist::Pareto:
        return rng.pareto(1.5, 1.0);
    }
    return 0.0;
}

const char *
distName(Dist d)
{
    switch (d) {
      case Dist::Uniform:
        return "Uniform";
      case Dist::Exponential:
        return "Exponential";
      case Dist::Lognormal:
        return "Lognormal";
      case Dist::Pareto:
        return "Pareto";
    }
    return "?";
}

/** The fleet's histogram resolution: 8 bins per decade. */
constexpr std::size_t kBinsPerDecade = 8;

class LogQuantileSweep
    : public ::testing::TestWithParam<std::tuple<double, Dist>>
{
};

TEST_P(LogQuantileSweep, TracksExactQuantile)
{
    const auto [q, dist] = GetParam();
    Rng rng(77);
    LogHistogram h(1e-6, 1e6, kBinsPerDecade);
    Ecdf exact;
    constexpr int kSamples = 100000;
    for (int i = 0; i < kSamples; ++i) {
        const double v = draw(dist, rng);
        h.add(v);
        exact.add(v);
    }
    ASSERT_DOUBLE_EQ(h.underflow(), 0.0);
    ASSERT_DOUBLE_EQ(h.overflow(), 0.0);

    // The histogram answers with the sample at rank ceil(q * n),
    // placed inside its bin by log-linear interpolation: never more
    // than one bin width (a factor 10^(1/8)) from that sample.
    const std::vector<double> xs = exact.sorted();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(kSamples)));
    const double truth = xs[rank - 1];
    const double est = h.quantile(q);
    const double bin = std::pow(10.0, 1.0 / kBinsPerDecade);
    EXPECT_LE(est, truth * bin) << "q=" << q << " " << distName(dist);
    EXPECT_GE(est, truth / bin) << "q=" << q << " " << distName(dist);
    // Over 1e5 samples of a smooth density the interpolation is far
    // better than that bound: within a quarter bin of the ECDF (the
    // worst case of this sweep, exponential p99, is a ninth).
    EXPECT_LE(std::abs(std::log(est / exact.quantile(q))),
              0.25 * std::log(bin))
        << "q=" << q << " " << distName(dist);
}

INSTANTIATE_TEST_SUITE_P(
    QuantilesAndDistributions, LogQuantileSweep,
    ::testing::Combine(
        ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
        ::testing::Values(Dist::Uniform, Dist::Exponential,
                          Dist::Lognormal, Dist::Pareto)),
    [](const ::testing::TestParamInfo<LogQuantileSweep::ParamType> &p) {
        const int pct = static_cast<int>(
            std::lround(std::get<0>(p.param) * 100.0));
        return std::string(distName(std::get<1>(p.param))) + "_p" +
               std::to_string(pct);
    });

TEST(LogHistogramQuantile, EmptyAnswersLowerBound)
{
    LogHistogram h(1e-3, 1e3, 8);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-3);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 1e-3);
}

TEST(LogHistogramQuantile, UnderflowMassAnswersLowerBound)
{
    LogHistogram h(1.0, 1000.0, 4);
    h.add(0.5);
    h.add(0.0);
    h.add(-2.0);
    h.add(100.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.75), 1.0);
    EXPECT_GE(h.quantile(1.0), 100.0 / std::pow(10.0, 0.25));
}

TEST(LogHistogramQuantile, OverflowMassAnswersUpperBound)
{
    LogHistogram h(1.0, 1000.0, 4);
    h.add(10.0);
    h.add(5000.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
    EXPECT_LT(h.quantile(0.5), 1000.0);
}

TEST(LogHistogramQuantile, MonotoneInQ)
{
    LogHistogram h(1e-6, 1e4, 8);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        h.add(rng.lognormal(-2.0, 2.0));
    double prev = h.quantile(0.0);
    for (int i = 1; i <= 100; ++i) {
        const double v = h.quantile(i / 100.0);
        EXPECT_GE(v, prev) << "q=" << i / 100.0;
        prev = v;
    }
}

TEST(LogHistogramQuantile, MergedHalvesAnswerLikeTheWhole)
{
    // The registry merges per-thread stripes and the fleet merges
    // per-drive histograms before asking for percentiles.
    LogHistogram whole(1e-3, 1e5, 8);
    LogHistogram a(1e-3, 1e5, 8);
    LogHistogram b(1e-3, 1e5, 8);
    Rng rng(21);
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.exponential(0.05);
        whole.add(v);
        (i % 3 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.total(), whole.total());
    for (double q : {0.5, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q)) << q;
}

TEST(LogHistogramQuantileDeathTest, RejectsOutOfRangeQ)
{
    LogHistogram h(1.0, 10.0, 2);
    h.add(2.0);
    EXPECT_DEATH(h.quantile(-0.1), "quantile out of range");
    EXPECT_DEATH(h.quantile(1.1), "quantile out of range");
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
