/**
 * @file
 * Unit tests for stats/kstest.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "stats/fit.hh"
#include "stats/kstest.hh"

namespace dlw
{
namespace stats
{
namespace
{

TEST(Kolmogorov, SurvivalEndpoints)
{
    EXPECT_DOUBLE_EQ(kolmogorovSurvival(0.0), 1.0);
    EXPECT_NEAR(kolmogorovSurvival(10.0), 0.0, 1e-12);
    // Known value: Q(1.36) ~ 0.05 (the classic 5% critical point).
    EXPECT_NEAR(kolmogorovSurvival(1.36), 0.05, 0.003);
}

TEST(KsOneSample, AcceptsOwnDistribution)
{
    Rng rng(1);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i)
        xs.push_back(rng.exponential(2.0));
    auto r = ksOneSample(xs, [](double x) {
        return x <= 0.0 ? 0.0 : 1.0 - std::exp(-x / 2.0);
    });
    EXPECT_LT(r.statistic, 0.03);
    EXPECT_GT(r.p_value, 0.01);
}

TEST(KsOneSample, RejectsWrongDistribution)
{
    Rng rng(2);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i)
        xs.push_back(rng.lognormal(0.0, 1.5));
    // Exponential with matched mean is still very wrong.
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());
    auto r = ksOneSample(xs, [mean](double x) {
        return x <= 0.0 ? 0.0 : 1.0 - std::exp(-x / mean);
    });
    EXPECT_GT(r.statistic, 0.1);
    EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsOneSample, WorksWithFittedDist)
{
    Rng rng(3);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i)
        xs.push_back(rng.weibull(1.5, 3.0));
    auto f = fitDistribution(DistFamily::Weibull, xs);
    auto r = ksOneSample(xs, [&f](double x) { return f.cdf(x); });
    EXPECT_LT(r.statistic, 0.03);
}

TEST(KsDeathTest, EmptyInput)
{
    std::vector<double> empty;
    EXPECT_DEATH(ksOneSample(empty, [](double) { return 0.5; }),
                 "needs data");
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
