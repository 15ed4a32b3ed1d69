/**
 * @file
 * Parameter-recovery and model-selection tests for stats/fit.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "stats/fit.hh"

namespace dlw
{
namespace stats
{
namespace
{

constexpr int kN = 100000;

TEST(Fit, ExponentialRecoversMean)
{
    Rng rng(1);
    std::vector<double> xs;
    for (int i = 0; i < kN; ++i)
        xs.push_back(rng.exponential(3.0));
    auto f = fitDistribution(DistFamily::Exponential, xs);
    ASSERT_EQ(f.params.size(), 1u);
    EXPECT_NEAR(f.params[0], 3.0, 0.05);
    EXPECT_EQ(f.n, static_cast<std::size_t>(kN));
}

TEST(Fit, ParetoRecoversShapeAndScale)
{
    Rng rng(2);
    std::vector<double> xs;
    for (int i = 0; i < kN; ++i)
        xs.push_back(rng.pareto(2.5, 1.5));
    auto f = fitDistribution(DistFamily::Pareto, xs);
    ASSERT_EQ(f.params.size(), 2u);
    EXPECT_NEAR(f.params[0], 2.5, 0.05);  // alpha
    EXPECT_NEAR(f.params[1], 1.5, 0.01);  // xm = min sample
}

TEST(Fit, LognormalRecoversMuSigma)
{
    Rng rng(3);
    std::vector<double> xs;
    for (int i = 0; i < kN; ++i)
        xs.push_back(rng.lognormal(1.2, 0.7));
    auto f = fitDistribution(DistFamily::Lognormal, xs);
    ASSERT_EQ(f.params.size(), 2u);
    EXPECT_NEAR(f.params[0], 1.2, 0.02);
    EXPECT_NEAR(f.params[1], 0.7, 0.02);
}

TEST(Fit, WeibullRecoversShapeScale)
{
    Rng rng(4);
    std::vector<double> xs;
    for (int i = 0; i < kN; ++i)
        xs.push_back(rng.weibull(1.8, 2.0));
    auto f = fitDistribution(DistFamily::Weibull, xs);
    ASSERT_EQ(f.params.size(), 2u);
    EXPECT_NEAR(f.params[0], 1.8, 0.05);
    EXPECT_NEAR(f.params[1], 2.0, 0.05);
}

TEST(Fit, CdfMonotoneAndBounded)
{
    Rng rng(5);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i)
        xs.push_back(rng.lognormal(0.0, 1.0));
    for (auto family : {DistFamily::Exponential, DistFamily::Pareto,
                        DistFamily::Lognormal, DistFamily::Weibull}) {
        auto f = fitDistribution(family, xs);
        double prev = 0.0;
        for (double x = 0.0; x <= 50.0; x += 0.5) {
            const double c = f.cdf(x);
            EXPECT_GE(c, prev - 1e-12) << distFamilyName(family);
            EXPECT_GE(c, 0.0);
            EXPECT_LE(c, 1.0);
            prev = c;
        }
        EXPECT_DOUBLE_EQ(f.cdf(-1.0), 0.0) << distFamilyName(family);
    }
}

/**
 * Model selection: for data drawn from family X, fitAll must rank X
 * above the clearly wrong alternatives.
 */
class FitSelection : public ::testing::TestWithParam<DistFamily>
{
};

TEST_P(FitSelection, TrueFamilyWins)
{
    const DistFamily truth = GetParam();
    Rng rng(42 + static_cast<int>(truth));
    std::vector<double> xs;
    for (int i = 0; i < kN; ++i) {
        switch (truth) {
          case DistFamily::Exponential:
            xs.push_back(rng.exponential(2.0));
            break;
          case DistFamily::Pareto:
            xs.push_back(rng.pareto(1.5, 1.0));
            break;
          case DistFamily::Lognormal:
            xs.push_back(rng.lognormal(0.0, 1.5));
            break;
          case DistFamily::Weibull:
            xs.push_back(rng.weibull(0.6, 1.0));
            break;
        }
    }
    auto fits = fitAll(xs);
    ASSERT_EQ(fits.size(), 4u);
    EXPECT_EQ(fits.front().family, truth)
        << "best was " << distFamilyName(fits.front().family);
    // Ranking must be by ascending AIC.
    for (std::size_t i = 1; i < fits.size(); ++i)
        EXPECT_LE(fits[i - 1].aic(), fits[i].aic());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FitSelection,
    ::testing::Values(DistFamily::Exponential, DistFamily::Pareto,
                      DistFamily::Lognormal, DistFamily::Weibull));

TEST(Fit, FamilyNames)
{
    EXPECT_STREQ(distFamilyName(DistFamily::Exponential), "exponential");
    EXPECT_STREQ(distFamilyName(DistFamily::Weibull), "weibull");
}

TEST(FitDeathTest, RejectsBadData)
{
    std::vector<double> empty;
    EXPECT_DEATH(fitDistribution(DistFamily::Exponential, empty),
                 "empty");
    std::vector<double> nonpos = {1.0, 0.0};
    EXPECT_DEATH(fitDistribution(DistFamily::Lognormal, nonpos),
                 "positive");
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
