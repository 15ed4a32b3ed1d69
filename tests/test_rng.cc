/**
 * @file
 * Unit and statistical tests for common/rng.
 *
 * Statistical checks use generous tolerances at large sample sizes
 * so they are deterministic for a fixed seed yet still meaningful.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.hh"

namespace dlw
{
namespace
{

constexpr int kN = 200000;

double
sampleMean(Rng &rng, double (Rng::*draw)())
{
    double s = 0.0;
    for (int i = 0; i < kN; ++i)
        s += (rng.*draw)();
    return s / kN;
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(7);
    Rng c1 = parent.fork();
    Rng c2 = parent.fork();
    // Children differ from each other.
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (c1.uniform() == c2.uniform())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkReproducible)
{
    Rng p1(7), p2(7);
    Rng c1 = p1.fork();
    Rng c2 = p2.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
}

TEST(Rng, UniformRange)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    double m = sampleMean(rng, &Rng::uniform);
    EXPECT_NEAR(m, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng rng(12);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(13);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    int hits = 0;
    for (int i = 0; i < kN; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(14);
    double s = 0.0;
    for (int i = 0; i < kN; ++i)
        s += rng.exponential(5.0);
    EXPECT_NEAR(s / kN, 5.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng rng(15);
    double s = 0.0, s2 = 0.0;
    for (int i = 0; i < kN; ++i) {
        double v = rng.normal(2.0, 3.0);
        s += v;
        s2 += v * v;
    }
    const double mean = s / kN;
    const double var = s2 / kN - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ParetoTailAndSupport)
{
    Rng rng(16);
    double s = 0.0;
    for (int i = 0; i < kN; ++i) {
        double v = rng.pareto(3.0, 2.0);
        ASSERT_GE(v, 2.0);
        s += v;
    }
    // Mean of Pareto(3, 2) = 3*2/2 = 3.
    EXPECT_NEAR(s / kN, 3.0, 0.1);
}

TEST(Rng, BoundedParetoStaysInRange)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.boundedPareto(1.2, 1.0, 100.0);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 100.0);
    }
}

TEST(Rng, WeibullMean)
{
    Rng rng(18);
    double s = 0.0;
    for (int i = 0; i < kN; ++i)
        s += rng.weibull(2.0, 1.0);
    // Mean = Gamma(1.5) ~ 0.8862.
    EXPECT_NEAR(s / kN, 0.8862, 0.01);
}

TEST(Rng, PoissonMean)
{
    Rng rng(19);
    double s = 0.0;
    for (int i = 0; i < kN; ++i)
        s += static_cast<double>(rng.poisson(4.2));
    EXPECT_NEAR(s / kN, 4.2, 0.05);
    EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, ZipfSkewOrdersRanks)
{
    Rng rng(20);
    std::map<std::int64_t, int> counts;
    for (int i = 0; i < kN; ++i)
        ++counts[rng.zipf(100, 1.0)];
    // Rank 0 must be the most popular; all ranks inside range.
    for (const auto &[k, c] : counts) {
        EXPECT_GE(k, 0);
        EXPECT_LT(k, 100);
    }
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[90]);
    // Zipf(1): P(0)/P(9) ~ 10.
    EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0, 3.0);
}

TEST(Rng, ZipfZeroSkewIsUniform)
{
    Rng rng(21);
    std::map<std::int64_t, int> counts;
    for (int i = 0; i < kN; ++i)
        ++counts[rng.zipf(10, 0.0)];
    for (int k = 0; k < 10; ++k)
        EXPECT_NEAR(static_cast<double>(counts[k]) / kN, 0.1, 0.01);
}

TEST(Rng, ZipfSingleton)
{
    Rng rng(22);
    EXPECT_EQ(rng.zipf(1, 2.0), 0);
}

/**
 * The per-draw rejection-inversion loop Rng::zipf ran before the
 * envelope moved into ZipfSampler: every constant recomputed on
 * every draw.  The oracle the sampler must match draw for draw.
 */
std::int64_t
zipfPerDraw(Rng &rng, std::int64_t n, double s)
{
    if (n == 1)
        return 0;
    if (s <= 0.0)
        return rng.uniformInt(0, n - 1);
    auto h = [s](double x) { return std::pow(x, -s); };
    auto bigH = [s](double x) {
        if (s == 1.0)
            return std::log(x);
        return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
    };
    auto bigHinv = [s](double y) {
        if (s == 1.0)
            return std::exp(y);
        return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
    };
    const double nd = static_cast<double>(n);
    const double h_x1 = bigH(1.5) - h(1.0);
    const double big_h_n = bigH(nd + 0.5);
    for (;;) {
        double u = h_x1 + rng.uniform() * (big_h_n - h_x1);
        double x = bigHinv(u);
        std::int64_t k = static_cast<std::int64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n)
            k = n;
        double kd = static_cast<double>(k);
        if (kd - x <= 0.5 || u >= bigH(kd + 0.5) - h(kd))
            return k - 1;
    }
}

TEST(ZipfSampler, DrawsMatchRngZipfAndThePerDrawLoop)
{
    for (const double s : {0.0, 0.8, 0.9, 1.0, 1.5}) {
        for (const std::int64_t n : {1, 2, 512, 1024}) {
            const ZipfSampler sampler(n, s);
            Rng a(31), b(31), c(31);
            for (int i = 0; i < 20000; ++i) {
                const std::int64_t k = sampler(a);
                ASSERT_EQ(k, b.zipf(n, s))
                    << "s=" << s << " n=" << n << " draw " << i;
                ASSERT_EQ(k, zipfPerDraw(c, n, s))
                    << "s=" << s << " n=" << n << " draw " << i;
            }
            // Equal consumption: the streams are still in step.
            const double next = a.uniform();
            EXPECT_EQ(next, b.uniform());
            EXPECT_EQ(next, c.uniform());
        }
    }
}

TEST(Rng, DiscreteFollowsWeights)
{
    Rng rng(23);
    std::vector<double> w = {1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < kN; ++i)
        ++counts[rng.discrete(w)];
    EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.1, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[1]) / kN, 0.3, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.6, 0.01);
}

TEST(Rng, DiscreteZeroWeightNeverChosen)
{
    Rng rng(24);
    std::vector<double> w = {0.0, 1.0};
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(rng.discrete(w), 1u);
}

TEST(RngDeathTest, InvalidParameters)
{
    Rng rng(25);
    EXPECT_DEATH(rng.exponential(0.0), "positive");
    EXPECT_DEATH(rng.pareto(-1.0, 1.0), "invalid");
    EXPECT_DEATH(rng.uniform(2.0, 1.0), "inverted");
    EXPECT_DEATH(rng.discrete({}), "at least one");
    EXPECT_DEATH(rng.discrete({0.0, 0.0}), "sum to zero");
}

} // anonymous namespace
} // namespace dlw
