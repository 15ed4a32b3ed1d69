/**
 * @file
 * Unit tests for stats/summary: streaming moments and merging.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace stats
{
namespace
{

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Summary, KnownSmallSample)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.4);
}

TEST(Summary, SampleVarianceUsesNMinusOne)
{
    Summary s;
    s.add(1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 1.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 2.0);
}

TEST(Summary, SingleValueDegenerate)
{
    Summary s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 0.0);
}

TEST(Summary, NormalSampleMoments)
{
    Rng rng(1);
    Summary s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Summary, ExponentialCvNearOne)
{
    Rng rng(2);
    Summary s;
    for (int i = 0; i < 400000; ++i)
        s.add(rng.exponential(1.0));
    EXPECT_NEAR(s.cv(), 1.0, 0.02);
}

TEST(Summary, MergeMatchesSequential)
{
    Rng rng(3);
    Summary all, a, b;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.lognormal(0.0, 1.0);
        all.add(v);
        (i % 3 == 0 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-7);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty)
{
    Summary a, b;
    a.add(1.0);
    a.add(2.0);
    Summary before = a;
    a.merge(b); // no-op
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), before.mean());

    b.merge(a); // adopt
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Summary, ClearResets)
{
    Summary s;
    s.add(5.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Summary, CvOfConstantIsZero)
{
    Summary s;
    for (int i = 0; i < 10; ++i)
        s.add(7.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
