/**
 * @file
 * Unit tests for synth/sizes.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "synth/sizes.hh"

namespace dlw
{
namespace synth
{
namespace
{

TEST(FixedSize, AlwaysSame)
{
    FixedSize s(64);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(s.nextBlocks(rng), 64u);
    EXPECT_DOUBLE_EQ(s.meanBlocks(), 64.0);
}

TEST(LognormalSize, MedianAndCap)
{
    LognormalSize s(16, 1.0, 256);
    Rng rng(4);
    std::vector<BlockCount> xs;
    for (int i = 0; i < 100000; ++i) {
        BlockCount b = s.nextBlocks(rng);
        ASSERT_GE(b, 1u);
        ASSERT_LE(b, 256u);
        xs.push_back(b);
    }
    std::sort(xs.begin(), xs.end());
    EXPECT_NEAR(static_cast<double>(xs[xs.size() / 2]), 16.0, 1.0);
}

TEST(LognormalSize, MeanReflectsSigma)
{
    LognormalSize narrow(16, 0.1, 100000);
    LognormalSize wide(16, 1.5, 100000);
    EXPECT_GT(wide.meanBlocks(), narrow.meanBlocks());
}

TEST(SizesDeathTest, InvalidParameters)
{
    EXPECT_DEATH(FixedSize(0), ">= 1");
    EXPECT_DEATH(LognormalSize(16, 0.0, 100), "positive");
    EXPECT_DEATH(LognormalSize(16, 1.0, 8), "cap below median");
}

} // anonymous namespace
} // namespace synth
} // namespace dlw
