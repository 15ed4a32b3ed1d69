#include "synth/sizes.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dlw
{
namespace synth
{

FixedSize::FixedSize(BlockCount blocks)
    : blocks_(blocks)
{
    dlw_assert(blocks >= 1, "request size must be >= 1 block");
}

BlockCount
FixedSize::nextBlocks(Rng &)
{
    return blocks_;
}

double
FixedSize::meanBlocks() const
{
    return static_cast<double>(blocks_);
}

LognormalSize::LognormalSize(BlockCount median_blocks, double sigma,
                             BlockCount max_blocks)
    : sigma_(sigma), max_blocks_(max_blocks)
{
    dlw_assert(median_blocks >= 1, "median size must be >= 1 block");
    dlw_assert(sigma > 0.0, "sigma must be positive");
    dlw_assert(max_blocks >= median_blocks, "cap below median");
    mu_ = std::log(static_cast<double>(median_blocks));
}

BlockCount
LognormalSize::nextBlocks(Rng &rng)
{
    const double v = rng.lognormal(mu_, sigma_);
    auto blocks = static_cast<BlockCount>(std::max(1.0, v + 0.5));
    return std::min(blocks, max_blocks_);
}

double
LognormalSize::meanBlocks() const
{
    // Mean of the unclipped lognormal; the cap makes the true mean
    // slightly smaller, which is acceptable for rate planning.
    return std::min(std::exp(mu_ + sigma_ * sigma_ / 2.0),
                    static_cast<double>(max_blocks_));
}

} // namespace synth
} // namespace dlw
