#include "synth/spatial.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace dlw
{
namespace synth
{

namespace
{

/** Clamp a starting LBA so the request fits inside the device. */
Lba
fitWithin(Lba lba, BlockCount blocks, Lba capacity)
{
    dlw_assert(blocks <= capacity, "request larger than device");
    const Lba max_start = capacity - blocks;
    return std::min(lba, max_start);
}

} // anonymous namespace

UniformSpatial::UniformSpatial(Lba capacity)
    : capacity_(capacity)
{
    dlw_assert(capacity > 0, "capacity must be positive");
}

Lba
UniformSpatial::nextLba(Rng &rng, BlockCount blocks)
{
    const Lba max_start = capacity_ - std::min<Lba>(blocks, capacity_);
    return static_cast<Lba>(
        rng.uniformInt(0, static_cast<std::int64_t>(max_start)));
}

ZipfHotspot::ZipfHotspot(Lba capacity, std::size_t extents,
                         double skew, std::uint64_t perm_seed)
    : capacity_(capacity), extents_(extents),
      rank_(static_cast<std::int64_t>(extents), skew)
{
    dlw_assert(capacity > 0, "capacity must be positive");
    dlw_assert(extents >= 2, "need at least two extents");
    dlw_assert(skew >= 0.0, "negative zipf skew");

    // Shuffle ranks onto locations so hot extents are scattered, as
    // real hot files are.
    perm_.resize(extents);
    std::iota(perm_.begin(), perm_.end(), 0u);
    Rng perm_rng(perm_seed);
    for (std::size_t i = extents - 1; i > 0; --i) {
        auto j = static_cast<std::size_t>(
            perm_rng.uniformInt(0, static_cast<std::int64_t>(i)));
        std::swap(perm_[i], perm_[j]);
    }
}

Lba
ZipfHotspot::nextLba(Rng &rng, BlockCount blocks)
{
    const auto rank = static_cast<std::size_t>(rank_(rng));
    const std::size_t extent = perm_[rank];
    const Lba ext_size = capacity_ / extents_;
    const Lba base = ext_size * extent;
    const Lba span = extent + 1 == extents_
        ? capacity_ - base
        : ext_size;
    const Lba offset = static_cast<Lba>(
        rng.uniformInt(0, static_cast<std::int64_t>(span - 1)));
    return fitWithin(base + offset, blocks, capacity_);
}

SequentialRuns::SequentialRuns(Lba capacity, double continue_prob)
    : capacity_(capacity), continue_prob_(continue_prob)
{
    dlw_assert(capacity > 0, "capacity must be positive");
    dlw_assert(continue_prob >= 0.0 && continue_prob < 1.0,
               "continue probability must be in [0, 1)");
}

void
SequentialRuns::reset()
{
    in_run_ = false;
    next_ = 0;
}

Lba
SequentialRuns::nextLba(Rng &rng, BlockCount blocks)
{
    if (in_run_ && rng.bernoulli(continue_prob_) &&
        next_ + blocks <= capacity_) {
        const Lba lba = next_;
        next_ += blocks;
        return lba;
    }
    // Start a new run at a random aligned location.
    const Lba max_start = capacity_ - std::min<Lba>(blocks, capacity_);
    const Lba lba = static_cast<Lba>(
        rng.uniformInt(0, static_cast<std::int64_t>(max_start)));
    in_run_ = true;
    next_ = lba + blocks;
    return lba;
}

MixedSpatial::MixedSpatial(std::unique_ptr<SpatialModel> a,
                           std::unique_ptr<SpatialModel> b,
                           double a_prob)
    : a_(std::move(a)), b_(std::move(b)), a_prob_(a_prob)
{
    dlw_assert(a_ && b_, "mixed spatial needs two models");
    dlw_assert(a_->capacity() == b_->capacity(),
               "mixed spatial capacities differ");
    dlw_assert(a_prob >= 0.0 && a_prob <= 1.0,
               "mixture probability out of range");
}

Lba
MixedSpatial::nextLba(Rng &rng, BlockCount blocks)
{
    return rng.bernoulli(a_prob_) ? a_->nextLba(rng, blocks)
                                  : b_->nextLba(rng, blocks);
}

Lba
MixedSpatial::capacity() const
{
    return a_->capacity();
}

void
MixedSpatial::reset()
{
    a_->reset();
    b_->reset();
}

} // namespace synth
} // namespace dlw
