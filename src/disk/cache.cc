#include "disk/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

DiskCache::DiskCache(const CacheConfig &config)
    : config_(config)
{
    if (config_.enabled) {
        dlw_assert(config_.segments > 0, "cache needs >= 1 segment");
        dlw_assert(config_.segments <= 64,
                   "cache supports at most 64 segments");
        start_.assign(config_.segments, 0);
        end_.assign(config_.segments, 0);
        last_use_.assign(config_.segments, 0);
    }
}

bool
DiskCache::readHit(Lba lba, BlockCount blocks)
{
    const Lba end = lba + blocks;
    // Bit i marks segment i; walking down from the last segment
    // builds the mask with a shift by one per step.
    std::uint64_t covers = 0;
    for (std::size_t i = start_.size(); i-- > 0;) {
        covers = covers << 1 |
                 static_cast<std::uint64_t>((lba >= start_[i]) &
                                            (end <= end_[i]));
    }
    if (covers == 0)
        return false;
    // The lowest covering segment: the one a front-to-back scan
    // would stop at.
    last_use_[static_cast<std::size_t>(std::countr_zero(covers))] =
        ++use_clock_;
    return true;
}

void
DiskCache::installReadSegment(Lba lba, BlockCount blocks)
{
    if (!config_.enabled)
        return;
    // Victimize the least recently used segment.  Invalid segments
    // are stamped 0 and valid stamps are distinct and positive, so
    // the arg-min (first index on a tie) is the first invalid
    // segment when there is one.
    std::size_t victim = 0;
    std::uint64_t oldest = last_use_[0];
    for (std::size_t i = 1; i < last_use_.size(); ++i) {
        const bool older = last_use_[i] < oldest;
        oldest = older ? last_use_[i] : oldest;
        victim = older ? i : victim;
    }
    start_[victim] = lba;
    end_[victim] = lba + blocks + config_.prefetch_blocks;
    last_use_[victim] = ++use_clock_;
}

bool
DiskCache::canBuffer(BlockCount blocks) const
{
    if (!config_.enabled)
        return false;
    return dirty_blocks_ + blocks <= config_.write_buffer_blocks;
}

void
DiskCache::bufferWrite(Lba lba, BlockCount blocks)
{
    dlw_assert(canBuffer(blocks), "write buffer overflow");
    // Coalesce with the newest extent when strictly sequential, the
    // common pattern of log-style write streams.
    if (!dirty_.empty()) {
        DirtyExtent &tail = dirty_.back();
        if (tail.lba + tail.blocks == lba) {
            tail.blocks += blocks;
            dirty_blocks_ += blocks;
            invalidateOverlapping(lba, blocks);
            return;
        }
    }
    dirty_.push_back(DirtyExtent{lba, blocks});
    dirty_blocks_ += blocks;
    invalidateOverlapping(lba, blocks);
}

DirtyExtent
DiskCache::popDestage()
{
    dlw_assert(!dirty_.empty(), "destage with empty buffer");
    DirtyExtent e = dirty_.front();
    dirty_.pop_front();
    dlw_assert(dirty_blocks_ >= e.blocks, "dirty accounting broken");
    dirty_blocks_ -= e.blocks;
    return e;
}

void
DiskCache::invalidateOverlapping(Lba lba, BlockCount blocks)
{
    const Lba end = lba + blocks;
    std::uint64_t overlaps = 0;
    for (std::size_t i = start_.size(); i-- > 0;) {
        overlaps = overlaps << 1 |
                   static_cast<std::uint64_t>((lba < end_[i]) &
                                              (end > start_[i]));
    }
    for (; overlaps != 0; overlaps &= overlaps - 1) {
        const auto i = static_cast<std::size_t>(std::countr_zero(overlaps));
        start_[i] = 0;
        end_[i] = 0;
        last_use_[i] = 0;
    }
}

} // namespace disk
} // namespace dlw
