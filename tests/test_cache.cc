/**
 * @file
 * Unit tests for disk/cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "disk/cache.hh"

namespace dlw
{
namespace disk
{
namespace
{

CacheConfig
smallConfig()
{
    CacheConfig c;
    c.enabled = true;
    c.segments = 2;
    c.prefetch_blocks = 100;
    c.write_buffer_blocks = 1000;
    return c;
}

TEST(Cache, DisabledNeverHitsNorBuffers)
{
    CacheConfig cfg;
    cfg.enabled = false;
    DiskCache c(cfg);
    c.installReadSegment(0, 100);
    EXPECT_FALSE(c.readHit(0, 10));
    EXPECT_FALSE(c.canBuffer(1));
}

TEST(Cache, ReadHitWithinSegmentAndPrefetch)
{
    DiskCache c(smallConfig());
    EXPECT_FALSE(c.readHit(0, 10));
    c.installReadSegment(100, 50); // covers [100, 250) with prefetch
    EXPECT_TRUE(c.readHit(100, 50));
    EXPECT_TRUE(c.readHit(200, 50)); // inside prefetch window
    EXPECT_TRUE(c.readHit(249, 1));
    EXPECT_FALSE(c.readHit(250, 1));
    EXPECT_FALSE(c.readHit(90, 20)); // straddles the start
}

TEST(Cache, PartialOverlapIsMiss)
{
    DiskCache c(smallConfig());
    c.installReadSegment(0, 50); // [0, 150)
    EXPECT_FALSE(c.readHit(100, 100)); // extends past the segment
}

TEST(Cache, LruEviction)
{
    DiskCache c(smallConfig()); // 2 segments
    c.installReadSegment(0, 10);     // seg A [0,110)
    c.installReadSegment(1000, 10);  // seg B [1000,1110)
    EXPECT_TRUE(c.readHit(0, 5));    // touch A -> B is now LRU
    c.installReadSegment(5000, 10);  // evicts B
    EXPECT_TRUE(c.readHit(0, 5));
    EXPECT_FALSE(c.readHit(1000, 5));
    EXPECT_TRUE(c.readHit(5000, 5));
}

TEST(Cache, WriteBufferAccounting)
{
    DiskCache c(smallConfig());
    EXPECT_TRUE(c.canBuffer(1000));
    EXPECT_FALSE(c.canBuffer(1001));
    c.bufferWrite(0, 600);
    EXPECT_EQ(c.dirtyBlocks(), 600u);
    EXPECT_TRUE(c.canBuffer(400));
    EXPECT_FALSE(c.canBuffer(401));
    EXPECT_TRUE(c.dirty());
}

TEST(Cache, SequentialWritesCoalesce)
{
    DiskCache c(smallConfig());
    c.bufferWrite(100, 50);
    c.bufferWrite(150, 50); // extends the previous extent
    EXPECT_EQ(c.dirtyExtents(), 1u);
    EXPECT_EQ(c.dirtyBlocks(), 100u);
    c.bufferWrite(500, 10); // new extent
    EXPECT_EQ(c.dirtyExtents(), 2u);
}

TEST(Cache, DestageFifoOrder)
{
    DiskCache c(smallConfig());
    c.bufferWrite(100, 10);
    c.bufferWrite(500, 20);
    DirtyExtent e1 = c.popDestage();
    EXPECT_EQ(e1.lba, 100u);
    EXPECT_EQ(e1.blocks, 10u);
    EXPECT_EQ(c.dirtyBlocks(), 20u);
    DirtyExtent e2 = c.popDestage();
    EXPECT_EQ(e2.lba, 500u);
    EXPECT_FALSE(c.dirty());
}

TEST(Cache, WriteInvalidatesOverlappingSegment)
{
    DiskCache c(smallConfig());
    c.installReadSegment(0, 50); // [0, 150)
    EXPECT_TRUE(c.readHit(0, 10));
    c.bufferWrite(100, 10); // overlaps the segment
    EXPECT_FALSE(c.readHit(0, 10));
}

TEST(Cache, WriteElsewhereKeepsSegment)
{
    DiskCache c(smallConfig());
    c.installReadSegment(0, 50); // [0, 150)
    c.bufferWrite(5000, 10);
    EXPECT_TRUE(c.readHit(0, 10));
}

TEST(CacheDeathTest, BufferOverflowAndEmptyDestage)
{
    DiskCache c(smallConfig());
    EXPECT_DEATH(c.popDestage(), "empty buffer");
    c.bufferWrite(0, 1000);
    EXPECT_DEATH(c.bufferWrite(5000, 1), "overflow");
}

TEST(CacheDeathTest, MoreSegmentsThanTheMaskHoldsAreRejected)
{
    // Each segment lookup builds a 64-bit mask of matches.
    CacheConfig cfg = smallConfig();
    cfg.segments = 64;
    DiskCache fits(cfg);
    EXPECT_FALSE(fits.readHit(0, 1));
    cfg.segments = 65;
    EXPECT_DEATH(DiskCache{cfg}, "at most 64 segments");
}

/**
 * The segment cache as an array of structs scanned front to back
 * with early exits: the definition the mask-building scans of
 * DiskCache must reproduce, hit for hit and victim for victim.
 */
class OracleCache
{
  public:
    explicit OracleCache(const CacheConfig &config) : config_(config)
    {
        if (config_.enabled)
            segments_.resize(config_.segments);
    }

    bool
    readHit(Lba lba, BlockCount blocks)
    {
        if (!config_.enabled)
            return false;
        const Lba end = lba + blocks;
        for (Segment &s : segments_) {
            if (s.valid && lba >= s.start && end <= s.end) {
                s.last_use = ++use_clock_;
                return true;
            }
        }
        return false;
    }

    void
    installReadSegment(Lba lba, BlockCount blocks)
    {
        if (!config_.enabled)
            return;
        Segment *victim = &segments_[0];
        for (Segment &s : segments_) {
            if (!s.valid) {
                victim = &s;
                break;
            }
            if (s.last_use < victim->last_use)
                victim = &s;
        }
        victim->start = lba;
        victim->end = lba + blocks + config_.prefetch_blocks;
        victim->last_use = ++use_clock_;
        victim->valid = true;
    }

    bool
    canBuffer(BlockCount blocks) const
    {
        if (!config_.enabled)
            return false;
        return dirty_blocks_ + blocks <= config_.write_buffer_blocks;
    }

    void
    bufferWrite(Lba lba, BlockCount blocks)
    {
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

    bool dirty() const { return !dirty_.empty(); }
    BlockCount dirtyBlocks() const { return dirty_blocks_; }
    std::size_t dirtyExtents() const { return dirty_.size(); }

    DirtyExtent
    popDestage()
    {
        DirtyExtent e = dirty_.front();
        dirty_.pop_front();
        dirty_blocks_ -= e.blocks;
        return e;
    }

  private:
    struct Segment
    {
        Lba start = 0;
        Lba end = 0;
        std::uint64_t last_use = 0;
        bool valid = false;
    };

    void
    invalidateOverlapping(Lba lba, BlockCount blocks)
    {
        const Lba end = lba + blocks;
        for (Segment &s : segments_) {
            if (s.valid && lba < s.end && end > s.start)
                s.valid = false;
        }
    }

    CacheConfig config_;
    std::vector<Segment> segments_;
    std::deque<DirtyExtent> dirty_;
    BlockCount dirty_blocks_ = 0;
    std::uint64_t use_clock_ = 0;
};

/**
 * Drive DiskCache and the oracle with one seeded op stream over a
 * small LBA space, so segments overlap, reads land inside prefetch
 * windows, writes coalesce and invalidate, and the LRU order is
 * exercised at every depth; every return value must agree.
 */
void
runDifferential(std::uint32_t segments, std::uint64_t seed)
{
    CacheConfig cfg;
    cfg.segments = segments;
    cfg.prefetch_blocks = 64;
    cfg.write_buffer_blocks = 2048;
    DiskCache cache(cfg);
    OracleCache oracle(cfg);
    Rng rng(seed);
    const auto space = static_cast<std::int64_t>(segments) * 160 + 512;
    std::vector<Lba> recent; // starts of recent installs
    Lba next_write = 0;
    for (int op = 0; op < 20000; ++op) {
        const std::string at = "segments " + std::to_string(segments) +
                               " seed " + std::to_string(seed) +
                               " op " + std::to_string(op);
        const auto blocks =
            static_cast<BlockCount>(rng.uniformInt(1, 48));
        const std::int64_t kind = rng.uniformInt(0, 99);
        if (kind < 45) {
            // A read: half of them inside a recent segment's window.
            Lba lba = static_cast<Lba>(rng.uniformInt(0, space));
            if (!recent.empty() && rng.bernoulli(0.5)) {
                lba = recent[static_cast<std::size_t>(rng.uniformInt(
                          0, static_cast<std::int64_t>(recent.size()) -
                                 1))] +
                      static_cast<Lba>(rng.uniformInt(0, 100));
            }
            const bool hit = cache.readHit(lba, blocks);
            ASSERT_EQ(hit, oracle.readHit(lba, blocks)) << at;
            if (!hit) {
                cache.installReadSegment(lba, blocks);
                oracle.installReadSegment(lba, blocks);
                recent.push_back(lba);
                if (recent.size() > 2 * segments)
                    recent.erase(recent.begin());
            }
        } else if (kind < 75) {
            // A write: sequential to the last one (coalescing) or
            // anywhere in the space.
            const Lba lba = rng.bernoulli(0.5)
                ? next_write
                : static_cast<Lba>(rng.uniformInt(0, space));
            const bool fits = cache.canBuffer(blocks);
            ASSERT_EQ(fits, oracle.canBuffer(blocks)) << at;
            if (fits) {
                cache.bufferWrite(lba, blocks);
                oracle.bufferWrite(lba, blocks);
                next_write = lba + blocks;
            }
        } else if (kind < 97) {
            ASSERT_EQ(cache.dirty(), oracle.dirty()) << at;
            if (cache.dirty()) {
                const DirtyExtent a = cache.popDestage();
                const DirtyExtent b = oracle.popDestage();
                ASSERT_EQ(a.lba, b.lba) << at;
                ASSERT_EQ(a.blocks, b.blocks) << at;
            }
        } else {
            // A power cycle: both caches start over empty.
            cache = DiskCache(cfg);
            oracle = OracleCache(cfg);
        }
        ASSERT_EQ(cache.dirtyBlocks(), oracle.dirtyBlocks()) << at;
        ASSERT_EQ(cache.dirtyExtents(), oracle.dirtyExtents()) << at;
    }
    // Every segment's fate afterwards: probe the whole space.
    for (Lba lba = 0; lba < static_cast<Lba>(space); lba += 3) {
        ASSERT_EQ(cache.readHit(lba, 8), oracle.readHit(lba, 8))
            << "final probe at " << lba;
    }
}

TEST(Cache, MatchesTheArrayOfStructsOracle)
{
    for (const std::uint32_t segments : {1u, 2u, 16u, 64u}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            runDifferential(segments, seed);
            if (HasFatalFailure())
                return;
        }
    }
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
