/**
 * @file
 * Drive cache: segmented read look-ahead plus a write-back buffer.
 *
 * Enterprise drives of the paper's era carried 8-16 MiB of cache
 * split into read segments (sequential look-ahead) and a write
 * buffer that acknowledges writes before media access and destages
 * them during idle periods.  Both behaviours reshape the busy/idle
 * structure the characterization measures, which is why the cache is
 * an explicit, switchable component (the E4 idle-time ablation).
 */

#ifndef DLW_DISK_CACHE_HH
#define DLW_DISK_CACHE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"

namespace dlw
{
namespace disk
{

/**
 * Cache sizing and behaviour knobs.
 */
struct CacheConfig
{
    /** Master switch; when false every access is mechanical. */
    bool enabled = true;
    /** Number of read look-ahead segments (1 .. 64). */
    std::uint32_t segments = 16;
    /** Blocks prefetched past the end of each read. */
    BlockCount prefetch_blocks = 512;
    /** Write-buffer capacity in blocks. */
    BlockCount write_buffer_blocks = 16384;
};

/** A dirty extent awaiting destage. */
struct DirtyExtent
{
    Lba lba = 0;
    BlockCount blocks = 0;
};

/**
 * Cache state machine used by the drive engine.
 */
class DiskCache
{
  public:
    explicit DiskCache(const CacheConfig &config);

    /** Configuration in force. */
    const CacheConfig &config() const { return config_; }

    /**
     * Look up a read.
     *
     * A hit refreshes the segment's LRU stamp, so the query mutates
     * cache state.
     *
     * @param lba    First block of the read.
     * @param blocks Length of the read.
     * @return True on a full segment hit (no mechanical work).
     */
    bool readHit(Lba lba, BlockCount blocks);

    /**
     * Install/refresh the segment covering a completed media read
     * with its look-ahead extension (LRU replacement).
     */
    void installReadSegment(Lba lba, BlockCount blocks);

    /** True when the write buffer can absorb this many blocks. */
    bool canBuffer(BlockCount blocks) const;

    /**
     * Buffer a write and invalidate overlapping read segments.
     *
     * @pre canBuffer(blocks).
     */
    void bufferWrite(Lba lba, BlockCount blocks);

    /** True when dirty data awaits destage. */
    bool dirty() const { return !dirty_.empty(); }

    /** Total dirty blocks buffered. */
    BlockCount dirtyBlocks() const { return dirty_blocks_; }

    /** Number of dirty extents queued. */
    std::size_t dirtyExtents() const { return dirty_.size(); }

    /**
     * Pop the oldest dirty extent for destaging.
     *
     * @pre dirty().
     */
    DirtyExtent popDestage();

  private:
    void invalidateOverlapping(Lba lba, BlockCount blocks);

    CacheConfig config_;
    // The read segments as parallel arrays, one entry per segment
    // (none when the cache is off).  An invalid segment is the empty
    // range [0, 0) stamped 0: no read or write overlaps it, and the
    // victim arg-min takes it before any valid one.  Each lookup is
    // one pass over all segments that builds a bitmask of matches,
    // so at most 64 segments fit.
    std::vector<Lba> start_;
    std::vector<Lba> end_;
    std::vector<std::uint64_t> last_use_;
    std::deque<DirtyExtent> dirty_;
    BlockCount dirty_blocks_ = 0;
    std::uint64_t use_clock_ = 0;
};

} // namespace disk
} // namespace dlw

#endif // DLW_DISK_CACHE_HH
