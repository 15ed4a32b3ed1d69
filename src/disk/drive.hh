/**
 * @file
 * Event-driven single-drive servicing engine.
 *
 * Replays a Millisecond trace through the mechanical model, cache
 * and scheduler, and produces the ServiceLog the characterization
 * core consumes: per-request completions and the exact busy
 * intervals of the mechanism (foreground accesses plus background
 * destages).  This is the component that turns a request stream into
 * physically meaningful utilization and idleness, standing in for
 * the instrumented production drives of the paper.
 */

#ifndef DLW_DISK_DRIVE_HH
#define DLW_DISK_DRIVE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "disk/cache.hh"
#include "disk/model.hh"
#include "disk/scheduler.hh"
#include "trace/aggregate.hh"
#include "trace/mstrace.hh"
#include "trace/source.hh"

namespace dlw
{
namespace disk
{

/**
 * Full drive configuration.
 */
struct DriveConfig
{
    DiskGeometry geometry;
    SeekModel seek;
    CacheConfig cache;
    SchedPolicy sched = SchedPolicy::Fcfs;
    /** Controller/command overhead added to every request. */
    Tick overhead = 100 * kUsec;
    /** Idle time before background destaging starts. */
    Tick destage_idle_wait = 20 * kMsec;

    /** A 146 GiB 15k enterprise drive with default cache. */
    static DriveConfig makeEnterprise();

    /** A 500 GiB 7200 RPM nearline drive with default cache. */
    static DriveConfig makeNearline();
};

/**
 * Outcome of one request.
 */
struct Completion
{
    /** Index of the request in the input trace. */
    std::size_t index = 0;
    /** Arrival tick. */
    Tick arrival = 0;
    /** Tick service began (equals arrival for cache hits). */
    Tick start = 0;
    /** Completion tick. */
    Tick finish = 0;
    /** True for reads. */
    bool read = false;
    /** True when served from cache / write buffer. */
    bool cache_hit = false;

    /** Response time (queueing + service). */
    Tick response() const { return finish - arrival; }
};

/**
 * Receives per-request completions and closed busy intervals as the
 * engine produces them.
 *
 * Passing a sink to DiskDrive::service() redirects the Completion
 * records here instead of materializing ServiceLog::completions, and
 * lets the sink take each busy interval as it closes instead of
 * ServiceLog::busy.  Those are a ServiceLog's two O(requests)
 * components: a 2-hour OLTP trace of 721 375 requests closes 137 487
 * busy intervals.  A streamed run with a sink therefore holds only
 * the current batch, the in-flight queue, and whatever the sink
 * keeps.  Completions arrive in completion order and busy intervals
 * in time order, exactly the orders ServiceLog::completions and
 * ServiceLog::busy would have been filled in.  The fleet folds each
 * shard's statistics through one; `analyze` keeps only response
 * times and folds its busy profile as intervals close.
 */
class CompletionSink
{
  public:
    virtual ~CompletionSink() = default;

    /** One request finished. */
    virtual void onCompletion(const Completion &c) = 0;

    /**
     * One busy interval of the mechanism closed: back-to-back
     * operations already coalesced, disjoint from and after every
     * interval before it.  Return true to take it; the default
     * returns false, and the engine appends the interval to
     * ServiceLog::busy, as a run without a sink does.
     */
    virtual bool
    onBusyInterval(const trace::BusyInterval &)
    {
        return false;
    }
};

/**
 * Index a full sort of n response times holds quantile q in [0, 1]
 * at: min(size_t(q (n-1) + 0.5), n-1).  n must be positive.
 */
std::size_t responseQuantileIndex(std::size_t n, double q);

/**
 * A CompletionSink that keeps each request's response time and
 * nothing else, in completion order: the whole per-request residency
 * of a characterized run.
 *
 * The ticks live in fixed chunks of kChunkTicks, allocated as the log
 * grows and never moved or copied, so growing the log never holds it
 * twice, as a doubling vector's regrowth does.  A chunk keeps the low
 * 32 bits of each tick (4 B); only a chunk that meets a tick of 2^32
 * or more (4.29 s) gains a plane of high words, so a chunk never
 * costs more than 8 B per tick, not even while it widens.  mean() and
 * selectQuantile() work in the chunks in place; the log is never
 * gathered into one contiguous array.
 */
class ResponseTicks final : public CompletionSink
{
  public:
    /** log2 of the ticks per chunk. */
    static constexpr unsigned kChunkShift = 13;
    /** Ticks per chunk (32 KiB of low words). */
    static constexpr std::size_t kChunkTicks = std::size_t{1}
                                               << kChunkShift;

    void
    onCompletion(const Completion &c) override
    {
        add(c.response());
    }

    /** Append one response time. */
    void
    add(Tick r)
    {
        const std::size_t at = n_ & (kChunkTicks - 1);
        if (at == 0)
            chunks_.emplace_back();
        chunks_.back().set(at, r);
        ++n_;
    }

    /** Response times kept. */
    std::size_t size() const { return n_; }

    /**
     * Response time i: in completion order until selectQuantile()
     * permutes the log.
     */
    Tick
    operator[](std::size_t i) const
    {
        return chunks_[i >> kChunkShift].get(i & (kChunkTicks - 1));
    }

    /**
     * Mean response time, summed in completion order (0 when empty),
     * so call it before selectQuantile().  ServiceLog::meanResponse()
     * and `analyze` both sum here, so their doubles are bit-identical.
     */
    double mean() const;

    /**
     * Response time at quantile q in [0, 1] (exact): the element a
     * full sort would hold at responseQuantileIndex(size(), q), found
     * by selection.  Permutes the log, which must not be empty; an
     * order statistic does not depend on the permutation it starts
     * from, so successive quantiles may select in the same log.
     *
     * Selection runs in [first, size()) only.  A caller that has just
     * selected a lower quantile at index i may pass first = i: that
     * selection left no element from i on smaller than one before it.
     * q's index must not be below `first`.
     */
    Tick selectQuantile(double q, std::size_t first = 0);

  private:
    /** kChunkTicks ticks: low words, and high words once needed. */
    struct Chunk
    {
        std::unique_ptr<std::uint32_t[]> lo =
            std::make_unique_for_overwrite<std::uint32_t[]>(kChunkTicks);
        /** Zero-filled when allocated; null while every tick fits. */
        std::unique_ptr<std::uint32_t[]> hi;

        Tick
        get(std::size_t i) const
        {
            std::uint64_t u = lo[i];
            if (hi)
                u |= static_cast<std::uint64_t>(hi[i]) << 32;
            return static_cast<Tick>(u);
        }

        /** Store tick i, allocating the high words if it needs them. */
        void
        set(std::size_t i, Tick t)
        {
            const auto u = static_cast<std::uint64_t>(t);
            lo[i] = static_cast<std::uint32_t>(u);
            const auto high = static_cast<std::uint32_t>(u >> 32);
            if (!hi) {
                if (high == 0)
                    return;
                hi = std::make_unique<std::uint32_t[]>(kChunkTicks);
            }
            hi[i] = high;
        }
    };

    class Ref;
    class Iter;

    std::vector<Chunk> chunks_;
    std::size_t n_ = 0;
};

/**
 * Per-bin busy time folded from a drive's busy intervals in time
 * order, holding O(bins) rather than the intervals.  It is the one
 * rule that turns busy intervals into busy time and utilization:
 * ServiceLog::utilizationSeries() replays a log's intervals through
 * it, and `analyze` feeds it as the drive closes them.
 */
class BusyBins
{
  public:
    /**
     * @param window_start Left edge of the first bin.
     * @param window_end   End of the window as far as known: the bins
     *                     covering it are allocated up front, and an
     *                     interval past it adds bins.
     * @param bin_width    Bin width (> 0).
     */
    BusyBins(Tick window_start, Tick window_end, Tick bin_width);

    /** One busy interval, after every interval added before it. */
    void
    add(const trace::BusyInterval &iv)
    {
        busy_.accumulateInterval(iv.first, iv.second,
                                 static_cast<double>(iv.second -
                                                     iv.first));
    }

    /**
     * Per-bin utilization over [window_start, window_end), where
     * window_end is the later of the constructor's and every
     * interval's end, as a drive run's final window is: a trailing
     * partial bin is dropped, and each bin is divided by the bin
     * width, or by the span when it is the only bin.
     */
    stats::BinnedSeries utilization(Tick window_end) &&;

  private:
    stats::BinnedSeries busy_;
};

/**
 * Everything a drive run produces.
 */
struct ServiceLog
{
    /** Observation window (may extend past the trace for destages). */
    Tick window_start = 0;
    Tick window_end = 0;

    /** Per-request outcomes, in completion order. */
    std::vector<Completion> completions;

    /** Merged, disjoint busy intervals of the mechanism. */
    std::vector<trace::BusyInterval> busy;

    /** Requests served from the read cache. */
    std::uint64_t read_hits = 0;
    /** Writes absorbed by the write buffer. */
    std::uint64_t buffered_writes = 0;
    /** Writes forced to the media because the buffer was full. */
    std::uint64_t write_through = 0;
    /** Background destage operations performed. */
    std::uint64_t destages = 0;

    /** Total busy time of the mechanism. */
    Tick busyTime() const;

    /** Busy fraction of the observation window. */
    double utilization() const;

    /** Response time of every completion, in completion order. */
    ResponseTicks responseTimes() const;

    /** Mean response time over all completions (0 when empty). */
    double meanResponse() const;

    /** Response time at a quantile (exact, selects in a copy). */
    Tick responseQuantile(double q) const;

    /**
     * Idle gaps between busy intervals inside the window, in ticks.
     */
    std::vector<Tick> idleIntervals() const;

    /** Call f(gap) on each of idleIntervals(), in order, unstored. */
    template <typename F>
    void
    forEachIdleInterval(F &&f) const
    {
        Tick at = window_start;
        for (const trace::BusyInterval &iv : busy) {
            if (iv.first > at)
                f(iv.first - at);
            at = std::max(at, iv.second);
        }
        if (window_end > at)
            f(window_end - at);
    }

    /** Per-bin utilization in [0, 1] (BusyBins::utilization()). */
    stats::BinnedSeries utilizationSeries(Tick bin_width) const;
};

/**
 * The drive: feed it a trace, get a ServiceLog.
 */
class DiskDrive
{
  public:
    explicit DiskDrive(DriveConfig config);

    /** Configuration in force. */
    const DriveConfig &config() const { return config_; }

    /**
     * Service an entire trace.
     *
     * Runs the event-driven engine to completion, including draining
     * the write buffer after the last arrival.  Arrivals must be
     * sorted.
     *
     * @param tr Input trace.
     * @return The complete service log.
     */
    ServiceLog service(const trace::MsTrace &tr);

    /**
     * Service a request stream.
     *
     * Pulls batches from `src` on demand and replays them through the
     * engine with one-request lookahead, so only the current batch is
     * resident — the streamed equivalent of service(MsTrace), with
     * byte-identical results at every batch size.  The whole-trace
     * validation becomes incremental: arrivals must be sorted, inside
     * the source's window, with nonzero block counts (asserted as the
     * stream is consumed).
     *
     * @param src            Request stream, in arrival order.
     * @param sink           Optional completion sink; when non-null,
     *                       completions stream there and
     *                       ServiceLog::completions stays empty.
     * @param batch_requests Batch capacity used to pull from src.
     * @return The service log (throws StatusError when the source
     *         reports a mid-stream decode failure).
     */
    ServiceLog service(trace::RequestSource &src,
                       CompletionSink *sink = nullptr,
                       std::size_t batch_requests =
                           trace::kDefaultBatchRequests);

  private:
    DriveConfig config_;
};

} // namespace disk
} // namespace dlw

#endif // DLW_DISK_DRIVE_HH
