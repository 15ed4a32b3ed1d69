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
 * Receives per-request completions as the engine produces them.
 *
 * Passing a sink to DiskDrive::service() redirects the Completion
 * records here instead of materializing ServiceLog::completions —
 * the one O(requests) component of a ServiceLog.  A streamed run
 * with a sink therefore holds only the current batch, the in-flight
 * queue, and the (coalesced) busy intervals.  Callbacks arrive in
 * completion order, exactly the order ServiceLog::completions would
 * have been filled in.  The fleet folds each shard's statistics
 * through one; `analyze` keeps only response times through
 * ResponseTicks.
 */
class CompletionSink
{
  public:
    virtual ~CompletionSink() = default;

    /** One request finished. */
    virtual void onCompletion(const Completion &c) = 0;
};

/**
 * Index a full sort of n response times holds quantile q in [0, 1]
 * at: min(size_t(q (n-1) + 0.5), n-1).  n must be positive.
 */
std::size_t responseQuantileIndex(std::size_t n, double q);

/**
 * A CompletionSink that keeps each request's response time (one Tick,
 * 8 B) in completion order and nothing else: the whole per-request
 * residency of a characterized run.
 *
 * The ticks live in fixed chunks of kChunkTicks, allocated as the log
 * grows and never moved or copied, so growing the log never holds it
 * twice, as a doubling vector's regrowth does.  mean() and
 * selectQuantile() work in the chunks in place; the log is never
 * gathered into one contiguous array.
 */
class ResponseTicks final : public CompletionSink
{
  public:
    /** log2 of the ticks per chunk. */
    static constexpr unsigned kChunkShift = 13;
    /** Ticks per chunk (64 KiB of them). */
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
            chunks_.push_back(
                std::make_unique_for_overwrite<Tick[]>(kChunkTicks));
        chunks_.back()[at] = r;
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
        return chunks_[i >> kChunkShift][i & (kChunkTicks - 1)];
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
    std::vector<std::unique_ptr<Tick[]>> chunks_;
    std::size_t n_ = 0;
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

    /** Per-bin busy time as a series (bin width in ticks). */
    stats::BinnedSeries busySeries(Tick bin_width) const;

    /**
     * Per-bin utilization in [0, 1] (busySeries normalized by bin
     * width).
     */
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
