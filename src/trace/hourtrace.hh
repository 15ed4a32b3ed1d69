/**
 * @file
 * The Hour trace: per-hour activity counters over weeks or months.
 *
 * This models what drive firmware logs over long deployments: for
 * every hour, the number of read and write commands, the blocks
 * moved in each direction, and the cumulative busy time.  It is the
 * middle granularity of the paper's three data sets and the basis of
 * the diurnal-pattern and busy-hour analyses.
 */

#ifndef DLW_TRACE_HOURTRACE_HH
#define DLW_TRACE_HOURTRACE_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/timeseries.hh"

namespace dlw
{
namespace trace
{

/**
 * Counters for one hour of drive activity.
 */
struct HourBucket
{
    /** Read commands completed in the hour. */
    std::uint64_t reads = 0;
    /** Write commands completed in the hour. */
    std::uint64_t writes = 0;
    /** Blocks read in the hour. */
    std::uint64_t read_blocks = 0;
    /** Blocks written in the hour. */
    std::uint64_t write_blocks = 0;
    /** Ticks the drive mechanism was busy during the hour. */
    Tick busy = 0;

    /** Total commands. */
    std::uint64_t total() const { return reads + writes; }

    /** Total blocks. */
    std::uint64_t totalBlocks() const { return read_blocks + write_blocks; }

    /** Busy fraction of the hour in [0, 1]. */
    double
    utilization() const
    {
        return static_cast<double>(busy) / static_cast<double>(kHour);
    }

    /** Fraction of commands that are reads (0 when idle). */
    double
    readFraction() const
    {
        const std::uint64_t t = total();
        return t ? static_cast<double>(reads) / static_cast<double>(t)
                 : 0.0;
    }

    /** Element-wise accumulate. */
    void
    operator+=(const HourBucket &o)
    {
        reads += o.reads;
        writes += o.writes;
        read_blocks += o.read_blocks;
        write_blocks += o.write_blocks;
        busy += o.busy;
    }

    bool
    operator==(const HourBucket &o) const
    {
        return reads == o.reads && writes == o.writes &&
               read_blocks == o.read_blocks &&
               write_blocks == o.write_blocks && busy == o.busy;
    }
};

/**
 * Hour-granularity activity log for one drive.
 */
class HourTrace
{
  public:
    HourTrace() = default;

    /**
     * @param drive_id Identifier of the drive.
     * @param start    Tick of the left edge of hour 0.
     */
    HourTrace(std::string drive_id, Tick start);

    /** Identifier of the drive. */
    const std::string &driveId() const { return drive_id_; }

    /** Set the drive identifier. */
    void setDriveId(std::string id) { drive_id_ = std::move(id); }

    /** Tick of hour 0's left edge. */
    Tick start() const { return start_; }

    /** Number of logged hours. */
    std::size_t hours() const { return buckets_.size(); }

    /** True when no hour has been logged. */
    bool empty() const { return buckets_.empty(); }

    /** Bucket for hour h (bounds-checked, const). */
    const HourBucket &at(std::size_t h) const;

    /** Bucket for hour h, growing the log as needed. */
    HourBucket &bucketFor(std::size_t h);

    /** Bucket containing absolute tick t, growing as needed. */
    HourBucket &bucketAt(Tick t);

    /** Append one bucket. */
    void append(const HourBucket &b) { buckets_.push_back(b); }

    /** All buckets. */
    const std::vector<HourBucket> &buckets() const { return buckets_; }

    /** Total commands over the whole log. */
    std::uint64_t totalRequests() const;

    /** Total blocks moved over the whole log. */
    std::uint64_t totalBlocks() const;

    /** Mean utilization across hours (0 when empty). */
    double meanUtilization() const;

    /** Fraction of hours with zero commands. */
    double idleHourFraction() const;

    /**
     * Fraction of hours with utilization at or above the threshold.
     *
     * @param threshold Utilization level counting as "busy".
     */
    double busyHourFraction(double threshold) const;

    /**
     * Longest run of consecutive hours at or above a utilization
     * threshold — the paper's "fully utilizing the available disk
     * bandwidth for hours at a time" metric.
     */
    std::size_t longestBusyRun(double threshold) const;

    /** Requests-per-hour as a BinnedSeries (for burstiness math). */
    stats::BinnedSeries requestSeries() const;

    /**
     * Average bucket over an hour-of-week grid (168 slots), the raw
     * material of the diurnal/weekly pattern figure.
     *
     * @return 168 mean-request-count values, slot 0 = hour 0 of the
     *         log's first day.
     */
    std::vector<double> hourOfWeekProfile() const;

  private:
    std::string drive_id_;
    Tick start_ = 0;
    std::vector<HourBucket> buckets_;
};

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_HOURTRACE_HH
