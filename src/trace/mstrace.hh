/**
 * @file
 * The Millisecond trace: per-request records over a window of hours.
 *
 * This is the finest-grained of the paper's three data sets.  The
 * container owns the request sequence plus identifying metadata, and
 * offers the derived views (interarrival times, per-bin counts,
 * read/write splits) that the characterization core consumes.
 */

#ifndef DLW_TRACE_MSTRACE_HH
#define DLW_TRACE_MSTRACE_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/status.hh"
#include "stats/timeseries.hh"
#include "trace/record.hh"

namespace dlw
{
namespace trace
{

/**
 * True when duration >= 0 and the window's end, start + duration,
 * fits a Tick.  Every decoder refuses a header that fails this, and
 * an MsTrace asserts it of its window.
 */
inline bool
windowEndFits(Tick start, Tick duration)
{
    Tick end = 0;
    return duration >= 0 &&
           !__builtin_add_overflow(start, duration, &end);
}

/**
 * A per-request trace for one drive.
 */
class MsTrace
{
  public:
    MsTrace() = default;

    /**
     * @param drive_id Identifier of the traced drive.
     * @param start    Tick of the start of the observation window.
     * @param duration Length of the observation window in ticks;
     *                 windowEndFits(start, duration) must hold.
     */
    MsTrace(std::string drive_id, Tick start, Tick duration);

    /** Identifier of the traced drive. */
    const std::string &driveId() const { return drive_id_; }

    /** Start of the observation window. */
    Tick start() const { return start_; }

    /** Length of the observation window. */
    Tick duration() const { return duration_; }

    /** End of the observation window. */
    Tick end() const { return start_ + duration_; }

    /** Set the metadata fields (the window as in the constructor). */
    void setDriveId(std::string id) { drive_id_ = std::move(id); }
    void setWindow(Tick start, Tick duration);

    /** Append a request (arrivals should be non-decreasing). */
    void
    append(const Request &req)
    {
        dlw_assert(req.blocks > 0, "zero-length request");
        reqs_.push_back(req);
    }

    /** Append, growing the window if the arrival falls outside it. */
    void appendExtending(const Request &req);

    /** Number of requests. */
    std::size_t size() const { return reqs_.size(); }

    /** True when the trace holds no requests. */
    bool empty() const { return reqs_.empty(); }

    /** Request i (bounds-checked). */
    const Request &at(std::size_t i) const;

    /** Underlying request vector. */
    const std::vector<Request> &requests() const { return reqs_; }

    /** Sort requests by arrival (needed after merging streams). */
    void sortByArrival();

    /**
     * Validate internal consistency.
     *
     * Checks: arrivals sorted and inside the window, block counts
     * positive.
     *
     * @return Success, or a CorruptData status naming the first
     *         violation.
     */
    Status checkValid() const;

    /**
     * Boolean wrapper around checkValid().
     *
     * @param fail_hard Throw StatusError on violation instead of
     *                  returning.
     * @return True when the trace is consistent.
     */
    bool validate(bool fail_hard = false) const;

    /** Count of read requests. */
    std::size_t readCount() const;

    /** Fraction of requests that are reads (0 when empty). */
    double readFraction() const;

    /** Total bytes moved (both directions). */
    std::uint64_t totalBytes() const;

    /** Mean request size in blocks (0 when empty). */
    double meanRequestBlocks() const;

    /** Mean arrival rate in requests per second (0 when empty). */
    double arrivalRate() const;

    /**
     * Interarrival gaps in ticks (length size() - 1).
     *
     * Simultaneous arrivals produce zero gaps, which are preserved.
     */
    std::vector<double> interarrivals() const;

    /**
     * Per-bin request counts.
     *
     * @param bin_width   Bin width in ticks.
     * @param which       Count only reads, only writes, or all.
     * @return Counts series spanning exactly the trace window.
     */
    enum class Filter { All, Reads, Writes };
    stats::BinnedSeries binCounts(Tick bin_width,
                                  Filter which = Filter::All) const;

    /**
     * Fraction of sequential requests: request i is sequential when
     * its LBA equals the previous request's end LBA.
     */
    double sequentialFraction() const;

  private:
    std::string drive_id_;
    Tick start_ = 0;
    Tick duration_ = 0;
    std::vector<Request> reqs_;
};

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_MSTRACE_HH
