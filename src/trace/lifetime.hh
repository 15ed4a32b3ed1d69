/**
 * @file
 * The Lifetime trace: cumulative per-drive counters over an entire
 * deployment, collected across a whole drive family.
 *
 * This is the coarsest of the paper's three data sets: one record
 * per drive summarizing everything its firmware accumulated over its
 * field life.  The family-variability analyses (utilization spread,
 * saturated-streamer detection) run over collections of these.
 */

#ifndef DLW_TRACE_LIFETIME_HH
#define DLW_TRACE_LIFETIME_HH

#include <string>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace dlw
{
namespace trace
{

/**
 * Cumulative counters for one drive's field life.
 */
struct LifetimeRecord
{
    /** Drive identifier (serial-number stand-in). */
    std::string drive_id;
    /** Total powered-on time. */
    Tick power_on = 0;
    /** Total time the mechanism was busy. */
    Tick busy = 0;
    /** Cumulative read commands. */
    std::uint64_t reads = 0;
    /** Cumulative write commands. */
    std::uint64_t writes = 0;
    /** Cumulative blocks read. */
    std::uint64_t read_blocks = 0;
    /** Cumulative blocks written. */
    std::uint64_t write_blocks = 0;
    /** Peak hourly command count observed over the life. */
    std::uint64_t peak_hour_requests = 0;
    /** Hours with utilization >= 0.9 ("saturated hours"). */
    std::uint64_t saturated_hours = 0;
    /** Longest run of consecutive saturated hours. */
    std::uint64_t longest_saturated_run = 0;

    /** Lifetime utilization = busy / power_on (0 when unused). */
    double
    utilization() const
    {
        return power_on > 0
            ? static_cast<double>(busy) / static_cast<double>(power_on)
            : 0.0;
    }

    /** Total commands over the life. */
    std::uint64_t total() const { return reads + writes; }

    /** Fraction of commands that are reads. */
    double
    readFraction() const
    {
        const std::uint64_t t = total();
        return t ? static_cast<double>(reads) / static_cast<double>(t)
                 : 0.0;
    }

    /** Bytes read over the life. */
    std::uint64_t
    bytesRead() const
    {
        return read_blocks * static_cast<std::uint64_t>(kBlockBytes);
    }

    /** Bytes written over the life. */
    std::uint64_t
    bytesWritten() const
    {
        return write_blocks * static_cast<std::uint64_t>(kBlockBytes);
    }

    /** Mean commands per powered-on hour. */
    double
    requestsPerHour() const
    {
        const double hours = static_cast<double>(power_on) /
                             static_cast<double>(kHour);
        return hours > 0.0 ? static_cast<double>(total()) / hours : 0.0;
    }
};

/**
 * Lifetime records for a whole drive family.
 */
class LifetimeTrace
{
  public:
    LifetimeTrace() = default;

    /** @param family Name of the drive family. */
    explicit LifetimeTrace(std::string family);

    /** Family name. */
    const std::string &family() const { return family_; }

    /** Add one drive's record. */
    void append(LifetimeRecord rec);

    /** Number of drives. */
    std::size_t size() const { return records_.size(); }

    /** True when no drive has been recorded. */
    bool empty() const { return records_.empty(); }

    /** All records. */
    const std::vector<LifetimeRecord> &records() const { return records_; }

    /**
     * Validate internal consistency (busy <= power_on, block counts
     * imply command counts).
     *
     * @return Success, or a CorruptData status naming the first
     *         violation.
     */
    Status checkValid() const;

    /**
     * Boolean wrapper around checkValid().
     *
     * @param fail_hard Throw StatusError on violation instead of
     *                  returning false.
     */
    bool validate(bool fail_hard = false) const;

    /** Utilization of every drive, in record order. */
    std::vector<double> utilizations() const;

  private:
    std::string family_;
    std::vector<LifetimeRecord> records_;
};

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_LIFETIME_HH
