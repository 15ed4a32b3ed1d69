/**
 * @file
 * RAID array simulation over member DiskDrives.
 *
 * Services an array-level (logical) trace by translating it through
 * the RaidMapper and replaying each member disk's resulting stream
 * through its own DiskDrive instance.  The output exposes both the
 * array-level view (logical response times: a request completes when
 * its slowest fragment does) and the per-disk view (the traces and
 * service logs the paper's disk-level characterization runs on).
 */

#ifndef DLW_ARRAY_ARRAY_HH
#define DLW_ARRAY_ARRAY_HH

#include <vector>

#include "array/raid.hh"
#include "disk/drive.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace array
{

/**
 * Result of one array run.
 */
struct ArrayLog
{
    /** Per-disk traces, exactly what each member saw. */
    std::vector<trace::MsTrace> disk_traces;
    /** Per-disk service logs from the drive model. */
    std::vector<disk::ServiceLog> disk_logs;
    /** Logical response time of every array request (ticks). */
    std::vector<Tick> logical_response;

    /** Mean logical response time (0 when empty). */
    double meanLogicalResponse() const;

    /** Mean utilization across member disks. */
    double meanDiskUtilization() const;

    /** Total member-disk requests generated per logical request. */
    double fanout(std::size_t logical_requests) const;
};

/**
 * The array: a mapper plus n identical member drives.
 */
class RaidArray
{
  public:
    /**
     * @param raid  Array geometry.
     * @param drive Configuration of every member drive.
     */
    RaidArray(RaidConfig raid, disk::DriveConfig drive);

    /** Logical capacity in blocks. */
    Lba logicalCapacity() const;

    /**
     * Service an array-level trace.
     *
     * @param tr Logical trace; LBAs must fit logicalCapacity().
     * @return Array and per-disk results.
     */
    ArrayLog service(const trace::MsTrace &tr);

  private:
    RaidConfig raid_;
    disk::DriveConfig drive_;
};

} // namespace array
} // namespace dlw

#endif // DLW_ARRAY_ARRAY_HH
