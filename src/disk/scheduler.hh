/**
 * @file
 * Request scheduling policies for the drive's internal queue.
 *
 * FCFS is the baseline; SSTF and the elevator (SCAN) policy reorder
 * by head position, which changes busy time at a fixed arrival rate
 * and therefore shifts the utilization rows of E2's ablation.
 */

#ifndef DLW_DISK_SCHEDULER_HH
#define DLW_DISK_SCHEDULER_HH

#include <cstddef>
#include <deque>

#include "disk/geometry.hh"
#include "qos/tag.hh"
#include "trace/record.hh"

namespace dlw
{
namespace disk
{

/** Queue ordering policy. */
enum class SchedPolicy
{
    Fcfs,
    Sstf,
    Elevator,
};

/** Human-readable policy name. */
const char *schedPolicyName(SchedPolicy policy);

/** A queued request plus its submission index. */
struct QueuedRequest
{
    trace::Request req;
    std::size_t index = 0;
    /** Tenant/class tag of the batch the request arrived in. */
    qos::TagId tag;
};

/**
 * A drive's pending requests in arrival order.  FCFS always serves
 * the front, which a deque pops in O(1); SSTF and the elevator scan
 * the whole queue and erase from wherever their pick lies.
 */
using RequestQueue = std::deque<QueuedRequest>;

/**
 * Stateful scheduler: the elevator policy remembers its direction.
 */
class Scheduler
{
  public:
    explicit Scheduler(SchedPolicy policy);

    /** Policy in force. */
    SchedPolicy policy() const { return policy_; }

    /**
     * Choose the next request to service.
     *
     * @param queue        Pending requests (non-empty).
     * @param head_cylinder Current head position.
     * @param geometry     Geometry for LBA-to-cylinder mapping.
     * @return Index into queue of the chosen request.
     */
    std::size_t pick(const RequestQueue &queue,
                     std::uint64_t head_cylinder,
                     const DiskGeometry &geometry);

  private:
    SchedPolicy policy_;
    /** Elevator sweep direction: true = toward higher cylinders. */
    bool sweep_up_ = true;
};

} // namespace disk
} // namespace dlw

#endif // DLW_DISK_SCHEDULER_HH
