/**
 * @file
 * PrefetchSource: run a RequestSource on its own thread, a bounded
 * number of batches ahead of the consumer.
 *
 * `dlwtool analyze` pays for decode plus the trace-derived fold and
 * for the drive model on every request.  Neither depends on the
 * other's progress, only on the order of the requests, so a producer
 * thread pulls the upstream source (in analyze: the tee that checks
 * and folds each batch) into a small ring of batch slots while the
 * consumer pulls those slots in the same order.  The consumer sees
 * exactly the requests, the order and the end-of-stream status it
 * would see pulling upstream itself; only the timing changes.
 */

#ifndef DLW_CORE_PREFETCH_HH
#define DLW_CORE_PREFETCH_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "trace/batch.hh"
#include "trace/source.hh"

namespace dlw
{
namespace core
{

/**
 * A RequestSource whose batches a producer thread pulls from an
 * upstream source ahead of time.
 *
 * The producer owns `upstream` from construction until it ends: it
 * packs consecutive upstream batches of `batch_requests` into slots
 * of slotCapacity(), so one hand-off moves thousands of requests at
 * any batch size.  Once every slot is full it waits until only
 * kResumeAt are left.  Only the
 * batches upstream let through reach a slot: one it rejected (next()
 * returned false) ends the stream.  After a clean end the producer
 * runs `on_end` while the consumer drains the last slots.
 *
 * The consumer side is not thread-safe: one thread calls next(),
 * status() and join().  Destroying the source cancels the producer
 * and joins it, so a consumer that unwinds mid-stream never leaves
 * it blocked on a full ring.
 */
class PrefetchSource final : public trace::RequestSource
{
  public:
    /** Ring slots the producer may fill ahead of the consumer. */
    static constexpr std::size_t kSlots = 8;

    /**
     * Filled slots left when a producer parked on a full ring
     * resumes.  On `analyze` (4-vCPU KVM guest), waking once per six
     * slots instead of once per slot cut the producer's CPU by 3 %.
     */
    static constexpr std::size_t kResumeAt = 2;

    /**
     * Capacity of one slot for upstream batches of `batch_requests`:
     * the largest multiple of it not above kDefaultBatchRequests,
     * or `batch_requests` itself when that is larger.
     */
    static std::size_t slotCapacity(std::size_t batch_requests);

    /**
     * Start the producer.  `upstream` must outlive this source, and
     * its metadata (driveId(), start(), duration()) must not change
     * while the producer runs.
     *
     * @param on_end Run on the producer thread once upstream has
     *               ended with an OK status (not after a cancel).
     */
    PrefetchSource(trace::RequestSource &upstream,
                   std::size_t batch_requests,
                   std::function<void()> on_end = {});

    /** Cancel the producer (if still running) and join it. */
    ~PrefetchSource() override;

    PrefetchSource(const PrefetchSource &) = delete;
    PrefetchSource &operator=(const PrefetchSource &) = delete;

    const std::string &driveId() const override
    {
        return upstream_.driveId();
    }

    Tick start() const override { return upstream_.start(); }

    Tick duration() const override { return upstream_.duration(); }

    /** Capacity every slot, and every batch next() takes, has. */
    std::size_t slotCapacity() const { return slot_capacity_; }

    /**
     * Hand the next filled slot to `batch` by swapping storage, so
     * `batch` must have slotCapacity().  Blocks while the producer
     * is behind.
     *
     * @return False at end-of-stream.  Rethrows an exception the
     *         producer caught from upstream, once the slots before it
     *         are drained.
     */
    bool next(trace::RequestBatch &batch) override;

    /** Upstream's status; final once next() has returned false. */
    Status status() const override { return upstream_.status(); }

    /**
     * Wait for the producer, `on_end` included.  Rethrows an
     * exception the producer caught.
     */
    void join();

  private:
    void produce();
    bool fill(trace::RequestBatch &slot);

    trace::RequestSource &upstream_;
    const std::size_t slot_capacity_;
    std::function<void()> on_end_;
    /** Upstream-sized staging batch; empty when slots are that size. */
    std::optional<trace::RequestBatch> stage_;
    std::vector<trace::RequestBatch> slots_;

    std::mutex mu_;
    std::condition_variable ready_; ///< a slot filled, or the end
    std::condition_variable space_; ///< a slot freed, or a cancel
    std::size_t head_ = 0;          ///< slots filled so far
    std::size_t tail_ = 0;          ///< slots handed over so far
    bool ended_ = false;            ///< upstream ended; head_ is final
    bool cancel_ = false;
    std::exception_ptr error_;
    std::thread producer_;
};

} // namespace core
} // namespace dlw

#endif // DLW_CORE_PREFETCH_HH
