/**
 * @file
 * Work-stealing thread pool for fleet-scale characterization.
 *
 * The fleet engine's unit of work is one whole drive (generate,
 * service, characterize), so tasks are milliseconds to seconds long
 * and scheduling overhead is negligible next to task cost.  The pool
 * therefore uses the classic work-stealing shape — one deque per
 * worker, owner pops newest (LIFO, cache-warm), idle thieves take
 * oldest (FIFO, the largest remaining chunk) — under a single lock,
 * which keeps the scheduler trivially race-free for ThreadSanitizer
 * while still balancing uneven per-drive costs (a Streamer-class
 * drive can cost 10x an Archival one).
 *
 * Determinism contract: the pool makes NO ordering promises.  Fleet
 * results are deterministic anyway because every task writes only its
 * own pre-allocated slot and the reduction over slots happens
 * serially, in index order, after wait() returns.
 *
 * Priority lanes: each worker owns one deque per workload class
 * (interactive / bulk / background).  A worker looking for work scans
 * the lanes in priority order across ALL deques — it will steal a
 * remote interactive task before touching its own bulk backlog — so
 * interactive work preempts bulk at dispatch time without any task
 * ever being interrupted.
 */

#ifndef DLW_FLEET_POOL_HH
#define DLW_FLEET_POOL_HH

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "qos/tag.hh"

namespace dlw
{
namespace fleet
{

/**
 * Fixed-size pool of workers with per-worker stealable deques.
 */
class ThreadPool
{
  public:
    /**
     * Start the workers.
     *
     * @param threads Worker count; 0 is clamped to 1.
     */
    explicit ThreadPool(std::size_t threads);

    /** Drains nothing: joins workers after cancelling idle waits. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue one task in the lane of workload class `lane`.
     *
     * Tasks are distributed round-robin across the worker deques.
     * Dispatch priority is strict: no worker starts a bulk task
     * while any interactive task is queued anywhere, and no
     * background task while any bulk task is queued.  A task that
     * throws does not poison the pool: the remaining tasks still
     * run, and every exception is captured until the next wait().
     */
    void submit(std::function<void()> task, qos::WorkClass lane);

    /**
     * Block until every submitted task has finished.
     *
     * If any task threw, rethrows the first captured exception
     * (after all tasks have drained), leaving the pool reusable.
     * Exceptions beyond the first are not silently dropped: each
     * suppressed one is logged with its message before the rethrow.
     */
    void wait();

    /** Number of worker threads. */
    std::size_t threadCount() const { return workers_.size(); }

    /** Tasks submitted but not yet finished (introspection). */
    std::size_t queueDepth() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return pending_;
    }

    /** Hardware concurrency with a sane floor of 1. */
    static std::size_t hardwareThreads();

  private:
    /** One worker's deques, one per priority lane. */
    using LaneDeques =
        std::array<std::deque<std::function<void()>>,
                   qos::kWorkClassCount>;

    /**
     * Take a task for worker `self`: scan lanes in priority order;
     * within a lane, own back (LIFO) first, then steal fronts.
     */
    bool take(std::size_t self, std::function<void()> &out);

    void workerLoop(std::size_t self);

    std::vector<LaneDeques> queues_;
    std::vector<std::thread> workers_;

    mutable std::mutex mu_; ///< guards queues_ and all state below
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::size_t next_queue_ = 0; ///< round-robin submission cursor
    std::size_t pending_ = 0;    ///< submitted but not yet finished
    bool stopping_ = false;
    std::vector<std::exception_ptr> errors_; ///< every task exception
};

/**
 * Run fn(i) for every i in [0, n) on the pool and wait.
 *
 * Convenience wrapper over submit()/wait(); rethrows the first task
 * exception.  All n tasks land in the interactive lane.
 */
void parallelFor(ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * Force-register the fleet.pool.* metrics (tasks, steals, queue
 * depth) so snapshots cover the scheduler schema before any pool
 * runs.  Steal counts are scheduling-dependent by design — they are
 * the one fleet counter that legitimately varies with thread count.
 */
void registerPoolMetrics();

} // namespace fleet
} // namespace dlw

#endif // DLW_FLEET_POOL_HH
