#include "fleet/pool.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"

namespace dlw
{
namespace fleet
{

namespace
{

/** Scheduler health: how balanced the work-stealing pool runs. */
struct PoolMetrics
{
    obs::Counter &tasks = obs::counter("fleet.pool.tasks", "tasks",
        "fleet", "tasks submitted to the work-stealing pool");
    obs::Counter &steals = obs::counter("fleet.pool.steals", "tasks",
        "fleet",
        "tasks taken from another worker's deque (load imbalance "
        "indicator; varies with thread count by design)");
    obs::Gauge &queue_depth = obs::gauge("fleet.pool.queue_depth",
        "tasks", "fleet", "submitted-but-unfinished tasks right now");
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics *m = new PoolMetrics();
    return *m;
}

} // anonymous namespace

void
registerPoolMetrics()
{
    poolMetrics();
}

ThreadPool::ThreadPool(std::size_t threads)
    : queues_(threads ? threads : 1)
{
    const std::size_t n = queues_.size();
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task, qos::WorkClass lane)
{
    dlw_assert(task, "cannot submit an empty task");
    {
        std::lock_guard<std::mutex> lk(mu_);
        dlw_assert(!stopping_, "submit on a stopping pool");
        queues_[next_queue_][qos::laneOf(lane)].push_back(
            std::move(task));
        next_queue_ = (next_queue_ + 1) % queues_.size();
        ++pending_;
        poolMetrics().tasks.add(1);
        poolMetrics().queue_depth.set(
            static_cast<std::int64_t>(pending_));
        obs::emitInstant("fleet.pool.task");
    }
    work_cv_.notify_one();
}

bool
ThreadPool::take(std::size_t self, std::function<void()> &out)
{
    const std::size_t n = queues_.size();
    // Strict lane priority: exhaust every worker's interactive lane
    // (own first, then steal) before touching any bulk lane, and
    // bulk before background.
    for (std::size_t lane = 0; lane < qos::kWorkClassCount; ++lane) {
        // Own deque, newest first: the task most likely still hot in
        // this worker's cache.
        if (!queues_[self][lane].empty()) {
            out = std::move(queues_[self][lane].back());
            queues_[self][lane].pop_back();
            return true;
        }
        // Steal oldest from the nearest busy victim.
        for (std::size_t d = 1; d < n; ++d) {
            std::size_t victim = (self + d) % n;
            if (!queues_[victim][lane].empty()) {
                out = std::move(queues_[victim][lane].front());
                queues_[victim][lane].pop_front();
                poolMetrics().steals.add(1);
                obs::emitInstant("fleet.pool.steal");
                return true;
            }
        }
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        std::function<void()> task;
        if (take(self, task)) {
            lk.unlock();
            std::exception_ptr err;
            try {
                task();
            } catch (...) {
                err = std::current_exception();
            }
            lk.lock();
            if (err)
                errors_.push_back(err);
            --pending_;
            poolMetrics().queue_depth.set(
                static_cast<std::int64_t>(pending_));
            if (pending_ == 0)
                done_cv_.notify_all();
            continue;
        }
        if (stopping_)
            return;
        work_cv_.wait(lk);
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    if (errors_.empty())
        return;
    std::vector<std::exception_ptr> errors;
    errors.swap(errors_);
    lk.unlock();

    // Rethrowing can only surface one exception; name the others so
    // a multi-failure batch is never mistaken for a single failure.
    if (errors.size() > 1) {
        dlw_warn("suppressing ", errors.size() - 1,
                 " further task exception(s) behind the first");
        for (std::size_t i = 1; i < errors.size(); ++i) {
            try {
                std::rethrow_exception(errors[i]);
            } catch (const std::exception &e) {
                dlw_warn("  suppressed: ", e.what());
            } catch (...) {
                dlw_warn("  suppressed: (non-standard exception)");
            }
        }
    }
    std::rethrow_exception(errors[0]);
}

std::size_t
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); }, qos::WorkClass::kInteractive);
    pool.wait();
}

} // namespace fleet
} // namespace dlw
