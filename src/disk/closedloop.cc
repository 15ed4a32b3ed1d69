#include "disk/closedloop.hh"

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

namespace
{

/**
 * The closed-loop engine: N clients, one mechanical server with the
 * same cache/scheduler semantics as the trace-driven engine.
 *
 * Every client has a submission or a completion outstanding, so
 * events live in a heap ordered by (tick, priority, schedule order);
 * the mechanism becoming free outranks everything else on its tick.
 */
class Loop
{
  public:
    Loop(const DriveConfig &drive, const RequestFactory &factory,
         const ClosedLoopConfig &config)
        : drive_(drive),
          model_(drive.geometry, drive.seek),
          cache_(drive.cache),
          sched_(drive.sched),
          factory_(factory),
          config_(config),
          rng_(config.seed)
    {
        dlw_assert(config.clients >= 1, "need at least one client");
        dlw_assert(config.mean_think >= 0, "negative think time");
        dlw_assert(config.duration > 0, "duration must be positive");
        dlw_assert(factory_, "null request factory");
    }

    ClosedLoopResult
    run()
    {
        for (std::size_t c = 0; c < config_.clients; ++c)
            scheduleThink(0);
        // Events at exactly the duration still run.
        while (!events_.empty() &&
               events_.top().when <= config_.duration) {
            const Event e = events_.top();
            events_.pop();
            switch (e.kind) {
              case Kind::Submit:
                submit(e.when);
                break;
              case Kind::Served:
                finish(e.arrival, e.when);
                break;
              case Kind::Free:
                busy_ = false;
                startNext(e.when);
                break;
            }
        }

        ClosedLoopResult res;
        res.completed = completed_;
        res.throughput = static_cast<double>(completed_) /
                         ticksToSeconds(config_.duration);
        res.mean_response = completed_
            ? response_sum_ /
                  static_cast<double>(completed_)
            : 0.0;
        res.utilization =
            static_cast<double>(std::min(busy_time_,
                                         config_.duration)) /
            static_cast<double>(config_.duration);
        res.cache_hits = cache_hits_;
        return res;
    }

  private:
    enum class Kind
    {
        /** A client submits its next request. */
        Submit,
        /** A mechanically served request completes. */
        Served,
        /** The mechanism finishes an access or destage. */
        Free,
    };

    struct Event
    {
        Tick when;
        /** 0 for Kind::Free, which fires first on its tick. */
        int prio;
        std::uint64_t seq;
        Kind kind;
        /** Arrival tick of the request a Served event completes. */
        Tick arrival;

        bool
        operator>(const Event &o) const
        {
            return std::tie(when, prio, seq) >
                   std::tie(o.when, o.prio, o.seq);
        }
    };

    void
    schedule(Kind kind, Tick when, Tick arrival = 0)
    {
        events_.push(Event{when, kind == Kind::Free ? 0 : 1, next_seq_++,
                           kind, arrival});
    }

    void
    scheduleThink(Tick now)
    {
        const Tick think = config_.mean_think > 0
            ? static_cast<Tick>(rng_.exponential(
                  static_cast<double>(config_.mean_think)) + 0.5)
            : 0;
        schedule(Kind::Submit, now + think);
    }

    void
    submit(Tick now)
    {
        trace::Request r = factory_(rng_);
        r.arrival = now;

        // Cache-served requests complete immediately; the client
        // thinks again.
        if (r.isRead() && cache_.readHit(r.lba, r.blocks)) {
            ++cache_hits_;
            finish(now, now + drive_.overhead);
            return;
        }
        if (r.isWrite() && cache_.canBuffer(r.blocks)) {
            cache_.bufferWrite(r.lba, r.blocks);
            ++cache_hits_;
            finish(now, now + drive_.overhead);
            // Destage opportunistically while the clients think.
            if (!busy_)
                startNext(now);
            return;
        }

        queue_.push_back(QueuedRequest{r, next_index_++});
        if (!busy_)
            startNext(now);
    }

    void
    startNext(Tick now)
    {
        if (queue_.empty()) {
            // Opportunistic destage while every client thinks.
            if (cache_.dirty()) {
                const DirtyExtent e = cache_.popDestage();
                const MechanicalTime mt = model_.access(
                    now, head_cylinder_, e.lba, e.blocks);
                occupy(now, now + mt.total(), mt.end_cylinder);
            }
            return;
        }
        const std::size_t pick =
            sched_.pick(queue_, head_cylinder_, drive_.geometry);
        QueuedRequest qr = queue_[pick];
        // A front pick (every FCFS pick) pops in O(1) instead of
        // going through the general erase.
        if (pick == 0)
            queue_.pop_front();
        else
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(pick));

        const MechanicalTime mt =
            model_.access(now + drive_.overhead, head_cylinder_,
                          qr.req.lba, qr.req.blocks);
        const Tick end = now + drive_.overhead + mt.total();
        if (qr.req.isRead())
            cache_.installReadSegment(qr.req.lba, qr.req.blocks);
        occupy(now, end, mt.end_cylinder);
        schedule(Kind::Served, end, qr.req.arrival);
    }

    /** Mark the mechanism busy for [from, to), leaving the head at
     *  end_cylinder. */
    void
    occupy(Tick from, Tick to, std::uint64_t end_cylinder)
    {
        busy_ = true;
        busy_time_ += to - from;
        head_cylinder_ = end_cylinder;
        schedule(Kind::Free, to);
    }

    /** Account a completion and restart the client. */
    void
    finish(Tick arrival, Tick end)
    {
        ++completed_;
        response_sum_ += ticksToSeconds(end - arrival);
        scheduleThink(end);
    }

    const DriveConfig &drive_;
    DiskModel model_;
    DiskCache cache_;
    Scheduler sched_;
    const RequestFactory &factory_;
    ClosedLoopConfig config_;
    Rng rng_;

    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        events_;
    std::uint64_t next_seq_ = 0;
    RequestQueue queue_;
    std::size_t next_index_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t cache_hits_ = 0;
    double response_sum_ = 0.0;
    Tick busy_time_ = 0;
    std::uint64_t head_cylinder_ = 0;
    bool busy_ = false;
};

} // anonymous namespace

ClosedLoopResult
runClosedLoop(const DriveConfig &drive, const RequestFactory &factory,
              const ClosedLoopConfig &config)
{
    Loop loop(drive, factory, config);
    return loop.run();
}

} // namespace disk
} // namespace dlw
