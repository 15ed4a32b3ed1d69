#include "disk/drive.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

DriveConfig
DriveConfig::makeEnterprise()
{
    DiskGeometry geom = DiskGeometry::makeEnterprise();
    SeekModel seek = SeekModel::makeEnterprise(geom.cylinders());
    return DriveConfig{std::move(geom), seek, CacheConfig{},
                       SchedPolicy::Fcfs, 100 * kUsec, 20 * kMsec};
}

DriveConfig
DriveConfig::makeNearline()
{
    DiskGeometry geom = DiskGeometry::makeNearline();
    SeekModel seek = SeekModel::makeNearline(geom.cylinders());
    return DriveConfig{std::move(geom), seek, CacheConfig{},
                       SchedPolicy::Fcfs, 100 * kUsec, 20 * kMsec};
}

Tick
ServiceLog::busyTime() const
{
    Tick t = 0;
    for (const trace::BusyInterval &iv : busy)
        t += iv.second - iv.first;
    return t;
}

double
ServiceLog::utilization() const
{
    const Tick span = window_end - window_start;
    if (span <= 0)
        return 0.0;
    return static_cast<double>(busyTime()) / static_cast<double>(span);
}

double
ServiceLog::meanResponse() const
{
    if (completions.empty())
        return 0.0;
    double s = 0.0;
    for (const Completion &c : completions)
        s += static_cast<double>(c.response());
    return s / static_cast<double>(completions.size());
}

Tick
ServiceLog::responseQuantile(double q) const
{
    dlw_assert(q >= 0.0 && q <= 1.0, "quantile out of range");
    dlw_assert(!completions.empty(), "quantile of empty log");
    std::vector<Tick> rs;
    rs.reserve(completions.size());
    for (const Completion &c : completions)
        rs.push_back(c.response());
    std::sort(rs.begin(), rs.end());
    auto idx = static_cast<std::size_t>(
        q * static_cast<double>(rs.size() - 1) + 0.5);
    return rs[std::min(idx, rs.size() - 1)];
}

std::vector<Tick>
ServiceLog::idleIntervals() const
{
    std::vector<Tick> gaps;
    Tick at = window_start;
    for (const trace::BusyInterval &iv : busy) {
        if (iv.first > at)
            gaps.push_back(iv.first - at);
        at = std::max(at, iv.second);
    }
    if (window_end > at)
        gaps.push_back(window_end - at);
    return gaps;
}

stats::BinnedSeries
ServiceLog::busySeries(Tick bin_width) const
{
    const Tick span = window_end - window_start;
    auto bins = static_cast<std::size_t>(
        span > 0 ? (span + bin_width - 1) / bin_width : 0);
    stats::BinnedSeries s(window_start, bin_width, bins);
    for (const trace::BusyInterval &iv : busy) {
        s.accumulateInterval(iv.first, iv.second,
                             static_cast<double>(iv.second - iv.first));
    }
    return s;
}

stats::BinnedSeries
ServiceLog::utilizationSeries(Tick bin_width) const
{
    stats::BinnedSeries s = busySeries(bin_width);
    std::vector<double> v = s.values();
    const Tick span = window_end - window_start;
    if (v.size() > 1 && span % bin_width != 0) {
        // A trailing partial bin observes only a sliver of time and
        // would distort the distribution either way it is
        // normalized; drop it, as every windowed estimator here does.
        v.pop_back();
    }
    const Tick divisor =
        v.size() == 1 ? std::min(bin_width, span) : bin_width;
    for (double &x : v)
        x /= static_cast<double>(std::max<Tick>(divisor, 1));
    s.setValues(std::move(v));
    return s;
}

namespace
{

/**
 * Pulls one request at a time off a batch stream.  The engine's event
 * loop wants single-request lookahead (the next arrival is scheduled
 * while the current one is processed); this adapter hides the batch
 * boundary so only one RequestBatch is ever resident.
 */
class BatchCursor
{
  public:
    BatchCursor(trace::RequestSource &src, std::size_t batch_requests)
        : src_(src), batch_(batch_requests)
    {
    }

    /** Copy the next request into `out`; false at end-of-stream. */
    bool
    next(trace::Request &out)
    {
        if (pos_ >= batch_.size()) {
            if (!src_.next(batch_))
                return false;
            pos_ = 0;
        }
        out = batch_.get(pos_++);
        return true;
    }

    /** Tag of the batch the last next() was served from. */
    const qos::TagId &tag() const { return batch_.tag(); }

  private:
    trace::RequestSource &src_;
    trace::RequestBatch batch_;
    std::size_t pos_ = 0;
};

/**
 * The running engine: a single drive state machine.  Kept out of the
 * header; DiskDrive::service() owns one per call, so the drive object
 * itself stays reusable and stateless.
 *
 * The engine consumes its input strictly in arrival order with
 * one-request lookahead, so it runs off a RequestSource cursor: the
 * pending request is copied out, the next one is pulled when (and
 * only when) the pending one arrives.
 *
 * At most two events are ever outstanding: the next arrival (the
 * pending request) and one mechanism event — service done, destage
 * done, or the destage timer, which is armed only while the drive is
 * idle and which the next arrival disarms.  At equal ticks the
 * arrival fires first, so the loop needs no queue: it fires whichever
 * of the two is due first.
 */
class Engine
{
  public:
    Engine(const DriveConfig &config, trace::RequestSource &src,
           CompletionSink *sink, std::size_t batch_requests)
        : config_(config),
          model_(config.geometry, config.seek),
          cache_(config.cache),
          sched_(config.sched),
          cursor_(src, batch_requests),
          sink_(sink)
    {
        log_.window_start = src.start();
        log_.window_end = src.end();
        prev_arrival_ = log_.window_start;
    }

    ServiceLog
    run()
    {
        pullNext();
        while (has_pending_ || mech_ != Mech::None) {
            if (has_pending_ &&
                (mech_ == Mech::None || pending_.arrival <= mech_at_)) {
                onArrival(pending_.arrival);
            } else {
                fire(std::exchange(mech_, Mech::None), mech_at_);
            }
        }
        // The loop ends only when every request completed and the
        // write buffer was destaged.
        dlw_assert(queue_.empty(), "engine finished with queued work");
        dlw_assert(!cache_.dirty(), "engine finished with dirty data");

        finalizeBusy();
        log_.window_end = std::max(log_.window_end, last_busy_end_);
        return std::move(log_);
    }

  private:
    /** The one mechanism event that may be outstanding. */
    enum class Mech
    {
        None,
        ServiceDone,
        DestageDone,
        DestageTimer,
    };

    void
    arm(Mech kind, Tick when)
    {
        dlw_assert(mech_ == Mech::None, "mechanism event already armed");
        mech_ = kind;
        mech_at_ = when;
    }

    /** Run the mechanism event `kind`, due at `now`. */
    void
    fire(Mech kind, Tick now)
    {
        if (kind == Mech::DestageTimer) {
            startDestage(now);
            return;
        }
        busy_ = false;
        // Once destaging has begun, drain the buffer back to back
        // unless foreground work arrived meanwhile; this consolidates
        // background activity and preserves the long idle stretches
        // the drive would otherwise see.
        if (kind == Mech::DestageDone && queue_.empty() && cache_.dirty())
            startDestage(now);
        else
            startNext(now);
    }

    void
    pullNext()
    {
        has_pending_ = cursor_.next(pending_);
        if (!has_pending_)
            return;
        // Capture the tag with the request: the cursor may cross a
        // batch boundary before this request reaches the queue.
        pending_tag_ = cursor_.tag();
        // Incremental form of MsTrace::validate(): the stream never
        // exists as a whole, so the invariants are checked as it is
        // consumed.
        dlw_assert(pending_.blocks > 0, "request with zero blocks");
        dlw_assert(pending_.arrival >= prev_arrival_,
                   "arrivals not sorted");
        dlw_assert(pending_.arrival >= log_.window_start &&
                       pending_.arrival < log_.window_end,
                   "arrival outside observation window");
        prev_arrival_ = pending_.arrival;
    }

    void
    onArrival(Tick now)
    {
        const std::size_t idx = next_index_++;
        QueuedRequest qr{pending_, idx, pending_tag_};
        pullNext();

        // Foreground work defers background destaging.
        if (mech_ == Mech::DestageTimer)
            mech_ = Mech::None;

        // Cache-served requests never touch the mechanism and
        // complete immediately, even while it is busy.
        if (qr.req.isRead() &&
            cache_.readHit(qr.req.lba, qr.req.blocks)) {
            complete(qr, now, now + config_.overhead, true);
            ++log_.read_hits;
        } else if (qr.req.isWrite() &&
                   cache_.canBuffer(qr.req.blocks)) {
            cache_.bufferWrite(qr.req.lba, qr.req.blocks);
            complete(qr, now, now + config_.overhead, true);
            ++log_.buffered_writes;
        } else {
            queue_.push_back(qr);
        }

        if (!busy_)
            startNext(now);
    }

    void
    startNext(Tick now)
    {
        dlw_assert(!busy_, "startNext while busy");
        if (queue_.empty()) {
            onIdle(now);
            return;
        }

        // Serve cache hits immediately, in arrival order, without
        // occupying the mechanism.
        while (!queue_.empty()) {
            QueuedRequest &qr = queue_.front();
            if (qr.req.isRead() &&
                cache_.readHit(qr.req.lba, qr.req.blocks)) {
                complete(qr, now, now + config_.overhead, true);
                ++log_.read_hits;
                queue_.pop_front();
                continue;
            }
            if (qr.req.isWrite() && cache_.canBuffer(qr.req.blocks)) {
                cache_.bufferWrite(qr.req.lba, qr.req.blocks);
                complete(qr, now, now + config_.overhead, true);
                ++log_.buffered_writes;
                queue_.pop_front();
                continue;
            }
            break;
        }
        if (queue_.empty()) {
            onIdle(now);
            return;
        }

        // A mechanical access: pick by policy, compute its time.
        const std::size_t pick =
            sched_.pick(queue_, head_cylinder_, config_.geometry);
        QueuedRequest qr = queue_[pick];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(pick));

        const MechanicalTime mt = model_.access(
            now + config_.overhead, head_cylinder_, qr.req.lba,
            qr.req.blocks);
        const Tick finish = now + config_.overhead + mt.total();

        if (qr.req.isRead())
            cache_.installReadSegment(qr.req.lba, qr.req.blocks);
        else
            ++log_.write_through;

        head_cylinder_ = model_.endCylinder(qr.req.lba, qr.req.blocks);
        addBusy(now, finish);
        busy_ = true;
        complete(qr, now, finish, false);
        arm(Mech::ServiceDone, finish);
    }

    void
    onIdle(Tick now)
    {
        if (!cache_.dirty())
            return;
        // After the last arrival there is nothing to wait for; drain
        // immediately so the run terminates.
        const bool draining = !has_pending_;
        const Tick wait = draining ? 0 : config_.destage_idle_wait;
        arm(Mech::DestageTimer, now + wait);
    }

    void
    startDestage(Tick now)
    {
        // The timer is armed only while idle and dirty, and the next
        // arrival disarms it, so nothing can have changed since.
        dlw_assert(!busy_ && cache_.dirty(),
                   "destage on a busy or clean drive");
        dlw_assert(queue_.empty(), "destage started with queued work");

        const DirtyExtent e = cache_.popDestage();
        const MechanicalTime mt =
            model_.access(now, head_cylinder_, e.lba, e.blocks);
        const Tick finish = now + mt.total();
        head_cylinder_ = model_.endCylinder(e.lba, e.blocks);
        addBusy(now, finish);
        busy_ = true;
        ++log_.destages;
        arm(Mech::DestageDone, finish);
    }

    void
    complete(const QueuedRequest &qr, Tick start, Tick finish,
             bool hit)
    {
        Completion c;
        c.index = qr.index;
        c.arrival = qr.req.arrival;
        c.start = start;
        c.finish = finish;
        c.read = qr.req.isRead();
        c.cache_hit = hit;
        c.tag = qr.tag;
        if (sink_)
            sink_->onCompletion(c);
        else
            log_.completions.push_back(c);
    }

    void
    addBusy(Tick from, Tick to)
    {
        if (to <= from)
            return;
        // Busy intervals are produced in time order; coalesce
        // back-to-back operations as one interval.
        if (!log_.busy.empty() && log_.busy.back().second >= from)
            log_.busy.back().second = std::max(log_.busy.back().second, to);
        else
            log_.busy.emplace_back(from, to);
        last_busy_end_ = std::max(last_busy_end_, to);
    }

    void
    finalizeBusy()
    {
        // addBusy keeps the list sorted and merged already; assert it.
        for (std::size_t i = 1; i < log_.busy.size(); ++i) {
            dlw_assert(log_.busy[i].first > log_.busy[i - 1].second,
                       "busy intervals not disjoint");
        }
    }

    const DriveConfig &config_;
    DiskModel model_;
    DiskCache cache_;
    Scheduler sched_;
    BatchCursor cursor_;
    CompletionSink *sink_;

    ServiceLog log_;
    RequestQueue queue_;
    trace::Request pending_{};
    qos::TagId pending_tag_;
    bool has_pending_ = false;
    std::size_t next_index_ = 0;
    Tick prev_arrival_ = 0;
    std::uint64_t head_cylinder_ = 0;
    bool busy_ = false;
    Tick last_busy_end_ = 0;
    Mech mech_ = Mech::None;
    Tick mech_at_ = 0;
};

} // anonymous namespace

DiskDrive::DiskDrive(DriveConfig config)
    : config_(std::move(config))
{
}

ServiceLog
DiskDrive::service(const trace::MsTrace &tr)
{
    dlw_assert(tr.validate(), "input trace failed validation");
    trace::MsTraceSource src(tr);
    return service(src);
}

ServiceLog
DiskDrive::service(trace::RequestSource &src, CompletionSink *sink,
                   std::size_t batch_requests)
{
    Engine engine(config_, src, sink, batch_requests);
    ServiceLog log = engine.run();
    // A source that dies mid-stream looks like a clean end to the
    // cursor; surface the failure instead of a silently short log.
    const Status st = src.status();
    if (!st.ok())
        throw StatusError(st);
    return log;
}

} // namespace disk
} // namespace dlw
