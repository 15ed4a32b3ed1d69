#include "disk/drive.hh"

#include <algorithm>
#include <compare>
#include <cstddef>
#include <iterator>
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

std::size_t
responseQuantileIndex(std::size_t n, double q)
{
    dlw_assert(q >= 0.0 && q <= 1.0, "quantile out of range");
    dlw_assert(n > 0, "quantile of empty log");
    return std::min(
        static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5),
        n - 1);
}

/**
 * A tick of the log as an assignable value: selection moves full
 * ticks between chunks, and a chunk that receives a tick of 2^32 or
 * more gains its high words then.
 */
class ResponseTicks::Ref
{
  public:
    Ref(Chunk &chunk, std::size_t i) : chunk_(&chunk), i_(i) {}
    Ref(const Ref &) = default;

    operator Tick() const { return chunk_->get(i_); }

    Ref &
    operator=(Tick t)
    {
        chunk_->set(i_, t);
        return *this;
    }

    Ref &operator=(const Ref &o) { return *this = Tick(o); }

    friend void
    swap(Ref a, Ref b)
    {
        const Tick t = a;
        a = Tick(b);
        b = t;
    }

  private:
    Chunk *chunk_;
    std::size_t i_;
};

/**
 * Random access to the ticks through the chunk table, so
 * std::nth_element selects in the chunks in place.
 */
class ResponseTicks::Iter
{
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Tick;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Ref;

    Iter() = default;
    Iter(Chunk *chunks, difference_type i) : chunks_(chunks), i_(i) {}

    reference operator*() const { return (*this)[0]; }

    reference
    operator[](difference_type d) const
    {
        const auto i = static_cast<std::size_t>(i_ + d);
        return Ref(chunks_[i >> kChunkShift], i & (kChunkTicks - 1));
    }

    Iter &operator++() { return *this += 1; }
    Iter &operator--() { return *this -= 1; }
    Iter operator++(int) { return std::exchange(*this, *this + 1); }
    Iter operator--(int) { return std::exchange(*this, *this - 1); }

    Iter &
    operator+=(difference_type d)
    {
        i_ += d;
        return *this;
    }

    Iter &operator-=(difference_type d) { return *this += -d; }

    friend Iter operator+(Iter it, difference_type d) { return it += d; }
    friend Iter operator+(difference_type d, Iter it) { return it += d; }
    friend Iter operator-(Iter it, difference_type d) { return it -= d; }
    friend difference_type operator-(const Iter &a, const Iter &b)
    {
        return a.i_ - b.i_;
    }
    friend bool operator==(const Iter &a, const Iter &b)
    {
        return a.i_ == b.i_;
    }
    friend auto operator<=>(const Iter &a, const Iter &b)
    {
        return a.i_ <=> b.i_;
    }

  private:
    Chunk *chunks_ = nullptr;
    difference_type i_ = 0;
};

double
ResponseTicks::mean() const
{
    if (n_ == 0)
        return 0.0;
    double s = 0.0;
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
        const Chunk &chunk = chunks_[c];
        const std::size_t len =
            std::min(kChunkTicks, n_ - c * kChunkTicks);
        for (std::size_t i = 0; i < len; ++i)
            s += static_cast<double>(chunk.get(i));
    }
    return s / static_cast<double>(n_);
}

Tick
ResponseTicks::selectQuantile(double q, std::size_t first)
{
    const std::size_t idx = responseQuantileIndex(n_, q);
    dlw_assert(idx >= first, "quantile below the selected partition");
    // Selection puts the element a full sort would hold at idx there.
    const Iter begin(chunks_.data(), 0);
    std::nth_element(begin + static_cast<std::ptrdiff_t>(first),
                     begin + static_cast<std::ptrdiff_t>(idx),
                     begin + static_cast<std::ptrdiff_t>(n_));
    return (*this)[idx];
}

ResponseTicks
ServiceLog::responseTimes() const
{
    ResponseTicks rs;
    for (const Completion &c : completions)
        rs.onCompletion(c);
    return rs;
}

double
ServiceLog::meanResponse() const
{
    return responseTimes().mean();
}

Tick
ServiceLog::responseQuantile(double q) const
{
    return responseTimes().selectQuantile(q);
}

std::vector<Tick>
ServiceLog::idleIntervals() const
{
    std::vector<Tick> gaps;
    forEachIdleInterval([&gaps](Tick gap) { gaps.push_back(gap); });
    return gaps;
}

BusyBins::BusyBins(Tick window_start, Tick window_end, Tick bin_width)
    : busy_(window_start, bin_width)
{
    dlw_assert(bin_width > 0, "bin width must be positive");
    if (window_end > window_start)
        busy_.extendTo(window_end - 1);
}

stats::BinnedSeries
BusyBins::utilization(Tick window_end) &&
{
    const Tick span = window_end - busy_.start();
    const Tick bin_width = busy_.binWidth();
    std::vector<double> v = std::move(busy_).values();
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
    busy_.setValues(std::move(v));
    return std::move(busy_);
}

stats::BinnedSeries
ServiceLog::utilizationSeries(Tick bin_width) const
{
    BusyBins bins(window_start, window_end, bin_width);
    for (const trace::BusyInterval &iv : busy)
        bins.add(iv);
    return std::move(bins).utilization(window_end);
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

        closeBusy();
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
        QueuedRequest qr{pending_, idx};
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
        // A front pick (every FCFS pick) pops in O(1) instead of
        // going through the general erase.
        if (pick == 0)
            queue_.pop_front();
        else
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

        head_cylinder_ = mt.end_cylinder;
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
        head_cylinder_ = mt.end_cylinder;
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
        // back-to-back operations as one interval, and hand each one
        // on only once an operation starts past its end.  So the
        // intervals handed on are disjoint and sorted.
        if (open_busy_ && busy_iv_.second >= from) {
            busy_iv_.second = std::max(busy_iv_.second, to);
        } else {
            closeBusy();
            busy_iv_ = {from, to};
            open_busy_ = true;
        }
        last_busy_end_ = std::max(last_busy_end_, to);
    }

    /** Hand the open busy interval, if any, to the sink or the log. */
    void
    closeBusy()
    {
        if (!open_busy_)
            return;
        open_busy_ = false;
        if (!sink_ || !sink_->onBusyInterval(busy_iv_))
            log_.busy.push_back(busy_iv_);
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
    bool has_pending_ = false;
    std::size_t next_index_ = 0;
    Tick prev_arrival_ = 0;
    std::uint64_t head_cylinder_ = 0;
    bool busy_ = false;
    /** The busy interval still open to coalescing, if open_busy_. */
    trace::BusyInterval busy_iv_{};
    bool open_busy_ = false;
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
