/**
 * @file
 * Timeline tracing: a lock-free, per-thread, fixed-capacity
 * ring-buffer event recorder (a "flight recorder") and its Chrome
 * trace_event JSON exporter.
 *
 * The metrics registry (obs/metrics.hh) answers "how much / how
 * often"; the timeline answers *when*.  The paper's central claim —
 * the same drive looks bursty at milliseconds and placid at hours —
 * is a statement about time structure, and the pipeline has the same
 * property: aggregate counters cannot show a shard stalling behind a
 * slow sibling, a retry storm, or a queue backing up.  The timeline
 * records discrete events on a shared clock so those moments are
 * visible in a trace viewer.
 *
 * Event kinds:
 *
 *  - begin/end  duration events; ScopedSpan emits them automatically
 *               when the timeline is armed, so every instrumented
 *               pipeline stage shows up with no call-site changes
 *  - instant    point events (task submitted, task stolen, retry,
 *               backoff, batch decoded)
 *  - counter    sampled value tracks (queue depth, peak batch bytes,
 *               process RSS) — rendered as counter plots
 *
 * Cost discipline matches the registry: while disarmed every emit is
 * one relaxed atomic load that short-circuits.  While armed, an emit
 * is a clock read plus a store into this thread's own ring buffer —
 * no locks, no allocation, no sharing; when the ring is full the
 * oldest event is overwritten (flight-recorder semantics), so memory
 * is bounded no matter how long the run.
 *
 * Event names must be string literals (or interned via
 * internTimelineName); the recorder stores the pointer, never the
 * bytes.  Instant/counter names are linted against docs/METRICS.md
 * by scripts/check_metrics_docs.sh, like metric names — keep the
 * name literal on the same line as the obs::emitInstant( /
 * obs::emitCounter( call.
 *
 * Snapshots are precise once writers have quiesced (what dlwtool
 * does: export happens after the command returns).  Snapshotting
 * while other threads still emit is also safe AND coherent: slots
 * are field-atomic and the reader discards anything the producer
 * may have lapped mid-copy, so a live snapshot (GET /v1/timeline on
 * a running daemon) returns only events that were really recorded —
 * it may just miss the very newest ones.  Only the async-signal
 * crash-dump path (timeline_export.hh) keeps the weaker bargain of
 * possibly mixing fields from two events — a mostly-right trace of
 * a crashing process beats no trace.
 */

#ifndef DLW_OBS_TIMELINE_HH
#define DLW_OBS_TIMELINE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dlw
{
namespace obs
{

/** What one timeline event marks. */
enum class TimelineEventKind : std::uint8_t
{
    kBegin,   ///< duration start ("B")
    kEnd,     ///< duration end ("E")
    kInstant, ///< point event ("i")
    kCounter, ///< counter-track sample ("C")
};

/**
 * One recorded event.  32 bytes; name points at a string literal or
 * an interned string, never owned.
 */
struct TimelineEvent
{
    const char *name = "";
    double value = 0.0;     ///< counter sample (kCounter only)
    std::uint64_t ts_ns = 0; ///< nanoseconds since the timeline epoch
    std::uint32_t tid = 0;   ///< dense per-thread id (0 = first seen)
    TimelineEventKind kind = TimelineEventKind::kInstant;
};

namespace detail
{

extern std::atomic<int> g_timeline_armed;

/** True while the timeline records (one relaxed load). */
inline bool
timelineArmed()
{
    return g_timeline_armed.load(std::memory_order_relaxed) != 0;
}

/** Armed slow path: stamp the clock and write this thread's ring. */
void timelineEmit(const char *name, TimelineEventKind kind,
                  double value);

} // namespace detail

/** Default per-thread ring capacity (events). */
constexpr std::size_t kDefaultTimelineCapacity = std::size_t(1) << 16;

/**
 * Arm the recorder.  Rings are created lazily, per thread, with
 * `events_per_thread` slots; threads whose ring already exists keep
 * their original capacity.  Nestable like obs::enable().
 */
void enableTimeline(
    std::size_t events_per_thread = kDefaultTimelineCapacity);

/** Detach one sink; recording stops when the last one detaches. */
void disableTimeline();

/** True while at least one timeline sink is attached. */
bool timelineEnabled();

/** Record an instant event (no-op while disarmed). */
inline void
emitInstant(const char *name)
{
    if (!detail::timelineArmed())
        return;
    detail::timelineEmit(name, TimelineEventKind::kInstant, 0.0);
}

/** Record a counter-track sample (no-op while disarmed). */
inline void
emitCounter(const char *name, double value)
{
    if (!detail::timelineArmed())
        return;
    detail::timelineEmit(name, TimelineEventKind::kCounter, value);
}

/** Record a duration-begin event (no-op while disarmed). */
inline void
emitBegin(const char *name)
{
    if (!detail::timelineArmed())
        return;
    detail::timelineEmit(name, TimelineEventKind::kBegin, 0.0);
}

/** Record a duration-end event (no-op while disarmed). */
inline void
emitEnd(const char *name)
{
    if (!detail::timelineArmed())
        return;
    detail::timelineEmit(name, TimelineEventKind::kEnd, 0.0);
}

/**
 * Copy a dynamically-built name into process-lifetime storage so it
 * can be used as a TimelineEvent name.  Interns: the same string
 * always returns the same pointer.
 */
const char *internTimelineName(const std::string &name);

/**
 * The single-producer ring at the recorder's core, exposed for
 * direct use in tests.  Exactly one thread may push; any thread may
 * snapshot at any time — including while the producer is mid-storm,
 * which is what GET /v1/timeline does against a live daemon.
 *
 * Concurrency contract: slots are stored as relaxed atomics (so a
 * racing reader never tears a field) and snapshotInto() re-reads the
 * head after copying, discarding any slot the producer may have
 * lapped during the copy.  Every event a snapshot returns is
 * therefore a coherent event that was really pushed; a snapshot
 * taken while the producer wraps may just return fewer of them.
 * Once the producer quiesces, snapshots are exact.
 */
class TimelineRing
{
  public:
    TimelineRing(std::size_t capacity, std::uint32_t tid);

    /** Overwrites the oldest event once the ring is full. */
    void push(const char *name, TimelineEventKind kind, double value,
              std::uint64_t ts_ns);

    /** Oldest-first copy of the retained events. */
    void snapshotInto(std::vector<TimelineEvent> &out) const;

    /** Events pushed in total (>= retained). */
    std::uint64_t pushed() const
    {
        return head_.load(std::memory_order_acquire);
    }

    /** Events lost to overwriting. */
    std::uint64_t dropped() const;

    std::size_t capacity() const { return slots_.size(); }
    std::uint32_t tid() const { return tid_; }

    /** Forget everything (producer must be quiescent). */
    void clear() { head_.store(0, std::memory_order_release); }

    /**
     * Raw slot read by absolute push index (crash-dump path; a slot
     * the producer is concurrently overwriting may mix fields from
     * two events, but each field is a value some push really wrote).
     */
    TimelineEvent eventAt(std::uint64_t i) const
    {
        const Slot &s = slots_[i % slots_.size()];
        TimelineEvent e;
        e.name = s.name.load(std::memory_order_relaxed);
        e.value = s.value.load(std::memory_order_relaxed);
        e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
        e.tid = s.tid.load(std::memory_order_relaxed);
        e.kind = static_cast<TimelineEventKind>(
            s.kind.load(std::memory_order_relaxed));
        return e;
    }

  private:
    /**
     * One event, stored field-atomic so a reader racing the producer
     * reads whole fields, never torn bytes.  All accesses relaxed;
     * the head_ release/acquire pair orders slot contents against
     * the indices a reader trusts.
     */
    struct Slot
    {
        std::atomic<const char *> name{""};
        std::atomic<double> value{0.0};
        std::atomic<std::uint64_t> ts_ns{0};
        std::atomic<std::uint32_t> tid{0};
        std::atomic<std::uint8_t> kind{0};
    };

    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> head_{0}; ///< total events ever pushed
    std::uint32_t tid_;
};

/**
 * One consistent read of every thread's ring.
 */
struct TimelineSnapshot
{
    /** All retained events, ascending by ts_ns (ties keep tid order). */
    std::vector<TimelineEvent> events;
    std::uint64_t dropped = 0; ///< events lost to ring wraparound
    std::uint32_t threads = 0; ///< rings that recorded at least once
};

/** Snapshot every ring (precise once writers quiesce). */
TimelineSnapshot timelineSnapshot();

/**
 * Nanoseconds since the timeline epoch — the same clock every
 * recorded event's ts_ns uses.  This is what a server echoes in its
 * stream ack and what a client samples at ack receipt: subtracting
 * the two gives the offset that reprojects one side's spans onto the
 * other's timeline.  Before the first enableTimeline() the epoch is
 * the steady-clock zero, so the value degrades to raw monotonic ns.
 */
std::uint64_t timelineNowNs();

/** Discard all recorded events; rings and thread ids survive. */
void resetTimeline();

namespace detail
{

/**
 * Unlocked ring-registry access for the async-signal-safe crash
 * dump (timeline_export.cc).  Best-effort by design: no mutex, so a
 * ring registered at this very instant may be missed.
 */
std::size_t timelineRingCount();
const TimelineRing *timelineRingAt(std::size_t i);

} // namespace detail

} // namespace obs
} // namespace dlw

#endif // DLW_OBS_TIMELINE_HH
