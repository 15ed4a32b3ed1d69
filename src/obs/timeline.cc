#include "obs/timeline.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>

#include "common/logging.hh"

namespace dlw
{
namespace obs
{

namespace detail
{

std::atomic<int> g_timeline_armed{0};

} // namespace detail

namespace
{

/**
 * Ring registry.  Rings are created once per thread, owned forever
 * (threads come and go; their history must survive for the dump),
 * and found lock-free on the hot path through a thread_local cache.
 * The mutex guards only registration and snapshotting.
 */
struct TimelineState
{
    std::mutex mu;
    std::vector<std::unique_ptr<TimelineRing>> rings;
    std::size_t capacity = kDefaultTimelineCapacity;
    /** Epoch every ts_ns is relative to; fixed at first arm. */
    std::chrono::steady_clock::time_point epoch{};
    bool epoch_set = false;
};

TimelineState &
state()
{
    static TimelineState *s = new TimelineState();
    return *s;
}

/**
 * Lock-free shadow of the ring registry for the crash-dump path,
 * which cannot touch the mutex.  Fixed capacity: threads beyond
 * kMaxCrashRings still record, they just don't appear in a crash
 * dump.
 */
constexpr std::size_t kMaxCrashRings = 512;
std::atomic<TimelineRing *> g_ring_table[kMaxCrashRings] = {};
std::atomic<std::size_t> g_ring_count{0};

thread_local TimelineRing *t_ring = nullptr;

std::uint64_t
nowNs()
{
    TimelineState &s = state();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - s.epoch)
            .count());
}

TimelineRing &
ringForThisThread()
{
    if (t_ring)
        return *t_ring;
    TimelineState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    auto ring = std::make_unique<TimelineRing>(
        s.capacity, static_cast<std::uint32_t>(s.rings.size()));
    t_ring = ring.get();
    s.rings.push_back(std::move(ring));
    const std::size_t idx = s.rings.size() - 1;
    if (idx < kMaxCrashRings) {
        g_ring_table[idx].store(t_ring, std::memory_order_release);
        g_ring_count.store(idx + 1, std::memory_order_release);
    }
    return *t_ring;
}

} // anonymous namespace

namespace detail
{

void
timelineEmit(const char *name, TimelineEventKind kind, double value)
{
    ringForThisThread().push(name, kind, value, nowNs());
}

std::size_t
timelineRingCount()
{
    return std::min(g_ring_count.load(std::memory_order_acquire),
                    kMaxCrashRings);
}

const TimelineRing *
timelineRingAt(std::size_t i)
{
    if (i >= kMaxCrashRings)
        return nullptr;
    return g_ring_table[i].load(std::memory_order_acquire);
}

} // namespace detail

void
enableTimeline(std::size_t events_per_thread)
{
    TimelineState &s = state();
    {
        std::lock_guard<std::mutex> lk(s.mu);
        s.capacity = std::max<std::size_t>(events_per_thread, 1);
        if (!s.epoch_set) {
            s.epoch = std::chrono::steady_clock::now();
            s.epoch_set = true;
        }
    }
    detail::g_timeline_armed.fetch_add(1, std::memory_order_relaxed);
}

void
disableTimeline()
{
    const int prev = detail::g_timeline_armed.fetch_sub(
        1, std::memory_order_relaxed);
    dlw_assert(prev > 0,
               "disableTimeline without matching enableTimeline");
}

bool
timelineEnabled()
{
    return detail::timelineArmed();
}

const char *
internTimelineName(const std::string &name)
{
    // Leaked on purpose: event names must outlive every snapshot and
    // the crash-dump path, i.e. the process.
    static std::mutex *mu = new std::mutex();
    static std::set<std::string> *names = new std::set<std::string>();
    std::lock_guard<std::mutex> lk(*mu);
    return names->insert(name).first->c_str();
}

TimelineRing::TimelineRing(std::size_t capacity, std::uint32_t tid)
    : slots_(std::max<std::size_t>(capacity, 1)), tid_(tid)
{
}

void
TimelineRing::push(const char *name, TimelineEventKind kind,
                   double value, std::uint64_t ts_ns)
{
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot &e = slots_[h % slots_.size()];
    e.name.store(name, std::memory_order_relaxed);
    e.value.store(value, std::memory_order_relaxed);
    e.ts_ns.store(ts_ns, std::memory_order_relaxed);
    e.tid.store(tid_, std::memory_order_relaxed);
    e.kind.store(static_cast<std::uint8_t>(kind),
                 std::memory_order_relaxed);
    // Release so a snapshotting thread that observes the new head
    // also observes the slot contents.
    head_.store(h + 1, std::memory_order_release);
}

void
TimelineRing::snapshotInto(std::vector<TimelineEvent> &out) const
{
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n =
        std::min<std::uint64_t>(h, slots_.size());
    out.reserve(out.size() + static_cast<std::size_t>(n));
    const std::size_t base = out.size();
    for (std::uint64_t i = h - n; i < h; ++i)
        out.push_back(eventAt(i));
    // Lap detection: while we copied, the producer may have advanced
    // into our window.  Slot i is overwritten once the head passes
    // i + capacity, so everything below h2 - capacity is suspect —
    // discard it (oldest entries, at the front of what we appended).
    // The head_ release/acquire pair guarantees the slots we keep
    // were fully written before we first read the head.
    const std::uint64_t h2 = head_.load(std::memory_order_acquire);
    if (h2 > slots_.size() && h2 - slots_.size() > h - n) {
        const std::uint64_t lapped =
            std::min<std::uint64_t>((h2 - slots_.size()) - (h - n), n);
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(base),
                  out.begin() +
                      static_cast<std::ptrdiff_t>(base + lapped));
    }
}

std::uint64_t
TimelineRing::dropped() const
{
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h > slots_.size() ? h - slots_.size() : 0;
}

std::uint64_t
timelineNowNs()
{
    return nowNs();
}

TimelineSnapshot
timelineSnapshot()
{
    TimelineState &s = state();
    TimelineSnapshot snap;
    std::lock_guard<std::mutex> lk(s.mu);
    for (const auto &ring : s.rings) {
        if (ring->pushed() == 0)
            continue;
        ++snap.threads;
        snap.dropped += ring->dropped();
        ring->snapshotInto(snap.events);
    }
    // Rings are per-thread chronological already; a stable sort by
    // timestamp interleaves threads without reordering ties.
    std::stable_sort(snap.events.begin(), snap.events.end(),
                     [](const TimelineEvent &a, const TimelineEvent &b) {
                         return a.ts_ns < b.ts_ns;
                     });
    return snap;
}

void
resetTimeline()
{
    TimelineState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    for (const auto &ring : s.rings)
        ring->clear();
}

} // namespace obs
} // namespace dlw
