#include "obs/timeline_export.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/strutil.hh"
#include "obs/benchdiff.hh"
#include "obs/export.hh"

namespace dlw
{
namespace obs
{

namespace
{

/** Chrome "ts" is microseconds; render ns as micros with 3 decimals. */
std::string
tsMicros(std::uint64_t ts_ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64,
                  ts_ns / 1000, ts_ns % 1000);
    return buf;
}

/** One output row: a paired X event or a raw B/E/i/C event. */
struct OutEvent
{
    const char *name = "";
    char phase = 'i';
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0; ///< X only
    std::uint32_t tid = 0;
    double value = 0.0; ///< C only
};

void
renderOne(std::ostringstream &os, const OutEvent &e, int pid)
{
    os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"ph\":\""
       << e.phase << "\",\"ts\":" << tsMicros(e.ts_ns);
    if (e.phase == 'X')
        os << ",\"dur\":" << tsMicros(e.dur_ns);
    os << ",\"pid\":" << pid << ",\"tid\":" << e.tid;
    if (e.phase == 'i')
        os << ",\"s\":\"t\"";
    if (e.phase == 'C')
        os << ",\"args\":{\"value\":" << formatNumber(e.value) << '}';
    os << '}';
}

} // anonymous namespace

std::string
renderChromeTrace(const TimelineSnapshot &snap, int pid)
{
    return renderChromeTrace(snap, pid, std::string());
}

std::string
renderChromeTrace(const TimelineSnapshot &snap, int pid,
                  const std::string &extra_events_json)
{
    // Pair begins with ends per thread.  Per-thread event order is
    // chronological (each ring is), so a simple stack matches the
    // strictly nested spans ScopedSpan produces; anything unmatched
    // stays a raw B/E.
    std::vector<OutEvent> outs;
    outs.reserve(snap.events.size());
    std::vector<std::vector<std::size_t>> open_stacks;
    std::vector<std::uint32_t> tids_seen;
    for (const TimelineEvent &e : snap.events) {
        if (e.tid >= open_stacks.size())
            open_stacks.resize(e.tid + 1);
        if (std::find(tids_seen.begin(), tids_seen.end(), e.tid) ==
            tids_seen.end())
            tids_seen.push_back(e.tid);
        OutEvent out;
        out.name = e.name;
        out.ts_ns = e.ts_ns;
        out.tid = e.tid;
        out.value = e.value;
        switch (e.kind) {
          case TimelineEventKind::kBegin:
            out.phase = 'B';
            open_stacks[e.tid].push_back(outs.size());
            outs.push_back(out);
            break;
          case TimelineEventKind::kEnd: {
            std::vector<std::size_t> &stack = open_stacks[e.tid];
            if (!stack.empty() &&
                std::strcmp(outs[stack.back()].name, e.name) == 0) {
                OutEvent &begin = outs[stack.back()];
                begin.phase = 'X';
                begin.dur_ns = e.ts_ns >= begin.ts_ns
                    ? e.ts_ns - begin.ts_ns
                    : 0;
                stack.pop_back();
            } else {
                // End whose begin was overwritten (or never armed).
                out.phase = 'E';
                outs.push_back(out);
            }
            break;
          }
          case TimelineEventKind::kInstant:
            out.phase = 'i';
            outs.push_back(out);
            break;
          case TimelineEventKind::kCounter:
            out.phase = 'C';
            outs.push_back(out);
            break;
        }
    }

    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"dlw\"}}";
    first = false;
    for (std::uint32_t tid : tids_seen) {
        os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
           << pid << ",\"tid\":" << tid
           << ",\"args\":{\"name\":\"thread-" << tid << "\"}}";
    }
    for (const OutEvent &e : outs) {
        if (!first)
            os << ',';
        first = false;
        os << "\n";
        renderOne(os, e, pid);
    }
    if (!extra_events_json.empty()) {
        if (!first)
            os << ',';
        first = false;
        os << "\n" << extra_events_json;
    }
    os << "\n]}";
    os << '\n';
    return os.str();
}

std::string
renderChromeTrace(const TimelineSnapshot &snap)
{
    return renderChromeTrace(snap, static_cast<int>(::getpid()));
}

namespace
{

/** Re-render one parsed JSON value compactly (reprojection path). */
void
renderJson(std::ostringstream &os, const JsonValue &v)
{
    switch (v.type) {
      case JsonValue::Type::kNull:
        os << "null";
        break;
      case JsonValue::Type::kBool:
        os << (v.boolean ? "true" : "false");
        break;
      case JsonValue::Type::kNumber:
        os << formatNumber(v.number);
        break;
      case JsonValue::Type::kString:
        os << '"' << jsonEscape(v.str) << '"';
        break;
      case JsonValue::Type::kObject: {
        os << '{';
        bool first = true;
        for (const auto &m : v.members) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << jsonEscape(m.first) << "\":";
            renderJson(os, m.second);
        }
        os << '}';
        break;
      }
      case JsonValue::Type::kArray: {
        os << '[';
        bool first = true;
        for (const JsonValue &item : v.items) {
            if (!first)
                os << ',';
            first = false;
            renderJson(os, item);
        }
        os << ']';
        break;
      }
    }
}

} // anonymous namespace

StatusOr<std::string>
reprojectChromeTraceEvents(const std::string &chrome_json,
                           double offset_us)
{
    StatusOr<JsonValue> doc = parseJson(chrome_json);
    if (!doc.ok())
        return doc.status();
    const JsonValue *events = doc.value().find("traceEvents");
    if (events == nullptr ||
        events->type != JsonValue::Type::kArray) {
        return Status::invalidArgument(
            "not a Chrome trace document (no traceEvents array)");
    }
    std::ostringstream os;
    bool first = true;
    for (const JsonValue &e : events->items) {
        if (e.type != JsonValue::Type::kObject)
            continue;
        if (!first)
            os << ",\n";
        first = false;
        const JsonValue *name = e.find("name");
        const JsonValue *ph = e.find("ph");
        const bool is_meta = ph != nullptr &&
            ph->type == JsonValue::Type::kString && ph->str == "M";
        os << '{';
        bool fm = true;
        for (const auto &m : e.members) {
            if (!fm)
                os << ',';
            fm = false;
            os << '"' << jsonEscape(m.first) << "\":";
            if (m.first == "ts" &&
                m.second.type == JsonValue::Type::kNumber) {
                // The one field the clock offset applies to; dur is
                // a duration and survives untouched.
                char buf[48];
                std::snprintf(buf, sizeof(buf), "%.3f",
                              m.second.number + offset_us);
                os << buf;
            } else if (is_meta && m.first == "args" &&
                       name != nullptr &&
                       name->str == "process_name") {
                os << "{\"name\":\"dlwd\"}";
            } else {
                renderJson(os, m.second);
            }
        }
        os << '}';
    }
    return os.str();
}

Status
writeChromeTrace(const std::string &path, const TimelineSnapshot &snap,
                 const std::string &extra_events_json)
{
    std::ofstream os(path);
    if (!os) {
        return Status::ioError("cannot write timeline trace to '" +
                               path + "'");
    }
    os << renderChromeTrace(snap, static_cast<int>(::getpid()),
                            extra_events_json);
    if (!os)
        return Status::ioError("short write on '" + path + "'");
    return Status();
}

// ---------------------------------------------------------------------------
// Crash dump: everything below must stay async-signal-safe (no
// allocation, no locks, no stdio) — write(2) into a stack buffer.

namespace
{

struct CrashState
{
    char path[1024] = {0};
    std::atomic<bool> armed{false};
    std::atomic<bool> dumping{false};
    bool installed = false;
    struct sigaction old_actions[5] = {};
};

CrashState g_crash;

const int kCrashSignals[5] = {SIGSEGV, SIGABRT, SIGBUS, SIGILL,
                              SIGFPE};

/** write(2) a whole buffer, tolerating short writes. */
void
rawWrite(int fd, const char *buf, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, buf, n);
        if (w <= 0)
            return;
        buf += w;
        n -= static_cast<std::size_t>(w);
    }
}

/** Append a decimal u64; returns chars written. */
std::size_t
putU64(char *buf, std::uint64_t v)
{
    char tmp[24];
    std::size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = tmp[n - 1 - i];
    return n;
}

/** Append a C string, sanitising JSON-hostile bytes; returns count. */
std::size_t
putName(char *buf, const char *s, std::size_t cap)
{
    std::size_t n = 0;
    for (; s[n] != '\0' && n < cap; ++n) {
        const char c = s[n];
        buf[n] = (c == '"' || c == '\\' ||
                  static_cast<unsigned char>(c) < 0x20)
            ? '_'
            : c;
    }
    return n;
}

/** ts (or dur) in micros with 3 decimals; returns chars written. */
std::size_t
putMicros(char *buf, std::uint64_t ns)
{
    std::size_t n = putU64(buf, ns / 1000);
    buf[n++] = '.';
    const std::uint64_t frac = ns % 1000;
    buf[n++] = static_cast<char>('0' + frac / 100);
    buf[n++] = static_cast<char>('0' + frac / 10 % 10);
    buf[n++] = static_cast<char>('0' + frac % 10);
    return n;
}

/** Counter value with 3 decimals (negatives included). */
std::size_t
putValue(char *buf, double v)
{
    std::size_t n = 0;
    if (!(v == v))
        v = 0.0;
    if (v < 0) {
        buf[n++] = '-';
        v = -v;
    }
    if (v > 9e18)
        v = 9e18;
    // Thousandths print like nanoseconds as micros.
    return n + putMicros(buf + n,
                         static_cast<std::uint64_t>(v * 1000.0 + 0.5));
}

std::size_t
putLit(char *buf, const char *s)
{
    std::size_t n = 0;
    for (; s[n] != '\0'; ++n)
        buf[n] = s[n];
    return n;
}

void
dumpEvent(int fd, const TimelineEvent &e, int pid, bool first)
{
    char buf[512];
    std::size_t n = 0;
    if (!first)
        buf[n++] = ',';
    buf[n++] = '\n';
    n += putLit(buf + n, "{\"name\":\"");
    n += putName(buf + n, e.name, 200);
    n += putLit(buf + n, "\",\"ph\":\"");
    switch (e.kind) {
      case TimelineEventKind::kBegin:
        buf[n++] = 'B';
        break;
      case TimelineEventKind::kEnd:
        buf[n++] = 'E';
        break;
      case TimelineEventKind::kInstant:
        buf[n++] = 'i';
        break;
      case TimelineEventKind::kCounter:
        buf[n++] = 'C';
        break;
    }
    n += putLit(buf + n, "\",\"ts\":");
    n += putMicros(buf + n, e.ts_ns);
    n += putLit(buf + n, ",\"pid\":");
    n += putU64(buf + n, static_cast<std::uint64_t>(pid));
    n += putLit(buf + n, ",\"tid\":");
    n += putU64(buf + n, e.tid);
    if (e.kind == TimelineEventKind::kInstant)
        n += putLit(buf + n, ",\"s\":\"t\"");
    if (e.kind == TimelineEventKind::kCounter) {
        n += putLit(buf + n, ",\"args\":{\"value\":");
        n += putValue(buf + n, e.value);
        buf[n++] = '}';
    }
    buf[n++] = '}';
    rawWrite(fd, buf, n);
}

} // anonymous namespace

void
dumpTimelineToFd(int fd)
{
    const int pid = static_cast<int>(::getpid());
    rawWrite(fd, "[", 1);
    bool first = true;
    // Unlocked ring walk: the crash path cannot take the registry
    // mutex (the crashing thread might hold it).  Rings are
    // append-only and never freed, so the worst case is missing a
    // ring registered this instant or reading one torn event.
    const std::size_t rings = detail::timelineRingCount();
    for (std::size_t r = 0; r < rings; ++r) {
        const TimelineRing *ring = detail::timelineRingAt(r);
        if (ring == nullptr || ring->pushed() == 0)
            continue;
        const std::uint64_t head = ring->pushed();
        const std::uint64_t n =
            head < ring->capacity() ? head : ring->capacity();
        for (std::uint64_t i = head - n; i < head; ++i) {
            dumpEvent(fd, ring->eventAt(i), pid, first);
            first = false;
        }
    }
    rawWrite(fd, "\n]\n", 3);
}

namespace
{

void
crashHandler(int sig)
{
    if (g_crash.armed.load(std::memory_order_relaxed) &&
        !g_crash.dumping.exchange(true)) {
        const int fd = ::open(g_crash.path,
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            dumpTimelineToFd(fd);
            ::close(fd);
        }
    }
    // Restore the previous disposition and re-raise so the process
    // still dies (or core-dumps) the way it would have without us.
    for (std::size_t i = 0; i < 5; ++i) {
        if (kCrashSignals[i] == sig)
            ::sigaction(sig, &g_crash.old_actions[i], nullptr);
    }
    ::raise(sig);
}

} // anonymous namespace

void
installTimelineCrashHandler(const std::string &path)
{
    std::snprintf(g_crash.path, sizeof(g_crash.path), "%s",
                  path.c_str());
    if (!g_crash.installed) {
        struct sigaction sa = {};
        sa.sa_handler = crashHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0;
        for (std::size_t i = 0; i < 5; ++i)
            ::sigaction(kCrashSignals[i], &sa,
                        &g_crash.old_actions[i]);
        g_crash.installed = true;
    }
    g_crash.dumping.store(false);
    g_crash.armed.store(true, std::memory_order_relaxed);
}

void
disarmTimelineCrashHandler()
{
    g_crash.armed.store(false, std::memory_order_relaxed);
}

} // namespace obs
} // namespace dlw
