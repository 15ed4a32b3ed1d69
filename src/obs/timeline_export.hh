/**
 * @file
 * Chrome trace_event JSON export for the timeline, plus the
 * signal-safe crash dump.
 *
 * renderChromeTrace emits the JSON Object Format of the Chrome
 * trace_event spec ({"traceEvents":[...]}), loadable directly in
 * Perfetto (ui.perfetto.dev) or chrome://tracing.  Begin/end pairs
 * that both survived in the ring are folded into complete ("X")
 * events with a duration; an unmatched begin — a stage that was
 * still running when the snapshot was taken, or whose end was
 * overwritten — stays a "B" event, which the viewers render as an
 * open slice.  Instants become "i" (thread-scoped), counter samples
 * become "C" tracks.
 *
 * The crash dump is the flight-recorder payoff: after
 * installTimelineCrashHandler(path), a fatal signal (SEGV, ABRT,
 * BUS, ILL, FPE) makes the process write the last-N events to
 * `path` before re-raising.  The handler uses only async-signal-safe
 * calls (open/write/close, no allocation, no locks) and emits the
 * raw B/E/i/C stream in the same trace_event array format, so the
 * tooling that opens a healthy trace opens a post-mortem one too.
 * Ring access on that path is necessarily unlocked and best-effort:
 * a torn event from a thread that was mid-emit is possible, a hang
 * or reentrant crash is not.
 */

#ifndef DLW_OBS_TIMELINE_EXPORT_HH
#define DLW_OBS_TIMELINE_EXPORT_HH

#include <string>

#include "common/status.hh"
#include "obs/timeline.hh"

namespace dlw
{
namespace obs
{

/**
 * Render a snapshot as Chrome trace_event JSON.
 *
 * @param snap Events to render (ascending ts, per timelineSnapshot).
 * @param pid  Process id to stamp on every event; tests pass a fixed
 *             value for golden output.
 */
std::string renderChromeTrace(const TimelineSnapshot &snap, int pid);

/** Render with the real process id. */
std::string renderChromeTrace(const TimelineSnapshot &snap);

/**
 * Render a snapshot plus a pre-rendered trace_event fragment —
 * comma-separated event objects, no enclosing brackets — appended
 * inside the same traceEvents array.  This is how `dlwtool stream
 * --trace-out` merges the server-side spans fetched from
 * /v1/timeline into the client's own timeline file.
 */
std::string renderChromeTrace(const TimelineSnapshot &snap, int pid,
                              const std::string &extra_events_json);

/**
 * Re-render the traceEvents of a Chrome trace document with every
 * "ts" shifted by `offset_us` microseconds (durations are left
 * alone), returning a comma-separated event fragment suitable for
 * the extra_events_json parameter above.  The source document's pid
 * and tid survive, so a merged file shows the server as a second
 * process; its process_name metadata is relabelled "dlwd" to keep
 * the two sides distinguishable.  Fails when `chrome_json` does not
 * parse or lacks a traceEvents array.
 */
StatusOr<std::string> reprojectChromeTraceEvents(
    const std::string &chrome_json, double offset_us);

/**
 * Render a snapshot, plus any extra event fragment (see above), to
 * `path`; IO errors surface as Status.
 */
Status writeChromeTrace(const std::string &path,
                        const TimelineSnapshot &snap,
                        const std::string &extra_events_json = {});

/**
 * Write the raw event stream (unpaired B/E, i, C) of every ring to
 * an open file descriptor using only async-signal-safe calls.  The
 * crash handler's core, exposed so tests can exercise it without a
 * signal.
 */
void dumpTimelineToFd(int fd);

/**
 * Arm the crash dump: on a fatal signal, dump the timeline to
 * `path` (truncating), then restore the previous disposition and
 * re-raise.  Installing again just changes the path.
 */
void installTimelineCrashHandler(const std::string &path);

/** Disarm without uninstalling (the handler becomes a no-op). */
void disarmTimelineCrashHandler();

} // namespace obs
} // namespace dlw

#endif // DLW_OBS_TIMELINE_EXPORT_HH
