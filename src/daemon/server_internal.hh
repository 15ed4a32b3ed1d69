/**
 * @file
 * Daemon internals shared by server.cc (the event loop, sessions,
 * QoS and checkpoints), routes.cc (the HTTP results plane) and
 * session.cc: the net.* and daemon.* metric handles and the clocks.
 */

#ifndef DLW_DAEMON_SERVER_INTERNAL_HH
#define DLW_DAEMON_SERVER_INTERNAL_HH

#include <chrono>
#include <cstdint>

#include "obs/metrics.hh"

namespace dlw
{
namespace daemon
{

/** net.* metric handles, registered once. */
struct NetMetrics
{
    obs::Counter &accepted = obs::counter("net.accepted", "connections", "net",
        "TCP connections accepted");
    obs::Counter &closed = obs::counter("net.closed", "connections", "net",
        "TCP connections closed (any reason)");
    obs::Gauge &active = obs::gauge("net.active", "connections", "net",
        "TCP connections currently open");
    obs::Counter &bytes_in = obs::counter("net.bytes_in", "bytes", "net",
        "payload bytes read from peers");
    obs::Counter &bytes_out = obs::counter("net.bytes_out", "bytes", "net",
        "payload bytes written to peers");
    obs::Counter &http_requests = obs::counter("net.http.requests", "requests", "net",
        "HTTP requests parsed and routed");
    obs::Counter &protocol_errors = obs::counter("net.protocol_errors", "errors", "net",
        "connections failed by malformed bytes");
    obs::Counter &shed_connections = obs::counter("net.shed.connections", "connections", "net",
        "connections shed at accept (over the connection budget)");
    obs::Counter &shed_buffer = obs::counter("net.shed.buffer", "connections", "net",
        "connections cut for exceeding the per-connection buffer cap");
    obs::Counter &shed_http = obs::counter("net.shed.http", "requests", "net",
        "HTTP requests answered 503 on shed connections");
};

inline NetMetrics &
netMetrics()
{
    static NetMetrics m;
    return m;
}

/** daemon.* metric handles, registered once. */
struct DaemonMetrics
{
    obs::Counter &opened = obs::counter("daemon.sessions.opened", "sessions", "daemon",
        "streaming sessions admitted (hello accepted)");
    obs::Counter &completed = obs::counter("daemon.sessions.completed", "sessions", "daemon",
        "streaming sessions that delivered a final report");
    obs::Counter &aborted = obs::counter("daemon.sessions.aborted", "sessions", "daemon",
        "streaming sessions that failed (protocol error, bad data, disconnect)");
    obs::Gauge &active = obs::gauge("daemon.sessions.active", "sessions", "daemon",
        "streaming sessions currently open");
    obs::Counter &requests_streamed = obs::counter("daemon.requests_streamed", "records", "daemon",
        "trace records decoded across all sessions");
    obs::Counter &folds = obs::counter("daemon.folds", "folds", "daemon",
        "final folds handed to the thread pool");
    obs::Histogram &fold_seconds = obs::histogram("daemon.fold_seconds", "s", "daemon",
        "wall time of one final fold (finish + render)");
    obs::Counter &evict_first_byte = obs::counter("daemon.evict.first_byte", "connections", "daemon",
        "connections evicted: accepted but never sent a byte");
    obs::Counter &evict_header = obs::counter("daemon.evict.header", "connections", "daemon",
        "connections evicted: hello line / HTTP head never completed (slow loris)");
    obs::Counter &evict_idle = obs::counter("daemon.evict.idle", "connections", "daemon",
        "connections evicted: payload or keep-alive gap exceeded the idle deadline");
    obs::Counter &evict_write_stall = obs::counter("daemon.evict.write_stall", "connections", "daemon",
        "connections cut: peer stopped draining our writes");
    obs::Counter &ckpt_saved = obs::counter("daemon.ckpt.saved", "checkpoints", "daemon",
        "session checkpoints written to the state dir");
    obs::Counter &ckpt_restored = obs::counter("daemon.ckpt.restored", "sessions", "daemon",
        "sessions restored from the state dir at startup");
    obs::Gauge &uptime_s = obs::gauge("daemon.uptime_s", "s", "daemon",
        "seconds since the daemon started");
};

inline DaemonMetrics &
daemonMetrics()
{
    static DaemonMetrics m;
    return m;
}

/** The loop clock: steady time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Wall-clock milliseconds since the epoch. */
inline std::uint64_t
wallNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

} // namespace daemon
} // namespace dlw

#endif // DLW_DAEMON_SERVER_INTERNAL_HH
