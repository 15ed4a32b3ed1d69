/**
 * @file
 * dlwtool's daemon commands: serve runs dlwd, stream and top are its
 * clients (both through net/client).
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "commands.hh"
#include "common/logging.hh"
#include "common/retry.hh"
#include "common/status.hh"
#include "common/strutil.hh"
#include "daemon/server.hh"
#include "net/client.hh"
#include "obs/benchdiff.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"
#include "obs/timeline_export.hh"
#include "qos/tag.hh"

namespace dlw
{
namespace tool
{

std::string g_server_trace_fragment;

namespace
{

/** The serve loop's SIGTERM/SIGINT target. */
daemon::Server *g_serve_server = nullptr;

extern "C" void
serveSignalHandler(int)
{
    if (g_serve_server != nullptr)
        g_serve_server->requestStop();
}

/** stream exits with this when the server dies mid-session. */
constexpr int kStreamServerClosedExit = 3;

/**
 * Fetch the daemon's live timeline and re-project it onto the client
 * clock, stashing the fragment the --trace-out writer merges into
 * the trace file.  Best-effort by design: a failure here degrades to
 * a client-only trace (with a stderr note), never a failed stream.
 */
void
mergeServerTimeline(net::Endpoint to, const net::StreamReply &reply)
{
    if (reply.server_ack_ns == 0)
        return; // server predates the timestamped ack
    to.connect_timeout_ms = 5000;
    StatusOr<std::string> body = net::httpGetBody(to, "/v1/timeline");
    if (!body.ok()) {
        std::cerr << "stream: /v1/timeline: "
                  << body.status().toString() << '\n';
        return;
    }
    const double offset_us =
        (static_cast<double>(reply.client_ack_ns) -
         static_cast<double>(reply.server_ack_ns)) /
        1000.0;
    StatusOr<std::string> frag = obs::reprojectChromeTraceEvents(
        body.value(), offset_us);
    if (!frag.ok()) {
        std::cerr << "stream: server timeline: "
                  << frag.status().toString() << '\n';
        return;
    }
    g_server_trace_fragment = frag.value();
    std::cerr << "stream: merged server timeline ("
              << frag.value().size() << " bytes, clock offset "
              << static_cast<std::int64_t>(offset_us) << "us)\n";
}

using obs::jsonNumber;
using obs::jsonString;

/** A /v1/stats counter, for the %llu columns of `dlwtool top`. */
unsigned long long
count(const obs::JsonValue *obj, const char *key)
{
    return static_cast<unsigned long long>(jsonNumber(obj, key));
}

/** Render one `dlwtool top` frame from a parsed /v1/stats document. */
void
printTopFrame(std::ostream &os, const obs::JsonValue &doc,
              const std::string &where)
{
    char line[256];
    const obs::JsonValue *draining = doc.find("draining");
    os << "dlwd " << where << " — up " << count(&doc, "uptime_s")
       << "s, " << count(&doc, "connections") << " conn(s), "
       << count(&doc, "active_sessions") << " active session(s)"
       << (draining != nullptr && draining->boolean ? ", DRAINING" : "")
       << '\n';
    const obs::JsonValue *pool = doc.find("pool");
    std::snprintf(line, sizeof(line),
                  "pool: %llu queued on %llu thread(s)    "
                  "fold p95 %.1fus\n",
                  count(pool, "queue_depth"), count(pool, "threads"),
                  jsonNumber(&doc, "fold_p95_us"));
    os << line;

    const obs::JsonValue *stages = doc.find("stages");
    if (stages != nullptr) {
        os << "stage        count      p50us      p95us      p99us\n";
        for (const auto &kv : stages->members) {
            std::snprintf(
                line, sizeof(line), "%-10s %8llu %10.1f %10.1f %10.1f\n",
                kv.first.c_str(), count(&kv.second, "count"),
                jsonNumber(&kv.second, "p50_us"),
                jsonNumber(&kv.second, "p95_us"),
                jsonNumber(&kv.second, "p99_us"));
            os << line;
        }
    }

    const obs::JsonValue *tenants = doc.find("tenants");
    if (tenants != nullptr && !tenants->items.empty()) {
        os << "tenant/class            sessions      records\n";
        for (const obs::JsonValue &t : tenants->items) {
            const std::string tag =
                jsonString(&t, "tenant") + "/" + jsonString(&t, "class");
            std::snprintf(line, sizeof(line), "%-22s %9llu %12llu\n",
                          tag.c_str(), count(&t, "sessions"),
                          count(&t, "records"));
            os << line;
        }
    }

    const obs::JsonValue *qos = doc.find("qos");
    const obs::JsonValue *enabled =
        qos != nullptr ? qos->find("enabled") : nullptr;
    if (enabled == nullptr || !enabled->boolean) {
        os << "qos: off\n";
        return;
    }
    const obs::JsonValue *limits = qos->find("limits");
    std::snprintf(line, sizeof(line),
                  "qos: pressure %lldm    limits i/b/bg "
                  "%llu/%llu/%llu rec/s\n",
                  static_cast<long long>(jsonNumber(qos, "pressure_milli")),
                  count(limits, "interactive"), count(limits, "bulk"),
                  count(limits, "background"));
    os << line;
    const obs::JsonValue *tags = qos->find("tags");
    if (tags == nullptr || tags->items.empty())
        return;
    os << "tag                       rate/s   balance(micro)\n";
    for (const obs::JsonValue &t : tags->items) {
        const std::string tag =
            jsonString(&t, "tenant") + "/" + jsonString(&t, "class");
        std::snprintf(line, sizeof(line), "%-22s %9llu %16lld\n",
                      tag.c_str(), count(&t, "rate_per_s"),
                      static_cast<long long>(
                          jsonNumber(&t, "balance_micro")));
        os << line;
    }
}

} // anonymous namespace

int
cmdServe(const Options &opts)
{
    // The daemon always observes itself: /metrics must be live even
    // when nobody passed --metrics, and /v1/timeline must have a
    // flight recorder to serve, so both run for the daemon's whole
    // life.  The counter sampler gives the timeline its gauge tracks.
    registerAllMetrics();
    obs::enable();
    obs::enableTimeline();

    const auto u64 = [&opts](const char *flag, std::uint64_t def) {
        return static_cast<std::uint64_t>(
            opts.getInt(flag, static_cast<std::int64_t>(def)));
    };
    daemon::ServerConfig cfg;
    cfg.port = static_cast<std::uint16_t>(u64("port", 7433));
    cfg.max_connections = u64("max-conns", 256);
    cfg.max_buffer_bytes = u64("max-buffer-kb", 4096) * 1024;
    cfg.threads = u64("threads", 0);
    cfg.drain_grace_ms = u64("drain-grace-ms", 5000);
    cfg.first_byte_timeout_ms =
        u64("first-byte-timeout-ms", cfg.first_byte_timeout_ms);
    cfg.header_timeout_ms =
        u64("header-timeout-ms", cfg.header_timeout_ms);
    cfg.idle_timeout_ms = u64("idle-timeout-ms", cfg.idle_timeout_ms);
    cfg.write_stall_timeout_ms =
        u64("write-stall-timeout-ms", cfg.write_stall_timeout_ms);
    cfg.state_dir = opts.get("state-dir", "");
    cfg.checkpoint_interval_ms =
        u64("ckpt-ms", cfg.checkpoint_interval_ms);
    const std::string qos = opts.get("qos", "off");
    if (qos != "on" && qos != "off")
        dlw_fatal("--qos wants on|off, got '", qos, "'");
    cfg.qos = qos == "on";
    cfg.qos_config.target_queue_depth = opts.getInt(
        "qos-target-qd", cfg.qos_config.target_queue_depth);
    cfg.qos_config.target_fold_p95_us = opts.getInt(
        "qos-target-p95-us", cfg.qos_config.target_fold_p95_us);
    cfg.qos_config.min_rate_per_sec = opts.getInt(
        "qos-min-rate", cfg.qos_config.min_rate_per_sec);
    cfg.qos_config.max_rate_per_sec = opts.getInt(
        "qos-max-rate", cfg.qos_config.max_rate_per_sec);

    daemon::Server server(cfg);
    Status s = server.start();
    if (!s.ok())
        throw StatusError(s);

    const std::string port_file = opts.get("port-file", "");
    if (!port_file.empty()) {
        std::ofstream os(port_file);
        if (!os)
            dlw_fatal("cannot write port file '", port_file, "'");
        os << server.port() << '\n';
    }

    g_serve_server = &server;
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);

    std::cerr << "dlwd: listening on 127.0.0.1:" << server.port()
              << " (max " << cfg.max_connections
              << " connections)\n";
    obs::CounterSampler sampler;
    sampler.start();
    s = server.run();
    sampler.stop();
    g_serve_server = nullptr;
    if (!s.ok())
        throw StatusError(s);
    std::cerr << "dlwd: drained, exiting\n";
    return 0;
}

/**
 * stream: the reference dlwd client.  Streams a trace file to a
 * running daemon (csv raw, bin framed) and prints the final report —
 * the same bytes `dlwtool characterize` prints for that file.
 * Connection-level failures (connect errors/timeouts, overload
 * shedding) retry with seeded capped-exponential backoff; a server
 * that dies mid-session exits 3.
 */
int
cmdStream(const Options &opts)
{
    const std::string in = opts.get("in", "");
    if (in.empty())
        dlw_fatal("stream needs --in");
    const bool bin = endsWith(in, ".bin");
    if (!bin && !endsWith(in, ".csv"))
        dlw_fatal("stream wants a .csv or .bin trace, got '", in, "'");
    net::Endpoint to;
    to.host = opts.get("host", "127.0.0.1");
    to.port = static_cast<int>(opts.getInt("port", 7433));
    to.connect_timeout_ms = static_cast<std::uint64_t>(
        opts.getInt("connect-timeout-ms", 5000));
    net::StreamHello hello;
    hello.format = bin ? net::StreamFormat::kBin : net::StreamFormat::kCsv;
    hello.tenant = opts.get("tenant", "anon");
    const std::string klass_name =
        opts.get("class", "interactive");
    if (!qos::parseWorkClass(klass_name, hello.klass)) {
        dlw_fatal("--class wants interactive|bulk|background, got '",
                  klass_name, "'");
    }
    const auto retries =
        static_cast<std::size_t>(opts.getInt("retries", 0));
    const auto seed =
        static_cast<std::uint64_t>(opts.getInt("retry-seed", 0));

    // A trace id rides the hello whenever the caller names one, or
    // whenever --trace-out is armed (a trace file without the server
    // half would be half a feature).  Self-assigned ids — wall clock
    // plus pid, hex — are unique enough across a storm of clients.
    hello.trace_id = opts.get("trace-id", "");
    if (hello.trace_id.empty() && opts.has("trace-out")) {
        const auto stamp = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        char idbuf[48];
        std::snprintf(idbuf, sizeof(idbuf), "c%llx.%x",
                      static_cast<unsigned long long>(stamp),
                      static_cast<unsigned>(::getpid()));
        hello.trace_id = idbuf;
    }

    std::signal(SIGPIPE, SIG_IGN);

    for (std::size_t attempt = 0;; ++attempt) {
        std::ifstream is(in, std::ios::binary);
        if (!is)
            throw StatusError(
                Status::ioError("cannot open trace '" + in + "'"));
        StatusOr<net::StreamReply> reply = net::streamSession(
            to, hello, is, [](const net::StreamReply &ack) {
                std::cerr << "stream: session " << ack.session_id
                          << '\n';
            });
        if (reply.ok()) {
            std::cout << reply.value().report;
            if (!hello.trace_id.empty() && opts.has("trace-out"))
                mergeServerTimeline(to, reply.value());
            return 0;
        }
        const Status &s = reply.status();
        switch (s.code()) {
        case StatusCode::kUnavailable:
            break; // connection-level or shed: retry below
        case StatusCode::kFailedPrecondition:
            std::cerr << "stream: server error: " << s.message() << '\n';
            return 1;
        case StatusCode::kTruncated:
            // The connection died under us after admission: exit
            // with a distinct code so harnesses can tell "server
            // rejected the trace" (1) from "server went away" (3).
            std::cerr << "stream: " << s.message() << '\n';
            return kStreamServerClosedExit;
        default:
            throw StatusError(s);
        }
        if (attempt >= retries) {
            std::cerr << "stream: " << s.message()
                      << " (retries exhausted)\n";
            return 1;
        }
        const double back_ms =
            retryBackoffMs(seed, 0, attempt + 1, 100.0, 2000.0);
        std::cerr << "stream: " << s.message() << "; retry "
                  << attempt + 1 << "/" << retries << " in "
                  << static_cast<std::uint64_t>(back_ms) << "ms\n";
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::uint64_t>(back_ms * 1000.0)));
    }
}

/**
 * top: a one-screen live view of a running daemon, polled from
 * GET /v1/stats.  --iterations bounds the refresh loop: 1 prints a
 * single frame and exits without clearing the screen (the script/CI
 * mode), 0 redraws every --interval-ms until interrupted.
 */
int
cmdTop(const Options &opts)
{
    net::Endpoint to;
    to.host = opts.get("host", "127.0.0.1");
    to.port = static_cast<int>(opts.getInt("port", 7433));
    to.connect_timeout_ms = 5000;
    const auto interval_ms = static_cast<std::uint64_t>(
        opts.getInt("interval-ms", 1000));
    const auto iterations =
        static_cast<std::uint64_t>(opts.getInt("iterations", 0));
    const std::string where = to.host + ":" + std::to_string(to.port);

    for (std::uint64_t frame = 0;; ++frame) {
        StatusOr<std::string> body = net::httpGetBody(to, "/v1/stats");
        if (!body.ok())
            throw StatusError(body.status());
        StatusOr<obs::JsonValue> doc = obs::parseJson(body.value());
        if (!doc.ok())
            throw StatusError(doc.status());
        if (iterations != 1)
            std::cout << "\x1b[2J\x1b[H"; // clear + home
        printTopFrame(std::cout, doc.value(), where);
        std::cout.flush();
        if (iterations != 0 && frame + 1 >= iterations)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}

} // namespace tool
} // namespace dlw
