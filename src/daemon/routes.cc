/**
 * @file
 * dlwd's HTTP results plane: request parsing and shedding on a
 * connection, routing, and the JSON bodies of /healthz, /v1/stats
 * and /v1/sessions.
 */

#include <cstdio>
#include <map>
#include <sstream>

#include "common/strutil.hh"
#include "daemon/server.hh"
#include "daemon/server_internal.hh"
#include "obs/export.hh"
#include "obs/timeline.hh"
#include "obs/timeline_export.hh"

namespace dlw
{
namespace daemon
{

void
Server::serveHttp(Conn &c)
{
    bool served = false;
    for (;;) {
        net::HttpRequest req;
        std::string why;
        const net::HttpParser::Result r = c.http.next(c.in, req, why);
        if (r == net::HttpParser::Result::kNeedMore)
            break;
        if (r == net::HttpParser::Result::kError) {
            netMetrics().protocol_errors.add();
            queueWrite(c, net::renderHttpResponse(
                              400, "Bad Request", "text/plain",
                              why + "\n", false));
            c.close_after_flush = true;
            return;
        }
        netMetrics().http_requests.add();
        served = true;
        if (c.shed || draining_) {
            netMetrics().shed_http.add();
            obs::emitInstant("net.shed");
            queueWrite(c, net::renderHttpResponse(
                              503, "Service Unavailable",
                              "text/plain", "overloaded\n", false));
            c.close_after_flush = true;
            return;
        }
        // An HTTP client may volunteer its tag; a sheddable class
        // under pressure gets 429 (retry later), never 503.
        qos::WorkClass klass;
        if (rk_ != nullptr &&
            qos::parseWorkClass(req.headerValue("x-dlw-class"), klass) &&
            shedByQos(c, req.headerValue("x-dlw-tenant"), klass))
            return;
        bool keep_alive = req.keepAlive();
        queueWrite(c, routeHttp(req, keep_alive));
        if (!keep_alive) {
            c.close_after_flush = true;
            return;
        }
    }
    if (served)
        armRead(c, ReadDeadline::kIdle); // between keep-alive requests
    if (c.saw_eof && c.in.empty()) {
        if (c.out.empty())
            closeConn(c.token);
        else
            c.close_after_flush = true;
    }
}

std::string
Server::routeHttp(const net::HttpRequest &req, bool &keep_alive)
{
    if (req.method != "GET") {
        keep_alive = false;
        return net::renderHttpResponse(405, "Method Not Allowed",
                                       "text/plain",
                                       "only GET is served\n", false);
    }
    if (req.target == "/healthz") {
        // JSON body, same 200 semantics: probes that only grep for
        // "ok" keep working via the status field.
        std::ostringstream os;
        os << "{\"status\":\"ok\",\"version\":\"" << kDaemonVersion
           << "\",\"uptime_s\":" << (nowNs() - started_ns_) / 1000000000ull
           << ",\"qos\":" << (rk_ != nullptr ? "true" : "false")
           << ",\"active_sessions\":"
           << daemonMetrics().active.value() << "}\n";
        return net::renderHttpResponse(200, "OK", "application/json",
                                       os.str(), keep_alive);
    }
    if (req.target == "/metrics") {
        return net::renderHttpResponse(
            200, "OK", "text/plain; version=0.0.4",
            obs::renderProm(obs::takeSnapshot()), keep_alive);
    }
    if (req.target == "/v1/timeline") {
        // A live snapshot of the flight-recorder ring: no quiesce,
        // no reset — concurrent emitters keep recording and the
        // worst case is one torn slot (see timeline.hh).
        return net::renderHttpResponse(
            200, "OK", "application/json",
            obs::renderChromeTrace(obs::timelineSnapshot()),
            keep_alive);
    }
    if (req.target == "/v1/stats") {
        return net::renderHttpResponse(200, "OK", "application/json",
                                       statsJson(), keep_alive);
    }
    if (req.target == "/v1/sessions") {
        std::ostringstream os;
        os << "[";
        const char *sep = "";
        for (const auto &kv : sessions_) {
            os << sep << kv.second->summaryJson();
            sep = ",";
        }
        os << "]\n";
        return net::renderHttpResponse(200, "OK", "application/json",
                                       os.str(), keep_alive);
    }
    const std::string prefix = "/v1/sessions/";
    const std::string suffix = "/report";
    if (startsWith(req.target, prefix) &&
        endsWith(req.target, suffix) &&
        req.target.size() > prefix.size() + suffix.size()) {
        const std::string id = req.target.substr(
            prefix.size(),
            req.target.size() - prefix.size() - suffix.size());
        auto it = sessions_.find(id);
        if (it == sessions_.end()) {
            return net::renderHttpResponse(
                404, "Not Found", "text/plain",
                "no such session\n", keep_alive);
        }
        return net::renderHttpResponse(200, "OK", "application/json",
                                       it->second->reportJson(),
                                       keep_alive);
    }
    return net::renderHttpResponse(404, "Not Found", "text/plain",
                                   "unknown path\n", keep_alive);
}

std::string
Server::statsJson() const
{
    // Everything here is either loop-thread state (conns_,
    // sessions_) or internally synchronized (metrics, ratekeeper,
    // pool), so the snapshot is one pass, no quiesce.
    std::ostringstream os;
    char buf[64];
    os << "{\"uptime_s\":" << (nowNs() - started_ns_) / 1000000000ull
       << ",\"started_at_ms\":" << started_wall_ms_
       << ",\"connections\":" << conns_.size()
       << ",\"active_sessions\":" << daemonMetrics().active.value()
       << ",\"draining\":" << (draining_ ? "true" : "false");
    os << ",\"pool\":{\"threads\":"
       << (pool_ != nullptr ? pool_->threadCount() : 0)
       << ",\"queue_depth\":"
       << (pool_ != nullptr ? pool_->queueDepth() : 0) << "}";
    const stats::LogHistogram folds =
        daemonMetrics().fold_seconds.merged();
    std::snprintf(buf, sizeof(buf), "%.1f",
                  folds.total() > 0 ? folds.quantile(0.95) * 1e6
                                    : 0.0);
    os << ",\"fold_p95_us\":" << buf;
    os << ",\"stages\":{";
    static const SessionStage kStages[] = {
        SessionStage::kRead, SessionStage::kDecode,
        SessionStage::kAdmit, SessionStage::kFold,
        SessionStage::kMerge};
    bool first = true;
    for (SessionStage st : kStages) {
        const stats::LogHistogram h =
            sessionStageHistogram(st).merged();
        if (!first)
            os << ',';
        first = false;
        os << '"' << sessionStageName(st) << "\":{\"count\":"
           << h.total();
        std::snprintf(buf, sizeof(buf),
                      ",\"p50_us\":%.1f,\"p95_us\":%.1f,"
                      "\"p99_us\":%.1f}",
                      h.total() > 0 ? h.quantile(0.50) * 1e6 : 0.0,
                      h.total() > 0 ? h.quantile(0.95) * 1e6 : 0.0,
                      h.total() > 0 ? h.quantile(0.99) * 1e6 : 0.0);
        os << buf;
    }
    os << '}';
    // Per-tenant/class session aggregation over the live registry.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        tenants; // key "tenant/class" -> {sessions, records}
    for (const auto &kv : sessions_) {
        const std::string key = kv.second->tenant() + std::string("/") +
            qos::workClassName(kv.second->klass());
        auto &agg = tenants[key];
        agg.first += 1;
        agg.second += kv.second->records();
    }
    os << ",\"tenants\":[";
    first = true;
    for (const auto &kv : tenants) {
        if (!first)
            os << ',';
        first = false;
        const std::size_t slash = kv.first.find('/');
        os << "{\"tenant\":\"" << jsonEscape(kv.first.substr(0, slash))
           << "\",\"class\":\"" << kv.first.substr(slash + 1)
           << "\",\"sessions\":" << kv.second.first
           << ",\"records\":" << kv.second.second << '}';
    }
    os << ']';
    os << ",\"qos\":{\"enabled\":"
       << (rk_ != nullptr ? "true" : "false");
    if (rk_ != nullptr) {
        os << ",\"pressure_milli\":" << rk_->pressureMilli()
           << ",\"limits\":{\"interactive\":"
           << rk_->limitPerSec(qos::WorkClass::kInteractive)
           << ",\"bulk\":"
           << rk_->limitPerSec(qos::WorkClass::kBulk)
           << ",\"background\":"
           << rk_->limitPerSec(qos::WorkClass::kBackground) << '}';
        os << ",\"tags\":[";
        first = true;
        for (const qos::Ratekeeper::TagStat &t : rk_->tagStats()) {
            if (!first)
                os << ',';
            first = false;
            os << "{\"tenant\":\"" << jsonEscape(qos::tenantName(t.tenant))
               << "\",\"class\":\"" << qos::workClassName(t.klass)
               << "\",\"rate_per_s\":" << t.rate_per_sec
               << ",\"balance_micro\":" << t.balance_micro << '}';
        }
        os << ']';
    }
    os << "}}\n";
    return os.str();
}

} // namespace daemon
} // namespace dlw
