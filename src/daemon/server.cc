#include "daemon/server.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/strutil.hh"
#include "daemon/checkpoint.hh"
#include "daemon/server_internal.hh"
#include "net/io.hh"
#include "net/wire.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"

namespace dlw
{
namespace daemon
{

void
registerDaemonMetrics()
{
    netMetrics();
    daemonMetrics();
    net::registerNetIoMetrics();
    qos::registerQosMetrics();
}

Server::Server(ServerConfig config) : config_(config)
{
}

Server::~Server()
{
    shutdownAll();
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    if (wake_fd_ >= 0)
        ::close(wake_fd_);
    if (epoll_fd_ >= 0)
        ::close(epoll_fd_);
}

Status
Server::start()
{
    registerDaemonMetrics();
    // Force-register the stage histograms so /metrics and /v1/stats
    // carry the schema before the first streamed batch.
    sessionStageHistogram(SessionStage::kRead);
    sessionStageHistogram(SessionStage::kDecode);
    sessionStageHistogram(SessionStage::kAdmit);
    sessionStageHistogram(SessionStage::kFold);
    sessionStageHistogram(SessionStage::kMerge);

    started_ns_ = nowNs();
    started_wall_ms_ = wallNowMs();

    if (config_.qos) {
        rk_ = std::make_unique<qos::Ratekeeper>(config_.qos_config);
        next_qos_tick_ns_ = nowNs() + config_.qos_config.tick_ns;
    }

    if (!config_.state_dir.empty()) {
        Status s = restoreState();
        if (!s.ok())
            return s;
        next_ckpt_ns_ =
            nowNs() + config_.checkpoint_interval_ms * 1000000ull;
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0)
        return Status::ioError(std::string("socket: ") +
                               std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        return Status::ioError(std::string("bind: ") +
                               std::strerror(errno));
    }
    if (::listen(listen_fd_, 128) < 0) {
        return Status::ioError(std::string("listen: ") +
                               std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&addr), &len) < 0) {
        return Status::ioError(std::string("getsockname: ") +
                               std::strerror(errno));
    }
    bound_port_ = ntohs(addr.sin_port);

    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0)
        return Status::ioError(std::string("epoll_create1: ") +
                               std::strerror(errno));

    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0)
        return Status::ioError(std::string("eventfd: ") +
                               std::strerror(errno));

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0)
        return Status::ioError(std::string("epoll_ctl listener: ") +
                               std::strerror(errno));
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0)
        return Status::ioError(std::string("epoll_ctl eventfd: ") +
                               std::strerror(errno));

    const std::size_t threads =
        config_.threads != 0 ? config_.threads
                             : fleet::ThreadPool::hardwareThreads();
    pool_ = std::make_unique<fleet::ThreadPool>(threads);
    return Status();
}

Status
Server::run()
{
    std::vector<epoll_event> events(64);
    for (;;) {
        if (stop_requested_.load(std::memory_order_relaxed) &&
            !draining_) {
            draining_ = true;
            obs::emitInstant("daemon.drain");
            if (listen_fd_ >= 0) {
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_,
                            nullptr);
                ::close(listen_fd_);
                listen_fd_ = -1;
            }
            drain_deadline_ns_ =
                nowNs() + config_.drain_grace_ms * 1000000ull;
        }
        if (draining_) {
            if (conns_.empty())
                break;
            if (nowNs() >= drain_deadline_ns_) {
                shutdownAll();
                break;
            }
        }

        const int timeout_ms = loopTimeoutMs(nowNs());
        const int n = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   timeout_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("epoll_wait: ") +
                                   std::strerror(errno));
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == listen_fd_) {
                acceptReady();
                continue;
            }
            if (fd == wake_fd_) {
                std::uint64_t tick = 0;
                while (::read(wake_fd_, &tick, sizeof(tick)) > 0) {
                }
                finishFolds();
                continue;
            }
            auto it = fd_to_token_.find(fd);
            if (it == fd_to_token_.end())
                continue;
            const std::uint64_t token = it->second;
            const std::uint32_t mask = events[i].events;
            if (mask & (EPOLLHUP | EPOLLERR)) {
                // The read path sees the EOF/reset and settles the
                // connection; pending bytes still drain first.
                auto ct = conns_.find(token);
                if (ct != conns_.end())
                    connReadable(*ct->second);
                continue;
            }
            if (mask & EPOLLIN) {
                auto ct = conns_.find(token);
                if (ct != conns_.end())
                    connReadable(*ct->second);
            }
            if ((mask & EPOLLOUT) && conns_.count(token) != 0)
                connWritable(*conns_[token]);
        }

        const std::uint64_t now = nowNs();
        daemonMetrics().uptime_s.set(static_cast<std::int64_t>(
            (now - started_ns_) / 1000000000ull));
        expireDeadlines(now);
        if (rk_ != nullptr && now >= next_qos_tick_ns_) {
            qosTick(now);
            next_qos_tick_ns_ = now + config_.qos_config.tick_ns;
        }
        if (next_ckpt_ns_ != 0 && now >= next_ckpt_ns_) {
            checkpointSessions(/*force=*/false);
            next_ckpt_ns_ =
                nowNs() + config_.checkpoint_interval_ms * 1000000ull;
        }
    }
    pool_->wait();
    finishFolds();
    // A graceful exit persists every session's terminal state, so a
    // restart serves the full registry.
    if (!config_.state_dir.empty())
        checkpointSessions(/*force=*/true);
    return Status();
}

int
Server::loopTimeoutMs(std::uint64_t now_ns) const
{
    std::uint64_t cap_ms = draining_ ? 50 : 500;
    std::uint64_t next = wheel_.nextDeadline();
    if (next_ckpt_ns_ != 0 && next_ckpt_ns_ < next)
        next = next_ckpt_ns_;
    if (rk_ != nullptr && next_qos_tick_ns_ < next)
        next = next_qos_tick_ns_;
    if (next != UINT64_MAX) {
        const std::uint64_t delta_ms =
            next <= now_ns ? 0 : (next - now_ns + 999999) / 1000000;
        if (delta_ms < cap_ms)
            cap_ms = delta_ms;
    }
    return static_cast<int>(cap_ms);
}

void
Server::expireDeadlines(std::uint64_t now_ns)
{
    due_.clear();
    wheel_.expire(now_ns, due_);
    for (std::uint64_t token : due_) {
        auto it = conns_.find(token);
        if (it == conns_.end())
            continue; // stale entry: connection already gone
        Conn &c = *it->second;
        if (c.throttled && c.throttle_deadline_ns != 0 &&
            now_ns >= c.throttle_deadline_ns) {
            // Tokens have refilled: resume the stream — re-arm
            // EPOLLIN, restart the idle clock, and fold whatever
            // already sits buffered.
            c.throttled = false;
            c.throttle_deadline_ns = 0;
            armRead(c, ReadDeadline::kIdle);
            updateEpoll(c);
            pumpConn(c);
            continue;
        }
        if (c.read_deadline_ns != 0 && now_ns >= c.read_deadline_ns) {
            evictRead(c);
            continue;
        }
        if (c.write_deadline_ns != 0 &&
            now_ns >= c.write_deadline_ns) {
            daemonMetrics().evict_write_stall.add();
            obs::emitInstant("daemon.evict");
            dropConn(c, "write stall: peer stopped reading");
            continue;
        }
        // Stale entry for a deadline that has since been pushed out
        // (or disarmed): re-arm the wheel at the live deadline.
        std::uint64_t next = UINT64_MAX;
        if (c.read_deadline_ns != 0)
            next = c.read_deadline_ns;
        if (c.write_deadline_ns != 0 && c.write_deadline_ns < next)
            next = c.write_deadline_ns;
        if (c.throttle_deadline_ns != 0 &&
            c.throttle_deadline_ns < next)
            next = c.throttle_deadline_ns;
        if (next != UINT64_MAX)
            wheel_.schedule(token, next);
    }
}

void
Server::qosTick(std::uint64_t now_ns)
{
    // The controller feeds on signals the system already exports:
    // pool backlog, fold latency p95, live session count.
    qos::QosSignals sig;
    sig.queue_depth = obs::gauge("fleet.pool.queue_depth", "tasks",
        "fleet", "submitted-but-unfinished tasks right now").value();
    const stats::LogHistogram folds =
        daemonMetrics().fold_seconds.merged();
    if (folds.total() > 0) {
        sig.fold_p95_us =
            static_cast<std::int64_t>(folds.quantile(0.95) * 1e6);
    }
    sig.active_sessions = daemonMetrics().active.value();
    rk_->tick(now_ns, sig);
}

void
Server::throttleConn(Conn &c, std::uint64_t now_ns)
{
    const std::uint64_t delay =
        rk_->resumeDelayNs(c.session->tag(), now_ns);
    c.throttled = true;
    c.throttle_deadline_ns = now_ns + std::max<std::uint64_t>(
        delay, 1'000'000);
    // The idle deadline pauses with the stream: being throttled is
    // the daemon's doing, not the client's.
    armRead(c, ReadDeadline::kNone);
    wheel_.schedule(c.token, c.throttle_deadline_ns);
    updateEpoll(c);
}

bool
Server::shedByQos(Conn &c, const std::string &tenant,
                  qos::WorkClass klass)
{
    if (rk_ == nullptr)
        return false;
    const qos::TagId tag{qos::internTenant(tenant), klass};
    if (rk_->admitSession(tag, nowNs()) != qos::Admission::kShed)
        return false;
    if (c.state == ConnState::kHttp) {
        queueWrite(c, net::renderHttpResponse(429, "Too Many Requests",
                                              "text/plain", "throttled\n",
                                              false));
        c.close_after_flush = true;
    } else {
        closeWith(c, net::renderReportError("throttled"));
    }
    return true;
}

void
Server::closeWith(Conn &c, const std::string &bytes)
{
    queueWrite(c, bytes);
    c.close_after_flush = true;
    c.state = ConnState::kFold;
    armRead(c, ReadDeadline::kNone); // the flush is the write's problem
}

void
Server::armRead(Conn &c, ReadDeadline kind)
{
    std::uint64_t timeout_ms = 0;
    switch (kind) {
    case ReadDeadline::kNone:
        break;
    case ReadDeadline::kFirstByte:
        timeout_ms = config_.first_byte_timeout_ms;
        break;
    case ReadDeadline::kHeader:
        timeout_ms = config_.header_timeout_ms;
        break;
    case ReadDeadline::kIdle:
        timeout_ms = config_.idle_timeout_ms;
        break;
    }
    if (timeout_ms == 0) {
        c.read_kind = ReadDeadline::kNone;
        c.read_deadline_ns = 0;
        return;
    }
    c.read_kind = kind;
    c.read_deadline_ns = nowNs() + timeout_ms * 1000000ull;
    wheel_.schedule(c.token, c.read_deadline_ns);
}

void
Server::armWrite(Conn &c)
{
    if (config_.write_stall_timeout_ms == 0)
        return;
    c.write_deadline_ns =
        nowNs() + config_.write_stall_timeout_ms * 1000000ull;
    wheel_.schedule(c.token, c.write_deadline_ns);
}

void
Server::evictRead(Conn &c)
{
    obs::emitInstant("daemon.evict");
    switch (c.read_kind) {
    case ReadDeadline::kFirstByte:
        daemonMetrics().evict_first_byte.add();
        // Never spoke: no protocol to answer in.
        dropConn(c, "timeout waiting for first byte");
        return;
    case ReadDeadline::kHeader:
        daemonMetrics().evict_header.add();
        break;
    case ReadDeadline::kIdle:
        daemonMetrics().evict_idle.add();
        break;
    case ReadDeadline::kNone:
        return; // raced a disarm; nothing to evict
    }
    c.read_kind = ReadDeadline::kNone;
    c.read_deadline_ns = 0;
    if (c.state == ConnState::kStream) {
        failSession(c, "timeout: no payload bytes before the idle"
                       " deadline",
                    /*protocol=*/false);
        return;
    }
    if (c.state == ConnState::kHttp && !c.in.empty()) {
        // Mid-head: tell the slow client why before closing.
        closeWith(c, net::renderHttpResponse(
                         408, "Request Timeout", "text/plain",
                         "header read deadline exceeded\n", false));
        return;
    }
    if (c.state == ConnState::kSniff && !c.in.empty()) {
        // A partial DLWS1 hello (or ambiguous bytes): answer on the
        // stream plane, where 5-byte prefixes have already matched.
        closeWith(c, net::renderReportError("timeout waiting for hello"));
        return;
    }
    // Idle keep-alive (or empty sniff) reap: close quietly.
    dropConn(c, "idle timeout");
}

void
Server::dropConn(Conn &c, const std::string &why)
{
    if (c.session != nullptr && c.session->settleOnce()) {
        c.session->abort(why);
        daemonMetrics().aborted.add();
        daemonMetrics().active.add(-1);
    }
    closeConn(c.token);
}

Status
Server::restoreState()
{
    ::mkdir(config_.state_dir.c_str(), 0755);
    for (const std::string &path :
         listCheckpointFiles(config_.state_dir)) {
        StatusOr<std::shared_ptr<Session>> loaded =
            loadSessionCheckpoint(path);
        if (!loaded.ok()) {
            // A pre-tag checkpoint is not corrupt — it is merely
            // unusable here; leave it on disk for the operator.
            // Anything else (garbled, truncated, unreadable) is
            // dropped so the next sweep does not trip over it again.
            if (loaded.status().code() !=
                StatusCode::kFailedPrecondition)
                ::unlink(path.c_str());
            continue;
        }
        std::shared_ptr<Session> s = loaded.value();
        if (s->state() == SessionState::kStreaming) {
            // The connection died with the old process; account the
            // session as aborted, but keep its partial story
            // queryable.
            s->abort("daemon restarted mid-stream");
            if (s->settleOnce())
                daemonMetrics().aborted.add();
        }
        sessions_[s->id()] = s;
        ckpt_stamp_[s->id()] = {s->records(), s->state()};
        daemonMetrics().ckpt_restored.add();
        obs::emitInstant("daemon.ckpt");
        // Session ids are "<tenant>-<n>"; keep new ids unique.
        const std::size_t dash = s->id().rfind('-');
        if (dash != std::string::npos) {
            std::uint64_t n = 0;
            if (tryParseUint(s->id().substr(dash + 1), n) &&
                n >= next_session_)
                next_session_ = n + 1;
        }
    }
    return Status();
}

void
Server::checkpointSessions(bool force)
{
    for (const auto &kv : sessions_) {
        Session &s = *kv.second;
        const std::pair<std::uint64_t, SessionState> stamp{
            s.records(), s.state()};
        auto it = ckpt_stamp_.find(kv.first);
        if (!force && it != ckpt_stamp_.end() && it->second == stamp)
            continue; // unchanged since the last sweep
        Status st = saveSessionCheckpoint(config_.state_dir, s);
        if (st.ok()) {
            ckpt_stamp_[kv.first] = stamp;
            daemonMetrics().ckpt_saved.add();
            obs::emitInstant("daemon.ckpt");
        }
    }
    // Forget stamps for sessions the registry has evicted.
    for (auto it = ckpt_stamp_.begin(); it != ckpt_stamp_.end();) {
        if (sessions_.count(it->first) == 0)
            it = ckpt_stamp_.erase(it);
        else
            ++it;
    }
}

void
Server::requestStop()
{
    stop_requested_.store(true, std::memory_order_relaxed);
    const std::uint64_t one = 1;
    // write(2) on an eventfd is async-signal-safe; the loop wakes
    // even if it was parked in epoll_wait.
    [[maybe_unused]] ssize_t rc =
        ::write(wake_fd_, &one, sizeof(one));
}

void
Server::acceptReady()
{
    for (;;) {
        const int fd = net::acceptFd(listen_fd_);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            // ECONNABORTED and friends: the pending connection (if
            // any) is retried on the next level-triggered wake.
            return;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        auto c = std::make_unique<Conn>();
        c->fd = fd;
        c->token = next_token_++;
        c->shed = conns_.size() >= config_.max_connections;

        netMetrics().accepted.add();
        netMetrics().active.add(1);
        obs::emitInstant("net.accept");
        if (c->shed) {
            netMetrics().shed_connections.add();
            obs::emitInstant("net.shed");
        }

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
            ::close(fd);
            netMetrics().active.add(-1);
            netMetrics().closed.add();
            continue;
        }
        fd_to_token_[fd] = c->token;
        Conn &ref = *c;
        conns_[ref.token] = std::move(c);
        open_conns_.store(conns_.size(), std::memory_order_relaxed);
        armRead(ref, ReadDeadline::kFirstByte);
    }
}

void
Server::connReadable(Conn &c)
{
    char buf[64 * 1024];
    bool progressed = false;
    const std::uint64_t read_t0 = nowNs();
    for (;;) {
        const ssize_t n = net::readFd(c.fd, buf, sizeof(buf));
        if (n > 0) {
            progressed = true;
            c.in.append(buf, static_cast<std::size_t>(n));
            netMetrics().bytes_in.add(
                static_cast<std::uint64_t>(n));
            if (c.in.size() + c.out.size() >
                config_.max_buffer_bytes) {
                netMetrics().shed_buffer.add();
                obs::emitInstant("net.shed");
                dropConn(c, "connection buffer cap exceeded");
                return;
            }
            continue;
        }
        if (n == 0) {
            c.saw_eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        // A read error (reset, timeout) is a torn connection, never
        // end-of-stream: a CSV session completed by it would report
        // success on half a trace.
        dropConn(c, std::string("connection error: ") +
                        std::strerror(errno));
        return;
    }
    if (progressed) {
        if (c.session != nullptr)
            c.session->noteStage(SessionStage::kRead,
                                 nowNs() - read_t0);
        // First byte promotes to the absolute header deadline; later
        // bytes only refresh an idle deadline (a trickling hello must
        // not keep extending its clock).
        if (c.read_kind == ReadDeadline::kFirstByte)
            armRead(c, ReadDeadline::kHeader);
        else if (c.read_kind == ReadDeadline::kIdle)
            armRead(c, ReadDeadline::kIdle);
    }
    pumpConn(c);
}

void
Server::pumpConn(Conn &c)
{
    const std::uint64_t token = c.token;
    if (c.state == ConnState::kSniff)
        sniff(c);
    if (conns_.count(token) == 0)
        return;
    Conn &cc = *conns_[token];
    switch (cc.state) {
    case ConnState::kHttp:
        serveHttp(cc);
        break;
    case ConnState::kStream:
        streamBytes(cc);
        break;
    case ConnState::kSniff:
    case ConnState::kFold:
        if (cc.saw_eof && cc.state == ConnState::kSniff &&
            cc.in.empty()) {
            // Connected and went away without a byte.
            closeConn(cc.token);
            return;
        }
        break;
    }
    if (conns_.count(token) != 0)
        updateEpoll(*conns_[token]);
}

void
Server::sniff(Conn &c)
{
    const std::size_t n = c.in.size();
    if (n == 0)
        return;
    // "DLWS1 ..." → ingest session; anything else → HTTP.  Decide as
    // soon as the available bytes diverge from the hello magic.
    const std::size_t probe = std::min<std::size_t>(n, 5);
    if (std::memcmp(c.in.data(), net::kHelloMagic, probe) != 0) {
        c.state = ConnState::kHttp;
        return;
    }
    if (n < 5)
        return; // could still be either; wait
    const std::size_t nl = c.in.find('\n');
    if (nl == net::ByteQueue::npos) {
        if (n > net::kMaxHelloBytes) {
            netMetrics().protocol_errors.add();
            closeWith(c, net::renderReportError("oversized hello line"));
        }
        return;
    }
    std::string line(c.in.data(), nl);
    c.in.consume(nl + 1);

    net::StreamHello hello;
    Status s = net::parseStreamHello(line, hello);
    if (!s.ok()) {
        netMetrics().protocol_errors.add();
        closeWith(c, net::renderReportError(s.message()));
        return;
    }
    // Tag-aware shedding fires before the blunt overload check so a
    // bulk client learns it was throttled (retry later), not that
    // the daemon is down.
    const bool throttled = shedByQos(c, hello.tenant, hello.klass);
    if (throttled || c.shed || draining_) {
        if (!throttled)
            closeWith(c, net::renderReportError("overloaded"));
        // No Session exists yet, so a traced hello's marker is
        // interned here: once per shed, never on the data path.
        if (!hello.trace_id.empty() && obs::timelineEnabled())
            obs::emitInstant(obs::internTimelineName(
                "trace/" + hello.trace_id + "/server.shed"));
        return;
    }

    std::ostringstream id;
    id << hello.tenant << '-' << next_session_++;
    c.session = std::make_shared<Session>(id.str(), hello.tenant,
                                          hello.format, hello.klass,
                                          hello.trace_id);
    if (c.session->tlSpan() != nullptr)
        obs::emitBegin(c.session->tlSpan());
    // The registry keeps finished sessions queryable over HTTP, but
    // bounded: evict settled sessions once it outgrows the
    // connection budget by 4x.
    if (sessions_.size() >= config_.max_connections * 4) {
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            if (it->second->state() != SessionState::kStreaming &&
                sessions_.size() >= config_.max_connections * 2) {
                if (!config_.state_dir.empty())
                    removeSessionCheckpoint(config_.state_dir,
                                            it->first);
                it = sessions_.erase(it);
            } else {
                ++it;
            }
        }
    }
    sessions_[c.session->id()] = c.session;
    daemonMetrics().opened.add();
    daemonMetrics().active.add(1);
    // The ack carries the server's timeline clock so a tracing
    // client can stitch both sides onto one Perfetto timeline.
    queueWrite(c, net::renderStreamAck(c.session->id(),
                                       obs::timelineNowNs()));
    c.state = ConnState::kStream;
    armRead(c, ReadDeadline::kIdle);
}

void
Server::streamBytes(Conn &c)
{
    if (c.throttled)
        return; // buffered bytes wait for the resume timer
    const std::uint64_t before = c.session->records();
    if (!c.in.empty()) {
        if (rk_ != nullptr) {
            const std::uint64_t admit_t0 = nowNs();
            const qos::Admission verdict =
                rk_->admit(c.session->tag(), admit_t0);
            c.session->noteStage(SessionStage::kAdmit,
                                 nowNs() - admit_t0);
            if (verdict == qos::Admission::kDelay) {
                if (c.session->tlPark() != nullptr)
                    obs::emitInstant(c.session->tlPark());
                throttleConn(c, nowNs());
                return;
            }
        }
        Status s = c.session->consume(c.in);
        daemonMetrics().requests_streamed.add(c.session->records() -
                                              before);
        if (rk_ != nullptr) {
            rk_->charge(c.session->tag(),
                        c.session->records() - before);
        }
        if (!s.ok()) {
            failSession(c, s.message(), /*protocol=*/true);
            return;
        }
    }
    // The payload is over when the binary end frame lands or (CSV)
    // when the peer half-closes; either way validate + final fold.
    if (c.session->inputComplete() || c.saw_eof) {
        const std::uint64_t tail = c.session->records();
        Status s = c.session->finishInput(c.in);
        // The sub-batch tail folds inside finishInput; meter it like
        // any other batch so a short session still pays for what it
        // streamed (the debt is what throttles this tag's next one).
        daemonMetrics().requests_streamed.add(c.session->records() -
                                              tail);
        if (rk_ != nullptr) {
            rk_->charge(c.session->tag(),
                        c.session->records() - tail);
        }
        if (!s.ok()) {
            failSession(c, s.message(), /*protocol=*/false);
            return;
        }
        startFold(c);
    }
}

void
Server::failSession(Conn &c, const std::string &why, bool protocol)
{
    if (protocol)
        netMetrics().protocol_errors.add();
    // Decoder-path callers already aborted with a more precise
    // message (abort only latches the first one); eviction callers
    // land here directly, so the session must flip to aborted now.
    c.session->abort(why);
    if (c.session->settleOnce()) {
        daemonMetrics().aborted.add();
        daemonMetrics().active.add(-1);
    }
    closeWith(c, net::renderReportError(why));
}

void
Server::startFold(Conn &c)
{
    c.state = ConnState::kFold;
    armRead(c, ReadDeadline::kNone); // input is done; pool has it
    daemonMetrics().folds.add();
    std::shared_ptr<Session> session = c.session;
    const std::uint64_t token = c.token;
    Server *self = this;
    // With QoS on, folds queue in the session's class lane so an
    // interactive report never waits behind a pile of bulk folds;
    // off, every fold takes the pre-QoS (interactive) path.
    const qos::WorkClass lane = rk_ != nullptr
        ? c.session->klass() : qos::WorkClass::kInteractive;
    pool_->submit([self, session, token]() {
        FoldDone done;
        done.token = token;
        done.session = session;
        try {
            obs::ScopedTimer t(daemonMetrics().fold_seconds);
            if (session->tlFold() != nullptr)
                obs::emitBegin(session->tlFold());
            done.text = session->finalReportText();
            if (session->tlFold() != nullptr)
                obs::emitEnd(session->tlFold());
            done.ok = true;
        } catch (const std::exception &e) {
            session->abort(e.what());
            done.text = e.what();
            done.ok = false;
        }
        {
            std::lock_guard<std::mutex> lock(self->folds_mu_);
            self->folds_done_.push_back(std::move(done));
        }
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t rc =
            ::write(self->wake_fd_, &one, sizeof(one));
    }, lane);
}

void
Server::finishFolds()
{
    std::vector<FoldDone> done;
    {
        std::lock_guard<std::mutex> lock(folds_mu_);
        done.swap(folds_done_);
    }
    for (FoldDone &d : done) {
        if (d.session->tlReport() != nullptr)
            obs::emitInstant(d.session->tlReport());
        if (d.session->tlSpan() != nullptr)
            obs::emitEnd(d.session->tlSpan());
        if (d.session->settleOnce()) {
            if (d.ok)
                daemonMetrics().completed.add();
            else
                daemonMetrics().aborted.add();
            daemonMetrics().active.add(-1);
        }
        auto it = conns_.find(d.token);
        if (it == conns_.end())
            continue; // client vanished mid-fold
        Conn &c = *it->second;
        if (d.ok) {
            queueWrite(c, net::renderReportOk(d.text.size()));
            queueWrite(c, d.text);
        } else {
            queueWrite(c, net::renderReportError(d.text));
        }
        c.close_after_flush = true;
        connWritable(c);
    }
}

void
Server::queueWrite(Conn &c, const std::string &bytes)
{
    // Append only: the actual write happens on the next EPOLLOUT
    // (armed via updateEpoll), so queueing can never invalidate the
    // connection mid-caller.
    const bool was_empty = c.out.empty();
    c.out.append(bytes);
    if (was_empty && !c.out.empty())
        armWrite(c);
    updateEpoll(c);
}

void
Server::connWritable(Conn &c)
{
    bool progressed = false;
    while (!c.out.empty()) {
        const ssize_t n =
            net::writeFd(c.fd, c.out.data(), c.out.size());
        if (n > 0) {
            progressed = true;
            netMetrics().bytes_out.add(
                static_cast<std::uint64_t>(n));
            c.out.consume(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        // Peer is gone; nothing left to flush to it.
        dropConn(c, "peer disconnected");
        return;
    }
    if (c.out.empty()) {
        c.write_deadline_ns = 0;
        if (c.close_after_flush) {
            closeConn(c.token);
            return;
        }
    } else if (progressed) {
        armWrite(c); // stall clock restarts on any forward motion
    }
    updateEpoll(c);
}

void
Server::updateEpoll(Conn &c)
{
    // EPOLLIN stays disarmed while a stream is throttled: with
    // level-triggered epoll an armed-but-unread socket would spin
    // the loop, and leaving the bytes in the kernel buffer lets TCP
    // backpressure slow the sender for free.
    const bool want = !c.out.empty();
    const bool read_on = !c.throttled;
    if (want == c.want_write && read_on == c.read_armed)
        return;
    c.want_write = want;
    c.read_armed = read_on;
    epoll_event ev{};
    ev.events = (read_on ? EPOLLIN : 0u) | (want ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void
Server::closeConn(std::uint64_t token)
{
    auto it = conns_.find(token);
    if (it == conns_.end())
        return;
    Conn &c = *it->second;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    fd_to_token_.erase(c.fd);
    ::close(c.fd);
    netMetrics().active.add(-1);
    netMetrics().closed.add();
    conns_.erase(it);
    open_conns_.store(conns_.size(), std::memory_order_relaxed);
}

void
Server::shutdownAll()
{
    while (!conns_.empty())
        dropConn(*conns_.begin()->second, "server shutting down");
}

} // namespace daemon
} // namespace dlw
