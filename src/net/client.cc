#include "net/client.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/strutil.hh"
#include "obs/timeline.hh"

namespace dlw
{
namespace net
{

namespace
{

/** Cap on one response line (ack or report header). */
constexpr std::size_t kMaxLineBytes = std::size_t(1) << 16;

/** Payload bytes per send (and per frame, for bin sessions). */
constexpr std::size_t kChunkBytes = 64 * 1024;

/** The message of a "DLWR1 error <message>" line, or false. */
bool
errorLine(const std::string &line, std::string &msg)
{
    const std::string head = std::string(kReportMagic) + " error";
    if (line != head && !startsWith(line, head + " "))
        return false;
    msg = line.substr(std::min(line.size(), head.size() + 1));
    return true;
}

} // namespace

StatusOr<ClientConn>
ClientConn::dial(const Endpoint &to)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(to.port));
    if (::inet_pton(AF_INET, to.host.c_str(), &addr.sin_addr) != 1) {
        return Status::invalidArgument(
            "bad host '" + to.host + "' (want a dotted IPv4 address)");
    }
    const int fd = ::socket(
        AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return Status::ioError(std::string("socket: ") +
                               std::strerror(errno));
    ClientConn conn(fd);

    // Non-blocking connect + poll gives the connect its deadline;
    // the connection is blocking again afterwards.
    const std::string where =
        "connect " + to.host + ":" + std::to_string(to.port);
    int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    if (rc < 0 && errno == EINPROGRESS) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const int timeout = to.connect_timeout_ms == 0
            ? -1 : static_cast<int>(to.connect_timeout_ms);
        do {
            rc = ::poll(&pfd, 1, timeout);
        } while (rc < 0 && errno == EINTR);
        if (rc == 0) {
            return Status::unavailable(
                where + ": timed out after " +
                std::to_string(to.connect_timeout_ms) + "ms");
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (rc < 0 ||
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
            err != 0) {
            return Status::unavailable(
                where + ": " + std::strerror(err != 0 ? err : errno));
        }
    } else if (rc < 0) {
        return Status::unavailable(where + ": " + std::strerror(errno));
    }
    const int flags = ::fcntl(fd, F_GETFL);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (to.io_timeout_ms != 0) {
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(to.io_timeout_ms / 1000);
        tv.tv_usec = static_cast<suseconds_t>(to.io_timeout_ms % 1000) *
                     1000;
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    return conn;
}

ClientConn::ClientConn(ClientConn &&o) noexcept
    : fd_(o.fd_), buf_(std::move(o.buf_)), head_(o.head_)
{
    o.fd_ = -1;
}

ClientConn::~ClientConn()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Status
ClientConn::sendAll(std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t w =
            ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            // The server vanishing mid-payload is the failure the
            // read side reports as a short response: same status.
            if (errno == EPIPE || errno == ECONNRESET)
                return Status::truncated(
                    "server closed the connection mid-stream");
            return Status::ioError(std::string("write: ") +
                                   std::strerror(errno));
        }
        bytes.remove_prefix(static_cast<std::size_t>(w));
    }
    return Status();
}

void
ClientConn::shutdownWrite()
{
    ::shutdown(fd_, SHUT_WR);
}

ssize_t
ClientConn::fill()
{
    buf_.erase(0, head_);
    head_ = 0;
    char tmp[kChunkBytes];
    for (;;) {
        const ssize_t r = ::read(fd_, tmp, sizeof(tmp));
        if (r < 0 && errno == EINTR)
            continue;
        if (r > 0)
            buf_.append(tmp, static_cast<std::size_t>(r));
        return r;
    }
}

Status
ClientConn::readLine(std::string &line)
{
    std::size_t scanned = 0; // bytes past head_ known to hold no '\n'
    for (;;) {
        const std::size_t nl = buf_.find('\n', head_ + scanned);
        if (nl != std::string::npos) {
            line.assign(buf_, head_, nl - head_);
            head_ = nl + 1;
            return Status();
        }
        scanned = buf_.size() - head_;
        if (scanned > kMaxLineBytes)
            return Status::corruptData("oversized response line");
        if (fill() <= 0)
            return Status::truncated(
                "server closed the connection mid-line");
    }
}

Status
ClientConn::readExact(std::size_t n, std::string &out)
{
    out.clear();
    while (out.size() < n) {
        if (head_ == buf_.size() && fill() <= 0)
            return Status::truncated("server closed mid-report");
        const std::size_t take =
            std::min(n - out.size(), buf_.size() - head_);
        out.append(buf_, head_, take);
        head_ += take;
    }
    return Status();
}

Status
ClientConn::readToEof(std::string &out)
{
    for (;;) {
        out.append(buf_, head_);
        head_ = buf_.size();
        const ssize_t r = fill();
        if (r == 0)
            return Status();
        if (r < 0)
            return Status::ioError(std::string("read: ") +
                                   std::strerror(errno));
    }
}

StatusOr<std::string>
httpGet(const Endpoint &to, const std::string &path)
{
    StatusOr<ClientConn> conn = ClientConn::dial(to);
    if (!conn.ok())
        return conn.status();
    // Connection: close makes "read to EOF" delimit the body.
    Status s = conn.value().sendAll("GET " + path + " HTTP/1.1\r\nHost: " +
                                    to.host +
                                    "\r\nConnection: close\r\n\r\n");
    std::string raw;
    if (s.ok())
        s = conn.value().readToEof(raw);
    if (!s.ok())
        return s;
    return raw;
}

StatusOr<std::string>
httpGetBody(const Endpoint &to, const std::string &path)
{
    StatusOr<std::string> got = httpGet(to, path);
    if (!got.ok())
        return got.status();
    const std::string &raw = got.value();
    const std::size_t split = raw.find("\r\n\r\n");
    if (split == std::string::npos)
        return Status::corruptData("malformed HTTP response to GET " +
                                   path);
    const std::string status_line = raw.substr(0, raw.find("\r\n"));
    if (status_line.find(" 200 ") == std::string::npos)
        return Status::ioError("GET " + path + ": " + status_line);
    return raw.substr(split + 4);
}

namespace
{

/** Read the hello ack into `reply`, classifying a refusal. */
Status
readAck(ClientConn &conn, StreamReply &reply)
{
    std::string line;
    Status s = conn.readLine(line);
    if (!s.ok())
        return s;
    reply.client_ack_ns = obs::timelineNowNs();
    std::string msg;
    if (errorLine(line, msg)) {
        // Shed before admission: worth retrying, unlike an error
        // about the session itself.
        if (msg == "overloaded")
            return Status::unavailable("server overloaded");
        if (msg == "throttled")
            return Status::unavailable("server throttled this class");
        return Status::failedPrecondition(msg);
    }
    // The optional 4th field is the server's monotonic clock at the
    // ack: paired with client_ack_ns it is the clock-offset estimate
    // that aligns the two processes' timelines.
    const std::vector<std::string> f = split(line, ' ');
    if ((f.size() != 3 && f.size() != 4) || f[0] != kHelloMagic ||
        f[1] != "ok" ||
        (f.size() == 4 && !tryParseUint(f[3], reply.server_ack_ns)))
        return Status::corruptData("bad hello ack '" + line + "'");
    reply.session_id = f[2];
    return Status();
}

/** Read the final "DLWR1 ok <n>" report into `reply`. */
Status
readReport(ClientConn &conn, StreamReply &reply)
{
    std::string line;
    Status s = conn.readLine(line);
    if (!s.ok())
        return s;
    std::string msg;
    if (errorLine(line, msg))
        return Status::failedPrecondition(msg);
    const std::vector<std::string> f = split(line, ' ');
    std::uint64_t nbytes = 0;
    if (f.size() != 3 || f[0] != kReportMagic || f[1] != "ok" ||
        !tryParseUint(f[2], nbytes))
        return Status::corruptData("bad response '" + line + "'");
    return conn.readExact(nbytes, reply.report);
}

/**
 * Send payload bytes, chopped into frames of at most kChunkBytes when
 * the session is bin.
 */
Status
sendBytes(ClientConn &conn, bool bin, std::string_view bytes)
{
    if (!bin)
        return conn.sendAll(bytes);
    std::string framed;
    while (!bytes.empty()) {
        const std::size_t n = std::min(bytes.size(), kChunkBytes);
        framed.clear();
        appendFrame(framed, bytes.data(), n);
        Status s = conn.sendAll(framed);
        if (!s.ok())
            return s;
        bytes.remove_prefix(n);
    }
    return Status();
}

/**
 * One session.  `send_payload` sends every payload byte once the ack
 * has admitted the session.
 */
StatusOr<StreamReply>
runSession(const Endpoint &to, const StreamHello &hello,
           const std::function<Status(ClientConn &, bool)> &send_payload,
           const std::function<void(const StreamReply &)> &on_ack)
{
    // Client-side spans for the end-to-end trace, named under the
    // session's trace id so a merged file groups both processes'
    // slices.  All no-ops while the timeline is disarmed.
    const std::string base = "trace/" + hello.trace_id + "/client.";
    const auto span = [&](const char *leaf) -> const char * {
        return hello.trace_id.empty()
            ? nullptr : obs::internTimelineName(base + leaf);
    };
    const char *tl_connect = span("connect");
    const char *tl_stream = span("stream");
    const char *tl_report = span("report");
    const auto mark = [](const char *name, bool begin) {
        if (name != nullptr)
            begin ? obs::emitBegin(name) : obs::emitEnd(name);
    };

    mark(tl_connect, true);
    StatusOr<ClientConn> dialed = ClientConn::dial(to);
    if (!dialed.ok())
        return dialed.status();
    ClientConn &conn = dialed.value();
    const bool bin = hello.format == StreamFormat::kBin;
    // The payload, then the bin end frame and the half-close.
    const auto payload = [&] {
        Status st = send_payload(conn, bin);
        std::string end;
        if (st.ok() && bin) {
            appendEndFrame(end);
            st = conn.sendAll(end);
        }
        if (st.ok())
            conn.shutdownWrite();
        return st;
    };
    Status s = conn.sendAll(renderStreamHello(
        hello.format, hello.tenant, hello.klass, hello.trace_id));
    if (!s.ok())
        return s;
    StreamReply reply;
    s = readAck(conn, reply);
    if (!s.ok())
        return s;
    mark(tl_connect, false);
    if (on_ack)
        on_ack(reply);
    mark(tl_stream, true);
    s = payload();
    if (!s.ok())
        return s;
    mark(tl_stream, false);
    mark(tl_report, true);
    s = readReport(conn, reply);
    if (!s.ok())
        return s;
    mark(tl_report, false);
    return reply;
}

} // namespace

StatusOr<StreamReply>
streamSession(const Endpoint &to, const StreamHello &hello,
              std::istream &payload,
              const std::function<void(const StreamReply &)> &on_ack)
{
    const auto send = [&payload](ClientConn &conn, bool bin) {
        std::vector<char> buf(kChunkBytes);
        while (payload) {
            payload.read(buf.data(),
                         static_cast<std::streamsize>(buf.size()));
            const auto got = static_cast<std::size_t>(payload.gcount());
            Status s = sendBytes(conn, bin,
                                 std::string_view(buf.data(), got));
            if (!s.ok())
                return s;
        }
        return Status();
    };
    return runSession(to, hello, send, on_ack);
}

StatusOr<StreamReply>
streamSession(const Endpoint &to, const StreamHello &hello,
              std::string_view payload)
{
    const auto send = [payload](ClientConn &conn, bool bin) {
        return sendBytes(conn, bin, payload);
    };
    return runSession(to, hello, send, {});
}

} // namespace net
} // namespace dlw
