/**
 * @file
 * The dlwd ingest wire protocol: hello line, length-prefixed binary
 * frames / CSV lines, and the incremental stream decoder.
 *
 * A streaming session is one TCP connection:
 *
 *   client -> server   "DLWS1 <csv|bin> <tenant>\n"      (hello)
 *   server -> client   "DLWS1 ok <session-id> <ts-ns>\n" (ack)
 *   client -> server   the trace payload (see below)
 *   server -> client   "DLWR1 ok <nbytes>\n<report>"     (final)
 *                  or  "DLWR1 error <message>\n"
 *
 * The payload is exactly the bytes of a dlw ms-trace file, so any
 * tool that can write a trace can stream one:
 *
 *  - csv: the `# dlw-ms-v1` header line, the column header line,
 *    then one record per line.  End-of-stream is the client
 *    half-closing its write side.
 *  - bin: the DLWMS1 byte stream chopped into length-prefixed
 *    frames — a 4-byte little-endian payload length followed by the
 *    payload; frame boundaries need not align with record
 *    boundaries.  A zero-length frame marks clean end-of-stream
 *    (mandatory: EOF without it is reported as an abrupt
 *    disconnect).  Frames above kMaxFrameBytes are a protocol
 *    error, shed before buffering.
 *
 * StreamDecoder is the incremental, push-fed parser the epoll loop
 * uses: feed it whatever bytes arrived, take full RequestBatches
 * out.  It shares the record codec with the file decoders
 * (trace/stream.hh), so a streamed trace parses byte-for-byte like
 * the same trace read from disk.  Corrupt records always abort the
 * session — a daemon cannot ask a remote client which recovery
 * policy it meant.
 */

#ifndef DLW_NET_WIRE_HH
#define DLW_NET_WIRE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/binenc.hh"
#include "common/status.hh"
#include "net/buffer.hh"
#include "qos/tag.hh"
#include "trace/batch.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace net
{

/** Hello / ack line prefix of a streaming session. */
inline constexpr const char *kHelloMagic = "DLWS1";

/** Final-response line prefix of a streaming session. */
inline constexpr const char *kReportMagic = "DLWR1";

/** Hard cap on the hello line (sniffing budget). */
inline constexpr std::size_t kMaxHelloBytes = 256;

/** Hard cap on one binary frame's payload. */
inline constexpr std::size_t kMaxFrameBytes = std::size_t(1) << 20;

/**
 * True for 1-64 bytes of [A-Za-z0-9._-]: the rule for the tenant and
 * trace ids a hello may carry and a checkpoint may name.  Such an id
 * is safe in a file name and needs no escaping in JSON.
 */
bool isIdToken(std::string_view s);

/** Payload encoding of a streaming session. */
enum class StreamFormat
{
    kCsv,
    kBin,
};

/** "csv" / "bin". */
const char *streamFormatName(StreamFormat f);

/** Parsed hello line. */
struct StreamHello
{
    StreamFormat format = StreamFormat::kCsv;
    std::string tenant = "anon";
    /** Workload class (optional 4th hello field). */
    qos::WorkClass klass = qos::WorkClass::kInteractive;
    /** Trace id (optional 5th hello field); empty means untraced. */
    std::string trace_id;
};

/**
 * Parse "DLWS1 <csv|bin> [tenant [class [trace]]]" (no trailing
 * newline).  `class` is interactive|bulk|background; absent means
 * interactive.  `trace` is a client-generated trace id
 * ([A-Za-z0-9._-], at most 64 bytes); absent means untraced.
 */
Status parseStreamHello(const std::string &line, StreamHello &out);

/**
 * Render the hello line, newline included.  The class field is only
 * emitted when non-default, so single-tenant hellos keep their
 * pre-QoS wire bytes ("anon" is emitted in its place when a
 * non-default class rides with an empty tenant).  The trace field is
 * only emitted when non-empty; because it is positional, it forces
 * the tenant and class slots to be filled when it rides along.
 */
std::string renderStreamHello(
    StreamFormat format, const std::string &tenant,
    qos::WorkClass klass = qos::WorkClass::kInteractive,
    const std::string &trace_id = std::string());

/**
 * Render the server's hello ack, "DLWS1 ok <session-id>
 * <server-ts-ns>\n": the server's monotonic timeline clock at ack
 * time lets a tracing client compute the clock offset that stitches
 * client- and server-side spans onto one timeline.
 */
std::string renderStreamAck(const std::string &session_id,
                            std::uint64_t server_ts_ns);

/** Render "DLWR1 ok <nbytes>\n" (the report bytes follow). */
std::string renderReportOk(std::size_t report_bytes);

/** Render "DLWR1 error <message>\n". */
std::string renderReportError(const std::string &message);

/**
 * Append one length-prefixed frame carrying [data, data+n) to out.
 * n must be in (0, kMaxFrameBytes].
 */
void appendFrame(std::string &out, const char *data, std::size_t n);

/** Append the zero-length end-of-stream frame to out. */
void appendEndFrame(std::string &out);

/**
 * Incremental decoder for the session payload (everything after the
 * hello line).
 *
 * Feed bytes with drain(); pull decoded requests with take().  A
 * non-OK status from any call is terminal.  done() reports that the
 * payload ended cleanly (for CSV that requires endOfInput()).
 */
class StreamDecoder
{
  public:
    /**
     * @param format         Payload encoding.
     * @param max_line_bytes Cap on one CSV line (protocol error
     *                       beyond it; ignored for binary, whose cap
     *                       is kMaxFrameBytes).
     */
    StreamDecoder(StreamFormat format, std::size_t max_line_bytes);

    /** Consume every parseable byte from `in`. */
    Status drain(ByteQueue &in);

    /**
     * The peer half-closed its write side.  Clean end for CSV;
     * a mid-stream disconnect error for binary unless the end frame
     * (and full record count) already arrived.
     */
    Status endOfInput();

    /** True once the ms-trace header has been decoded. */
    bool headerReady() const { return header_ready_; }

    /** Stream metadata (valid once headerReady()). */
    const trace::MsStreamHeader &header() const { return header_; }

    /** True when the payload ended cleanly. */
    bool done() const { return done_; }

    /** Records decoded so far. */
    std::uint64_t records() const { return records_; }

    /**
     * Move up to batch.capacity() pending requests into batch
     * (cleared first).
     *
     * @return True when at least one request was delivered.  While
     *         the stream is live only full batches are delivered, so
     *         chunk boundaries depend on batch capacity, never on
     *         how the network fragmented the bytes; after done() the
     *         final partial batch drains too.
     */
    bool take(trace::RequestBatch &batch);

    /**
     * Append the full decoder state — format, parse progress,
     * buffered payload bytes and undelivered requests — for a
     * crash-safe checkpoint.
     */
    void saveState(BinEnc &enc) const;

    /**
     * Restore state written by saveState(), replacing this decoder's
     * state wholesale (including format).  Resuming the byte stream
     * where the checkpoint cut it yields identical batches.
     *
     * @return false when the blob is truncated or garbled.
     */
    bool loadState(BinDec &dec);

  private:
    Status drainCsv(ByteQueue &in);
    /** Decode one CSV line (header, column line or record). */
    Status csvLine(std::string_view line);
    Status drainBin(ByteQueue &in);
    Status decodeBinPayload();

    StreamFormat format_;
    std::size_t max_line_bytes_;

    // CSV state.
    bool saw_header_line_ = false;
    bool saw_column_line_ = false;

    // Binary state: unframed payload plus header/record progress.
    ByteQueue payload_;
    bool have_frame_len_ = false;
    std::uint32_t frame_len_ = 0;
    bool saw_end_frame_ = false;
    std::uint64_t expected_records_ = 0;

    trace::MsStreamHeader header_;
    bool header_ready_ = false;
    bool done_ = false;
    std::uint64_t records_ = 0;

    std::vector<trace::Request> pending_;
    std::size_t pending_head_ = 0;
};

} // namespace net
} // namespace dlw

#endif // DLW_NET_WIRE_HH
