/**
 * @file
 * Streaming ms-trace file decoders: CSV and binary sources that
 * deliver a file chunk-by-chunk instead of materializing it.
 *
 * These are the file-backed implementations of trace::RequestSource.
 * The header (drive id, observation window) is decoded eagerly by the
 * open*() factory — header corruption is never recoverable and fails
 * the open — and the records are decoded lazily, one RequestBatch per
 * next() call, under the caller's corrupt-record policy.  A source
 * reads its stream in kDecodeBlockBytes blocks into one buffer it owns
 * and decodes records straight out of it, so peak decode memory is
 * O(batch + block + longest line), not O(file).
 *
 * The whole-trace readers in trace/csvio.hh and trace/binio.hh are
 * thin drains over these sources, so there is exactly one decode
 * implementation per format and the streaming path is byte-for-byte
 * the same parse the legacy path performs.
 */

#ifndef DLW_TRACE_STREAM_HH
#define DLW_TRACE_STREAM_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.hh"
#include "trace/gate.hh"
#include "trace/ingest.hh"
#include "trace/source.hh"

namespace dlw
{
namespace trace
{

/**
 * Base of the file-backed sources: metadata, policy gate, terminal
 * status, and the ingest.* metrics scope (flushed on destruction,
 * like the whole-trace readers).
 */
class FileSource : public RequestSource
{
  public:
    ~FileSource() override = default;

    const std::string &driveId() const override { return drive_id_; }

    Tick start() const override { return start_; }

    Tick duration() const override { return duration_; }

    Status
    status() const override
    {
        if (status_.ok() || context_.empty())
            return status_;
        Status s = status_;
        return s.withContext(context_);
    }

    /** Ingestion counters accumulated so far. */
    const IngestStats &stats() const { return gate_.st; }

    /**
     * Context frame ("reading '<path>'") prepended to mid-stream
     * errors; the path factories set it so streaming failures name
     * their file like the whole-trace readers do.
     */
    void setContext(std::string ctx) { context_ = std::move(ctx); }

  protected:
    FileSource(const IngestOptions &opts, std::string drive_id,
               Tick start, Tick duration)
        : drive_id_(std::move(drive_id)), start_(start),
          duration_(duration), opts_(opts), gate_{opts_, {}},
          obs_scope_(gate_.st)
    {
    }

    std::string drive_id_;
    Tick start_ = 0;
    Tick duration_ = 0;
    IngestOptions opts_;
    Gate gate_;
    IngestMetricsScope obs_scope_;
    Status status_;
    std::string context_;
    bool done_ = false;
};

/**
 * Bytes a file source reads from its stream at a time, into the one
 * buffer the source owns.  A CSV line (or binary header field) longer
 * than this grows the buffer to fit.
 */
constexpr std::size_t kDecodeBlockBytes = 64 * 1024;

/**
 * Open a streaming CSV decoder over a caller-owned stream (which
 * must outlive the source) or a file path.  Fails on a bad or
 * truncated header.  The source reads the stream in blocks, so it
 * may consume bytes past the last record it has delivered.
 */
StatusOr<std::unique_ptr<FileSource>> openMsCsvSource(
    std::istream &is, const IngestOptions &opts);
StatusOr<std::unique_ptr<FileSource>> openMsCsvSource(
    const std::string &path, const IngestOptions &opts);

/** Open a streaming binary decoder (stream or path). */
StatusOr<std::unique_ptr<FileSource>> openMsBinarySource(
    std::istream &is, const IngestOptions &opts);
StatusOr<std::unique_ptr<FileSource>> openMsBinarySource(
    const std::string &path, const IngestOptions &opts);

/**
 * Drain a freshly opened source into a whole trace, propagating the
 * open error verbatim when there is no source.  The legacy readers in
 * csvio/binio are this shim over the streaming decoders, so both
 * paths share one decode implementation byte for byte.  On any
 * failure `stats` (when given) holds the counters accumulated before
 * the error.
 */
StatusOr<MsTrace> drainMsSource(
    StatusOr<std::unique_ptr<FileSource>> src, IngestStats *stats);

// ---------------------------------------------------------------------------
// The ms-trace wire grammar, exported so the network framing layer
// (src/net) decodes exactly the bytes the file decoders decode — one
// record codec per format, whether it arrives from a file or a
// socket.

/** Parse a `# dlw-ms-v1,<id>,<start>,<duration>` header line. */
Status parseMsCsvHeaderLine(std::string_view line,
                            MsStreamHeader &out);

/**
 * Outcome of decoding one record (CSV line or raw binary record).
 * `why` is the bare corruption reason; callers decorate it with
 * their own position frame (line number, record index).
 */
struct MsRecordParse
{
    std::string why;      ///< empty for a clean parse
    bool clamped = false; ///< repaired under the clamp policy

    /** True when the output record is usable (clean or repaired). */
    bool usable() const { return why.empty() || clamped; }
};

/**
 * Parse one trimmed, non-empty CSV record line
 * (`arrival,lba,blocks,op`) in one left-to-right scan.  Each field
 * is trimmed of C-locale whitespace and must parse whole: no `+`, no
 * sign on lba or blocks, no overflow.  `clamp` enables the
 * best-effort repairs of RecordPolicy::kBestEffortClamp (lowercase
 * ops, zero-length requests).
 */
MsRecordParse parseMsCsvRecordLine(std::string_view trimmed,
                                   bool clamp, Request &out);

/** On-wire binary request record, explicitly padded to 24 bytes. */
struct MsRawRecord
{
    std::int64_t arrival;
    std::uint64_t lba;
    std::uint32_t blocks;
    std::uint8_t op;
    std::uint8_t pad[3];
};
static_assert(sizeof(MsRawRecord) == 24, "raw record layout changed");

/** Magic prefix of a DLWMS1 binary ms trace. */
extern const std::array<char, 8> kMsBinaryMagic;

/** Validate (and under `clamp`, repair) one raw binary record. */
MsRecordParse decodeMsRawRecord(const MsRawRecord &raw, bool clamp,
                                Request &out);

/**
 * Open a streaming decoder picked by file extension (.csv or .bin).
 * SPC traces are not streamable — their arrivals need a global sort —
 * so .spc returns InvalidArgument; materialize those via readSpc().
 */
StatusOr<std::unique_ptr<FileSource>> openMsSource(
    const std::string &path, const IngestOptions &opts);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_STREAM_HH
