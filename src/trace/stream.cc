#include "trace/stream.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/strutil.hh"
#include "obs/span.hh"

namespace dlw
{
namespace trace
{

Status
openTraceFile(const std::string &path, std::ifstream &is, bool binary)
{
    obs::ScopedSpan span("ingest.open");
    if (FAULT_POINT("trace.open")) {
        return Status::ioError("injected fault at trace.open on '" +
                               path + "'");
    }
    if (binary)
        is.open(path, std::ios::binary);
    else
        is.open(path);
    if (!is)
        return Status::ioError("cannot open '" + path + "' for reading");
    return Status();
}

std::string
atLine(std::size_t lineno, const std::string &what)
{
    std::ostringstream os;
    os << "line " << lineno << ": " << what;
    return os.str();
}

namespace
{

/** `<what> '<field>'`, a record parse's failure text. */
std::string
quoted(std::string_view what, std::string_view field)
{
    std::string s(what);
    s += " '";
    s += field;
    s += '\'';
    return s;
}

/**
 * Parse the numeric field at `at` and step past the comma after it.
 * Whitespace may surround the digits; the digits must parse whole
 * (no `+`, no overflow, no sign on an unsigned field).  On failure
 * `v` is untouched and `at` is left inside the field.
 */
template <typename T>
bool
numberField(const char *&at, const char *end, T &v)
{
    while (at != end && isSpace(*at))
        ++at;
    T value{};
    const auto [next, ec] = std::from_chars(at, end, value);
    if (ec != std::errc())
        return false;
    at = next;
    while (at != end && isSpace(*at))
        ++at;
    if (at == end || *at != ',')
        return false;
    ++at;
    v = value;
    return true;
}

/**
 * Why a record line whose field at `field` failed to parse is
 * corrupt.  A field count other than four outranks any field's text.
 */
std::string
fieldDefect(std::string_view line, const char *field,
            std::string_view what)
{
    if (std::count(line.begin(), line.end(), ',') != 3)
        return "expected 4 fields";
    const char *to = std::find(field, line.data() + line.size(), ',');
    return quoted(what, trimView(std::string_view(
                            field, static_cast<std::size_t>(to - field))));
}

/**
 * A file source's input: reads the stream in kDecodeBlockBytes
 * blocks into one buffer and hands out CSV lines or fixed-size byte
 * runs as views into it.  A line or run longer than the buffer grows
 * it.  A view dies at the next call.
 */
class BlockReader
{
  public:
    /** `owned` is set for path opens; `is` must outlive the reader. */
    BlockReader(std::unique_ptr<std::istream> owned, std::istream &is)
        : owned_(std::move(owned)), is_(is), buf_(kDecodeBlockBytes)
    {
    }

    /**
     * The next line, without its '\n'; false at the end of input.
     * A last line with no newline is still a line, as for getline.
     */
    bool
    nextLine(std::string_view &line)
    {
        std::size_t scanned = 0; // bytes past head_ known to hold no '\n'
        for (;;) {
            const char *from = buf_.data() + head_;
            const std::size_t avail = tail_ - head_;
            const void *nl =
                std::memchr(from + scanned, '\n', avail - scanned);
            if (nl != nullptr) {
                const auto n = static_cast<std::size_t>(
                    static_cast<const char *>(nl) - from);
                line = std::string_view(from, n);
                head_ += n + 1;
                return true;
            }
            scanned = avail;
            if (!refill())
                break;
        }
        if (head_ == tail_)
            return false;
        line = std::string_view(buf_.data() + head_, tail_ - head_);
        head_ = tail_;
        return true;
    }

    /** The next `n` bytes, or nullptr when fewer remain. */
    const char *
    take(std::size_t n)
    {
        while (tail_ - head_ < n) {
            if (!refill())
                return nullptr;
        }
        const char *p = buf_.data() + head_;
        head_ += n;
        return p;
    }

  private:
    /**
     * Move the unread bytes to the front, grow the buffer if they
     * fill it, and read as much as fits.  False when the stream had
     * nothing more.
     */
    bool
    refill()
    {
        if (eof_)
            return false;
        if (head_ != 0) {
            std::memmove(buf_.data(), buf_.data() + head_,
                         tail_ - head_);
            tail_ -= head_;
            head_ = 0;
        }
        if (tail_ == buf_.size())
            buf_.resize(2 * buf_.size());
        const std::size_t want = buf_.size() - tail_;
        is_.read(buf_.data() + tail_, static_cast<std::streamsize>(want));
        const auto got = static_cast<std::size_t>(is_.gcount());
        tail_ += got;
        // istream::read stops short only at the end of the stream.
        eof_ = got < want;
        return got != 0;
    }

    std::unique_ptr<std::istream> owned_;
    std::istream &is_;
    std::vector<char> buf_;
    std::size_t head_ = 0; ///< first unread byte
    std::size_t tail_ = 0; ///< one past the last byte read
    bool eof_ = false;
};

/**
 * Streaming decoder for the dlw-ms-v1 CSV format.  Each next() call
 * takes lines out of the block buffer until the batch is full.  Line
 * numbers count blank lines too, and a record's input bytes include
 * its newline, even for a last line without one.
 */
class MsCsvSource final : public FileSource
{
  public:
    MsCsvSource(const IngestOptions &opts, MsStreamHeader head,
                BlockReader in)
        : FileSource(opts, std::move(head.drive_id), head.start,
                     head.duration),
          in_(std::move(in))
    {
    }

    bool
    next(RequestBatch &batch) override
    {
        batch.clear();
        if (done_)
            return false;

        const bool clamp = gate_.clampMode();
        std::string_view line;
        while (!batch.full() && in_.nextLine(line)) {
            ++lineno_;
            const std::string_view t = trimView(line);
            if (t.empty())
                continue;
            const std::size_t record_bytes = line.size() + 1;

            Request r;
            const MsRecordParse p =
                FAULT_POINT("trace.read.record")
                    ? MsRecordParse{"injected fault at trace.read.record"}
                    : parseMsCsvRecordLine(t, clamp, r);
            if (!p.why.empty()) {
                Status s = gate_.corrupt(atLine(lineno_, p.why));
                if (!s.ok()) {
                    status_ = std::move(s);
                    done_ = true;
                    return false;
                }
                if (!p.clamped) {
                    gate_.skip();
                    continue;
                }
                gate_.clamped();
            }
            batch.append(r);
            gate_.accept(record_bytes);
        }

        if (!batch.full())
            done_ = true;
        if (batch.empty())
            return false;
        noteBatchDecoded(batch);
        return true;
    }

  private:
    BlockReader in_;
    std::size_t lineno_ = 2; ///< two header lines already consumed
};

/**
 * Streaming decoder for the DLWMS1 binary format.  The record count
 * comes from the header, so end-of-stream and truncation are
 * distinguishable; a truncated tail under the recovering policies
 * keeps the intact prefix, exactly like the whole-file reader.
 */
class MsBinarySource final : public FileSource
{
  public:
    MsBinarySource(const IngestOptions &opts, std::string drive_id,
                   Tick start, Tick duration, std::uint64_t count,
                   BlockReader in)
        : FileSource(opts, std::move(drive_id), start, duration),
          in_(std::move(in)), count_(count)
    {
    }

    bool
    next(RequestBatch &batch) override
    {
        batch.clear();
        if (done_)
            return false;

        const bool clamp = gate_.clampMode();
        while (!batch.full() && i_ < count_) {
            const char *bytes = in_.take(sizeof(MsRawRecord));
            if (bytes == nullptr) {
                std::ostringstream os;
                os << "truncated binary trace at record " << i_
                   << " of " << count_;
                gate_.st.noteError(os.str(),
                                   opts_.max_error_samples);
                if (opts_.policy == RecordPolicy::kAbort) {
                    status_ = Status::truncated(os.str());
                    done_ = true;
                    return false;
                }
                // Keep the prefix: everything before the cut is
                // intact.
                gate_.st.records_skipped += count_ - i_;
                i_ = count_;
                break;
            }
            MsRawRecord raw;
            std::memcpy(&raw, bytes, sizeof raw);
            const std::uint64_t rec = i_++;

            std::string why;
            bool was_clamped = false;
            Request r;
            if (FAULT_POINT("trace.read.record")) {
                std::ostringstream os;
                os << "injected fault at trace.read.record (record "
                   << rec << ")";
                why = os.str();
            } else {
                MsRecordParse p = decodeMsRawRecord(raw, clamp, r);
                was_clamped = p.clamped;
                if (!p.why.empty()) {
                    std::ostringstream os;
                    os << p.why << " at record " << rec;
                    why = os.str();
                }
            }

            if (!why.empty()) {
                Status s = gate_.corrupt(why);
                if (!s.ok()) {
                    status_ = std::move(s);
                    done_ = true;
                    return false;
                }
                if (!was_clamped) {
                    gate_.skip();
                    continue;
                }
                gate_.clamped();
            }

            batch.append(r);
            gate_.accept(sizeof(MsRawRecord));
        }

        if (i_ >= count_)
            done_ = true;
        if (batch.empty())
            return false;
        noteBatchDecoded(batch);
        return true;
    }

  private:
    BlockReader in_;
    std::uint64_t count_ = 0;
    std::uint64_t i_ = 0;
};

/** Read a T off the front of `in`; false when too few bytes remain. */
template <typename T>
bool
takeRaw(BlockReader &in, T &v)
{
    const char *p = in.take(sizeof(T));
    if (p == nullptr)
        return false;
    std::memcpy(&v, p, sizeof(T));
    return true;
}

StatusOr<std::unique_ptr<FileSource>>
makeCsvSource(std::unique_ptr<std::istream> owned, std::istream &is,
              const IngestOptions &opts)
{
    BlockReader in(std::move(owned), is);
    std::string_view line;
    if (!in.nextLine(line))
        return Status::truncated("empty ms-trace CSV");
    MsStreamHeader head;
    Status hs = parseMsCsvHeaderLine(line, head);
    if (!hs.ok())
        return hs;
    if (!in.nextLine(line)) {
        return Status::truncated(
            "truncated CSV: missing column header");
    }
    return std::unique_ptr<FileSource>(
        new MsCsvSource(opts, std::move(head), std::move(in)));
}

StatusOr<std::unique_ptr<FileSource>>
makeBinarySource(std::unique_ptr<std::istream> owned,
                 std::istream &is, const IngestOptions &opts)
{
    BlockReader in(std::move(owned), is);
    // The header is not policy-recoverable: without a trustworthy
    // record count and id there is nothing to resynchronize on.
    std::array<char, 8> magic{};
    if (!takeRaw(in, magic) || magic != kMsBinaryMagic) {
        return Status::corruptData(
            "not a dlw binary ms trace (bad magic)");
    }

    std::uint32_t id_len = 0;
    if (!takeRaw(in, id_len)) {
        return Status::truncated(
            "truncated binary trace while reading id length");
    }
    if (id_len > 4096) {
        std::ostringstream os;
        os << "implausible drive-id length " << id_len;
        return Status::corruptData(os.str());
    }
    const char *id = in.take(id_len);
    if (id == nullptr) {
        return Status::truncated(
            "truncated binary trace while reading drive id");
    }
    std::string drive_id(id, id_len);

    Tick start = 0, duration = 0;
    std::uint64_t count = 0;
    if (!takeRaw(in, start) || !takeRaw(in, duration) ||
        !takeRaw(in, count)) {
        return Status::truncated(
            "truncated binary trace while reading header");
    }
    if (duration < 0) {
        return Status::corruptData(
            "negative duration in binary header");
    }
    if (!windowEndFits(start, duration)) {
        return Status::corruptData(
            "window end past the largest tick in binary header");
    }
    return std::unique_ptr<FileSource>(
        new MsBinarySource(opts, std::move(drive_id), start, duration,
                           count, std::move(in)));
}

StatusOr<std::unique_ptr<FileSource>>
openFromPath(const std::string &path, const IngestOptions &opts,
             bool binary)
{
    auto owned = std::make_unique<std::ifstream>();
    Status s = openTraceFile(path, *owned, binary);
    if (!s.ok())
        return s;
    std::istream &is = *owned;
    auto r = binary ? makeBinarySource(std::move(owned), is, opts)
                    : makeCsvSource(std::move(owned), is, opts);
    if (!r.ok()) {
        Status e = r.status();
        return e.withContext("reading '" + path + "'");
    }
    r.value()->setContext("reading '" + path + "'");
    return r;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

} // anonymous namespace

const std::array<char, 8> kMsBinaryMagic =
    {'D', 'L', 'W', 'M', 'S', '1', '\0', '\0'};

Status
parseMsCsvHeaderLine(std::string_view line, MsStreamHeader &out)
{
    auto head = split(trim(line), ',');
    std::int64_t start = 0, duration = 0;
    if (head.size() != 4 || head[0] != "# dlw-ms-v1" ||
        !tryParseInt(head[2], start) ||
        !tryParseInt(head[3], duration) ||
        !windowEndFits(start, duration)) {
        return Status::corruptData("bad ms-trace header '" +
                                   trim(line) + "'");
    }
    out.drive_id = head[1];
    out.start = start;
    out.duration = duration;
    return Status();
}

MsRecordParse
parseMsCsvRecordLine(std::string_view trimmed, bool clamp,
                     Request &out)
{
    MsRecordParse p;
    const char *at = trimmed.data();
    const char *const end = at + trimmed.size();
    const char *field = at;
    if (!numberField(at, end, out.arrival)) {
        p.why = fieldDefect(trimmed, field, "malformed arrival");
        return p;
    }
    field = at;
    if (!numberField(at, end, out.lba)) {
        p.why = fieldDefect(trimmed, field, "malformed lba");
        return p;
    }
    field = at;
    std::uint64_t blocks = 0;
    if (!numberField(at, end, blocks)) {
        p.why = fieldDefect(trimmed, field, "malformed blocks");
        return p;
    }
    out.blocks = static_cast<BlockCount>(blocks);

    const std::string_view op = trimView(
        std::string_view(at, static_cast<std::size_t>(end - at)));
    if (op == "R") {
        out.op = Op::Read;
    } else if (op == "W") {
        out.op = Op::Write;
    } else if (op.find(',') != std::string_view::npos) {
        p.why = "expected 4 fields";
        return p;
    } else if (clamp && (op == "r" || op == "w")) {
        out.op = op == "r" ? Op::Read : Op::Write;
        p.clamped = true;
        p.why = quoted("lowercase op", op);
    } else {
        p.why = quoted("bad op", op);
    }
    if ((p.why.empty() || p.clamped) && out.blocks == 0) {
        p.clamped = clamp;
        p.why = "zero-length request";
        if (clamp)
            out.blocks = 1;
    }
    return p;
}

MsRecordParse
decodeMsRawRecord(const MsRawRecord &raw, bool clamp, Request &out)
{
    // Both defects are checked so a clamped record is repaired
    // whole; `why` keeps the first one's text.
    MsRecordParse p;
    MsRawRecord r = raw;
    if (r.op > 1) {
        p.why = "bad op byte";
        if (clamp) {
            r.op &= 1;
            p.clamped = true;
        }
    }
    if (r.blocks == 0) {
        if (p.why.empty())
            p.why = "zero-length request";
        if (clamp) {
            r.blocks = 1;
            p.clamped = true;
        }
    }
    out.arrival = r.arrival;
    out.lba = r.lba;
    out.blocks = r.blocks;
    out.op = static_cast<Op>(r.op & 1);
    return p;
}

StatusOr<std::unique_ptr<FileSource>>
openMsCsvSource(std::istream &is, const IngestOptions &opts)
{
    return makeCsvSource(nullptr, is, opts);
}

StatusOr<std::unique_ptr<FileSource>>
openMsCsvSource(const std::string &path, const IngestOptions &opts)
{
    return openFromPath(path, opts, /*binary=*/false);
}

StatusOr<std::unique_ptr<FileSource>>
openMsBinarySource(std::istream &is, const IngestOptions &opts)
{
    return makeBinarySource(nullptr, is, opts);
}

StatusOr<std::unique_ptr<FileSource>>
openMsBinarySource(const std::string &path, const IngestOptions &opts)
{
    return openFromPath(path, opts, /*binary=*/true);
}

StatusOr<MsTrace>
drainMsSource(StatusOr<std::unique_ptr<FileSource>> src,
              IngestStats *stats)
{
    if (!src.ok()) {
        if (stats)
            *stats = IngestStats{};
        return src.status();
    }
    FileSource &source = *src.value();
    MsTrace trace;
    Status s = drainToTrace(source, trace);
    if (stats)
        *stats = source.stats();
    if (!s.ok())
        return s;
    return trace;
}

StatusOr<std::unique_ptr<FileSource>>
openMsSource(const std::string &path, const IngestOptions &opts)
{
    if (endsWith(path, ".bin"))
        return openMsBinarySource(path, opts);
    if (endsWith(path, ".csv"))
        return openMsCsvSource(path, opts);
    return Status::invalidArgument(
        "no streaming decoder for '" + path +
        "' (expected .csv or .bin; SPC traces need a global sort)");
}

} // namespace trace
} // namespace dlw
