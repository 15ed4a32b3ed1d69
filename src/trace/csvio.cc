#include "trace/csvio.hh"

#include <fstream>
#include <ostream>

#include "common/fault.hh"
#include "common/strutil.hh"
#include "trace/gate.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace trace
{

namespace
{

std::ofstream
openOut(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        throw StatusError(Status::ioError("cannot open '" + path +
                                          "' for writing"));
    }
    return os;
}

/**
 * The record loop of the hour and lifetime readers, after their
 * first (format) line.  The column-header line must follow; then
 * every non-empty line passes the trace.read.record fault point,
 * must split into `fields` fields, and goes to `parse(f, why,
 * clamped)`, which fills the caller's record and on a bad one sets
 * `why` (and `clamped` when it repaired the record instead).  A good
 * or repaired record goes to `keep()`; the gate counts everything.
 */
template <typename Parse, typename Keep>
Status
readRecords(std::istream &is, Gate &gate, std::size_t fields,
            Parse parse, Keep keep)
{
    std::string line;
    if (!std::getline(is, line))
        return Status::truncated("truncated CSV: missing column header");

    std::size_t lineno = 2;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty())
            continue;
        std::string why;
        bool was_clamped = false;
        if (FAULT_POINT("trace.read.record")) {
            why = "injected fault at trace.read.record";
        } else {
            const std::vector<std::string> f = split(t, ',');
            if (f.size() != fields)
                why = "expected " + std::to_string(fields) + " fields";
            else
                parse(f, why, was_clamped);
        }
        if (!why.empty()) {
            Status s = gate.corrupt(atLine(lineno, why));
            if (!s.ok())
                return s;
            if (!was_clamped) {
                gate.skip();
                continue;
            }
            gate.clamped();
        }
        keep();
        gate.accept(line.size() + 1);
    }
    return Status();
}

} // anonymous namespace

void
writeMsCsv(std::ostream &os, const MsTrace &trace)
{
    os << "# dlw-ms-v1," << trace.driveId() << ','
       << trace.start() << ',' << trace.duration() << '\n';
    os << "arrival_ns,lba,blocks,op\n";
    for (const Request &r : trace.requests()) {
        os << r.arrival << ',' << r.lba << ',' << r.blocks << ','
           << (r.isRead() ? 'R' : 'W') << '\n';
    }
}

void
writeMsCsv(const std::string &path, const MsTrace &trace)
{
    auto os = openOut(path);
    writeMsCsv(os, trace);
}

StatusOr<MsTrace>
readMsCsv(std::istream &is, const IngestOptions &opts,
          IngestStats *stats)
{
    return drainMsSource(openMsCsvSource(is, opts), stats);
}

StatusOr<MsTrace>
readMsCsv(const std::string &path, const IngestOptions &opts,
          IngestStats *stats)
{
    return drainMsSource(openMsCsvSource(path, opts), stats);
}

MsTrace
readMsCsv(std::istream &is)
{
    return readMsCsv(is, IngestOptions{}).valueOrThrow();
}

MsTrace
readMsCsv(const std::string &path)
{
    return readMsCsv(path, IngestOptions{}).valueOrThrow();
}

void
writeHourCsv(std::ostream &os, const HourTrace &trace)
{
    os << "# dlw-hour-v1," << trace.driveId() << ','
       << trace.start() << '\n';
    os << "hour,reads,writes,read_blocks,write_blocks,busy_ns\n";
    for (std::size_t h = 0; h < trace.hours(); ++h) {
        const HourBucket &b = trace.at(h);
        os << h << ',' << b.reads << ',' << b.writes << ','
           << b.read_blocks << ',' << b.write_blocks << ','
           << b.busy << '\n';
    }
}

void
writeHourCsv(const std::string &path, const HourTrace &trace)
{
    auto os = openOut(path);
    writeHourCsv(os, trace);
}

StatusOr<HourTrace>
readHourCsv(std::istream &is, const IngestOptions &opts,
            IngestStats *stats)
{
    Gate gate{opts, {}};
    IngestMetricsScope obs_scope(gate.st);
    auto fail = [&](Status s) -> StatusOr<HourTrace> {
        if (stats)
            *stats = gate.st;
        return s;
    };

    std::string line;
    if (!std::getline(is, line))
        return fail(Status::truncated("empty hour-trace CSV"));
    auto head = split(trim(line), ',');
    std::int64_t start = 0;
    if (head.size() != 3 || head[0] != "# dlw-hour-v1" ||
        !tryParseInt(head[2], start)) {
        return fail(Status::corruptData("bad hour-trace header '" +
                                        trim(line) + "'"));
    }
    HourTrace trace(head[1], start);
    std::uint64_t h = 0;
    HourBucket b;
    const auto parse = [&](const std::vector<std::string> &f,
                           std::string &why, bool &clamped) {
        b = HourBucket{};
        if (!tryParseUint(f[0], h) || !tryParseUint(f[1], b.reads) ||
            !tryParseUint(f[2], b.writes) ||
            !tryParseUint(f[3], b.read_blocks) ||
            !tryParseUint(f[4], b.write_blocks) ||
            !tryParseInt(f[5], b.busy)) {
            why = "malformed field";
        } else if (b.busy < 0 || b.busy > kHour) {
            if (gate.clampMode()) {
                b.busy = b.busy < 0 ? 0 : kHour;
                clamped = true;
            }
            why = "busy time outside [0, 1h]";
        }
    };
    Status s = readRecords(is, gate, 6, parse, [&] {
        trace.bucketFor(static_cast<std::size_t>(h)) = b;
    });
    if (!s.ok())
        return fail(std::move(s));
    if (stats)
        *stats = gate.st;
    return trace;
}

StatusOr<HourTrace>
readHourCsv(const std::string &path, const IngestOptions &opts,
            IngestStats *stats)
{
    std::ifstream is;
    Status s = openTraceFile(path, is);
    if (!s.ok())
        return s;
    StatusOr<HourTrace> r = readHourCsv(is, opts, stats);
    if (!r.ok()) {
        Status e = r.status();
        return e.withContext("reading '" + path + "'");
    }
    return r;
}

HourTrace
readHourCsv(std::istream &is)
{
    return readHourCsv(is, IngestOptions{}).valueOrThrow();
}

HourTrace
readHourCsv(const std::string &path)
{
    return readHourCsv(path, IngestOptions{}).valueOrThrow();
}

void
writeLifetimeCsv(std::ostream &os, const LifetimeTrace &trace)
{
    os << "# dlw-lifetime-v1," << trace.family() << '\n';
    os << "drive_id,power_on_ns,busy_ns,reads,writes,read_blocks,"
          "write_blocks,peak_hour_requests,saturated_hours,"
          "longest_saturated_run\n";
    for (const LifetimeRecord &r : trace.records()) {
        os << r.drive_id << ',' << r.power_on << ',' << r.busy << ','
           << r.reads << ',' << r.writes << ',' << r.read_blocks << ','
           << r.write_blocks << ',' << r.peak_hour_requests << ','
           << r.saturated_hours << ',' << r.longest_saturated_run
           << '\n';
    }
}

void
writeLifetimeCsv(const std::string &path, const LifetimeTrace &trace)
{
    auto os = openOut(path);
    writeLifetimeCsv(os, trace);
}

StatusOr<LifetimeTrace>
readLifetimeCsv(std::istream &is, const IngestOptions &opts,
                IngestStats *stats)
{
    Gate gate{opts, {}};
    IngestMetricsScope obs_scope(gate.st);
    auto fail = [&](Status s) -> StatusOr<LifetimeTrace> {
        if (stats)
            *stats = gate.st;
        return s;
    };

    std::string line;
    if (!std::getline(is, line))
        return fail(Status::truncated("empty lifetime-trace CSV"));
    auto head = split(trim(line), ',');
    if (head.size() != 2 || head[0] != "# dlw-lifetime-v1") {
        return fail(Status::corruptData("bad lifetime-trace header '" +
                                        trim(line) + "'"));
    }
    LifetimeTrace trace(head[1]);
    LifetimeRecord r;
    const auto parse = [&](const std::vector<std::string> &f,
                           std::string &why, bool &clamped) {
        r = LifetimeRecord{};
        if (!tryParseInt(f[1], r.power_on) || !tryParseInt(f[2], r.busy) ||
            !tryParseUint(f[3], r.reads) ||
            !tryParseUint(f[4], r.writes) ||
            !tryParseUint(f[5], r.read_blocks) ||
            !tryParseUint(f[6], r.write_blocks) ||
            !tryParseUint(f[7], r.peak_hour_requests) ||
            !tryParseUint(f[8], r.saturated_hours) ||
            !tryParseUint(f[9], r.longest_saturated_run)) {
            why = "malformed field";
            return;
        }
        r.drive_id = trim(f[0]);
        // Domain repairs exist only under the clamp policy; the
        // other policies pass domain issues through to validate(),
        // as the seed reader did.
        if (!gate.clampMode())
            return;
        if (r.power_on < 0) {
            r.power_on = 0;
            clamped = true;
        }
        if (r.busy < 0 || r.busy > r.power_on) {
            r.busy = r.busy < 0 ? 0 : r.power_on;
            clamped = true;
        }
        if (r.longest_saturated_run > r.saturated_hours) {
            r.longest_saturated_run = r.saturated_hours;
            clamped = true;
        }
        if (clamped)
            why = "counters outside their domain";
    };
    Status s = readRecords(is, gate, 10, parse,
                           [&] { trace.append(std::move(r)); });
    if (!s.ok())
        return fail(std::move(s));
    if (stats)
        *stats = gate.st;
    return trace;
}

StatusOr<LifetimeTrace>
readLifetimeCsv(const std::string &path, const IngestOptions &opts,
                IngestStats *stats)
{
    std::ifstream is;
    Status s = openTraceFile(path, is);
    if (!s.ok())
        return s;
    StatusOr<LifetimeTrace> r = readLifetimeCsv(is, opts, stats);
    if (!r.ok()) {
        Status e = r.status();
        return e.withContext("reading '" + path + "'");
    }
    return r;
}

LifetimeTrace
readLifetimeCsv(std::istream &is)
{
    return readLifetimeCsv(is, IngestOptions{}).valueOrThrow();
}

LifetimeTrace
readLifetimeCsv(const std::string &path)
{
    return readLifetimeCsv(path, IngestOptions{}).valueOrThrow();
}

} // namespace trace
} // namespace dlw
