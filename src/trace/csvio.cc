#include "trace/csvio.hh"

#include <fstream>
#include <ostream>

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

} // namespace trace
} // namespace dlw
