#include "trace/ingest.hh"

#include <sstream>

#include "obs/metrics.hh"

namespace dlw
{
namespace trace
{

namespace
{

/**
 * The ingest.* metric family, registered once.  Per-policy outcome
 * counters are wired straight from IngestStats: records_skipped only
 * moves under the skip/clamp policies, records_clamped only under
 * clamp — so the counters read as "what the recovery policies
 * actually did", fleet-wide.
 */
struct IngestMetrics
{
    obs::Counter &passes = obs::counter("ingest.passes", "passes",
        "trace", "trace read passes completed (one per file/stream)");
    obs::Counter &records_read = obs::counter("ingest.records_read",
        "records", "trace", "records accepted into a trace");
    obs::Counter &records_skipped = obs::counter("ingest.records_skipped", "records", "trace",
        "corrupt records dropped by the skip/clamp policies");
    obs::Counter &records_clamped = obs::counter("ingest.records_clamped", "records", "trace",
        "corrupt records salvaged by the clamp policy");
    obs::Counter &errors = obs::counter("ingest.errors", "events",
        "trace", "corrupt events observed across all readers");
    obs::Counter &bytes_read = obs::counter("ingest.bytes_read",
        "bytes", "trace", "input bytes of accepted records");
    obs::Counter &bytes_recovered = obs::counter("ingest.bytes_recovered", "bytes", "trace",
        "bytes accepted after the first corrupt event (what kAbort "
        "would have discarded)");
};

IngestMetrics &
ingestMetrics()
{
    static IngestMetrics *m = new IngestMetrics();
    return *m;
}

} // anonymous namespace

IngestMetricsScope::IngestMetricsScope(const IngestStats &st)
    : st_(st), span_("ingest.parse")
{
}

IngestMetricsScope::~IngestMetricsScope()
{
    if (!obs::enabled())
        return;
    IngestMetrics &m = ingestMetrics();
    m.passes.add(1);
    m.records_read.add(st_.records_read);
    m.records_skipped.add(st_.records_skipped);
    m.records_clamped.add(st_.records_clamped);
    m.errors.add(st_.errors);
    m.bytes_read.add(st_.bytes_read);
    m.bytes_recovered.add(st_.bytes_recovered);
}

void
registerIngestMetrics()
{
    ingestMetrics();
}

StatusOr<RecordPolicy>
parseRecordPolicy(const std::string &name)
{
    if (name == "abort")
        return RecordPolicy::kAbort;
    if (name == "skip")
        return RecordPolicy::kSkipAndCount;
    if (name == "clamp")
        return RecordPolicy::kBestEffortClamp;
    return Status::invalidArgument("unknown corrupt-record policy '" +
                                   name + "' (abort|skip|clamp)");
}

void
IngestStats::noteError(std::string msg, std::size_t max_samples)
{
    ++errors;
    if (error_samples.size() < max_samples)
        error_samples.push_back(std::move(msg));
}

std::string
IngestStats::summary() const
{
    std::ostringstream os;
    os << "read " << records_read << ", skipped " << records_skipped
       << ", clamped " << records_clamped << ", errors " << errors
       << ", recovered " << bytes_recovered << " B";
    return os.str();
}

} // namespace trace
} // namespace dlw
